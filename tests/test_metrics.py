import csv
import itertools
import weakref

import numpy as np
import pytest

from convsep import metrics
from convsep.demix import PipelineConfig, apply_mimo_fir, demix_pipeline
from convsep.errors import ParameterError, UndefinedSirError
from convsep.iva import IvaConfig
from convsep.metrics import (
    DB_CAP,
    ENVELOPE_WINDOW_S,
    SeparationReport,
    evaluate_separation,
    input_sir,
    moving_rms,
    physical_path_length,
    project_images,
    sdr,
    sir,
    write_envelopes_csv,
)
from convsep.signal import SignalMetadata, TimeSeries, highpass_dc_removal
from convsep.simulate import build_scenario, delayed_pair_scenario, respiratory_scenario
from convsep.spectral import DemixFilterBank
from convsep.sphering import SpheringTransform, apply_sphering


def brute_force_sir(power):
    """Independent permutation-search oracle on a (source, output) power table."""
    n = power.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        sirs = []
        for out in range(n):
            own = power[perm[out], out]
            other = power[:, out].sum() - own
            if own <= 0 and other <= 0:
                raise ValueError("degenerate")
            if own <= 0:
                sirs.append(-DB_CAP)
            elif other <= 0:
                sirs.append(DB_CAP)
            else:
                sirs.append(min(max(10 * np.log10(own / other), -DB_CAP), DB_CAP))
        if best is None or sum(sirs) > sum(best[1]):
            best = (perm, sirs)
    return best


def contributions_with_powers(power, n=256, seed=0):
    """Random orthogonal-ish contributions realizing a given power table."""
    rng = np.random.default_rng(seed)
    n_src = power.shape[0]
    out = np.zeros((n_src, n_src, n))
    for q in range(n_src):
        for j in range(n_src):
            if power[q, j] > 0:
                sig = rng.standard_normal(n)
                out[q, j] = sig * np.sqrt(power[q, j] / np.sum(sig**2))
    return out


class TestSir:
    def test_perfect_separation_caps(self):
        contrib = np.zeros((2, 2, 100))
        contrib[0, 0] = 1.0
        contrib[1, 1] = 2.0
        assignment, sirs = sir(contrib)
        assert assignment == (0, 1)
        assert sirs == (DB_CAP, DB_CAP)

    def test_equal_power_is_zero_db(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 400))
        a /= np.sqrt(np.sum(a**2))
        b /= np.sqrt(np.sum(b**2))
        contrib = np.zeros((2, 2, 400))
        contrib[0, 0] = a
        contrib[1, 0] = b
        contrib[0, 1] = b
        contrib[1, 1] = a
        _, sirs = sir(contrib)
        np.testing.assert_allclose(sirs, (0.0, 0.0), atol=1e-9)

    def test_assignment_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            power = rng.uniform(0.01, 10.0, size=(3, 3))
            contrib = contributions_with_powers(power, seed=trial)
            measured_power = np.sum(contrib**2, axis=2)
            want_perm, want_sirs = brute_force_sir(measured_power)
            got_perm, got_sirs = sir(contrib)
            assert got_perm == want_perm
            np.testing.assert_allclose(got_sirs, want_sirs, atol=1e-9)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        contrib = rng.standard_normal((3, 3, 200))
        _, base = sir(contrib)
        scaled = contrib * np.array([0.1, 7.0, 3.0])[None, :, None]
        _, after = sir(scaled)
        np.testing.assert_allclose(after, base, atol=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        contrib = rng.standard_normal((3, 3, 150)) * np.array([3.0, 1.0, 0.2])[:, None, None]
        perm0, sirs0 = sir(contrib)
        reorder = [2, 0, 1]
        contrib2 = contrib[reorder][:, reorder]
        perm2, sirs2 = sir(contrib2)
        np.testing.assert_allclose(sorted(sirs2), sorted(sirs0), atol=1e-9)

    def test_all_zero_raises(self):
        with pytest.raises(UndefinedSirError):
            sir(np.zeros((2, 2, 10)))

    def test_too_many_channels(self):
        with pytest.raises(ParameterError):
            sir(np.zeros((7, 7, 4)))

    def test_transient_excluded(self):
        contrib = np.zeros((2, 2, 100))
        contrib[0, 0, 50:] = 1.0
        contrib[1, 1, 50:] = 1.0
        contrib[1, 0, :10] = 100.0  # interference confined to the transient
        _, with_transient = sir(contrib, transient=0)
        _, skipped = sir(contrib, transient=10)
        assert skipped[0] == DB_CAP
        assert with_transient[0] < 0

    def test_peak_memory_far_below_contributions(self, traced_peak):
        # the (source, output) powers need no squared copy of the contributions
        contrib = np.random.default_rng(9).standard_normal((4, 4, 61_475))
        assert traced_peak(sir, contrib, 64) <= 0.1 * contrib.nbytes


def count_calls(monkeypatch, *names):
    """Replace each named convsep.metrics attribute, where a tracer would
    wrap it, by a wrapper that counts its calls; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(metrics, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counted)
    return counts


def ones_image(n_channels, n_samples):
    return TimeSeries(
        np.ones((n_channels, n_samples)),
        SignalMetadata(1e-3, tuple(f"c{p}" for p in range(n_channels))),
    )


IDENTITY_BANK = DemixFilterBank.identity(2, 4)
THREE_CHANNEL_IMAGE = TimeSeries(np.ones((3, 8)), SignalMetadata(1e-3, ("a", "b", "c")))
# output 2 receives nothing from any source, output 1 something from both
SILENT_OUTPUT = np.zeros((2, 2, 8))
SILENT_OUTPUT[:, 0] = 1.0


def evaluate_images(images, bank=IDENTITY_BANK):
    """evaluate_separation with an identity sphering and a 15 Hz highpass."""
    return evaluate_separation(
        bank, SpheringTransform.identity(bank.n_channels), images, dc_cutoff_hz=15.0
    )


@pytest.mark.parametrize(
    "call, error, match",
    [
        (
            lambda: project_images(IDENTITY_BANK, SpheringTransform.identity(2), []),
            ParameterError,
            "at least one",
        ),
        (
            lambda: project_images(
                IDENTITY_BANK, SpheringTransform.identity(2), [THREE_CHANNEL_IMAGE]
            ),
            ParameterError,
            "3 channels",
        ),
        (lambda: sir(np.ones((2, 8))), ParameterError, "sources, outputs, samples"),
        (lambda: sir(np.ones((2, 3, 8))), ParameterError, "sources, outputs, samples"),
        (
            lambda: SeparationReport((0, 1), (1.0,), (1.0, 1.0), (1.0, 1.0)),
            ParameterError,
            "sir_db must have 2",
        ),
        (lambda: sir(SILENT_OUTPUT), UndefinedSirError, "both signal and interference"),
        (
            lambda: evaluate_images([ones_image(2, 500), ones_image(2, 400)]),
            ParameterError,
            "image 1 is 2 channels x 400 samples, image 0 is 2 x 500",
        ),
        (
            lambda: evaluate_images([ones_image(2, 500), ones_image(3, 500)]),
            ParameterError,
            "image 1 is 3 channels x 500 samples",
        ),
        (
            lambda: evaluate_images([THREE_CHANNEL_IMAGE, THREE_CHANNEL_IMAGE]),
            ParameterError,
            "image has 3 channels, bank expects 2",
        ),
        (
            lambda: evaluate_images([ones_image(2, 500)] * 7),
            ParameterError,
            "7 source images for a bank of 2 channels",
        ),
        (
            lambda: evaluate_images([ones_image(7, 500)] * 7, DemixFilterBank.identity(7, 4)),
            ParameterError,
            "at most 6 channels, got 7",
        ),
    ],
    ids=[
        "project-no-images", "project-channel-mismatch", "sir-2d", "sir-not-square",
        "report-short-field", "sir-silent-output", "evaluate-unequal-samples",
        "evaluate-unequal-channels", "evaluate-channel-mismatch", "evaluate-count-vs-bank",
        "evaluate-too-many-sources",
    ],
)
def test_rejects_malformed_inputs(monkeypatch, call, error, match):
    # every input is rejected before anything is filtered
    counts = count_calls(monkeypatch, "highpass_dc_removal", "apply_mimo_fir")
    with pytest.raises(error, match=match):
        call()
    assert counts == {"highpass_dc_removal": 0, "apply_mimo_fir": 0}


class TestProjectImages:
    def _setup(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        meta = SignalMetadata(1e-3, ("s1", "s2"))
        images = [
            TimeSeries(np.outer(rng.standard_normal(2), rng.standard_normal(n)), meta)
            for _ in range(2)
        ]
        mixed = TimeSeries(images[0].data + images[1].data, meta)
        bank = DemixFilterBank(rng.standard_normal((2, 2, 4)))
        transform = SpheringTransform(np.array([[1.2, 0.1], [0.1, 0.8]]), np.ones(2))
        return images, mixed, bank, transform

    def test_single_active_source_equals_output(self):
        images, _, bank, transform = self._setup()
        silent = images[1].with_data(np.zeros_like(images[1].data))
        contrib = project_images(bank, transform, [images[0], silent])
        full = apply_mimo_fir(bank, apply_sphering(transform, images[0])).data
        np.testing.assert_allclose(contrib[0], full, atol=1e-12)
        assert np.all(contrib[1] == 0.0)

    def test_contributions_sum_to_output(self):
        images, mixed, bank, transform = self._setup()
        contrib = project_images(bank, transform, images)
        output = apply_mimo_fir(bank, apply_sphering(transform, mixed)).data
        scale = np.sqrt(np.mean(output**2))
        np.testing.assert_allclose(contrib.sum(axis=0), output, atol=1e-9 * scale)

    def test_matches_direct_filtering_oracle(self):
        images, _, bank, transform = self._setup(seed=5)
        contrib = project_images(bank, transform, images)
        for q in range(2):
            direct = apply_mimo_fir(bank, apply_sphering(transform, images[q])).data
            np.testing.assert_allclose(contrib[q], direct, atol=1e-12)

    def test_highpass_keeps_decomposition_linear(self):
        images, mixed, bank, transform = self._setup(seed=6)
        highpassed = [highpass_dc_removal(img, 10.0) for img in images]
        contrib = project_images(bank, transform, highpassed)
        output = apply_mimo_fir(
            bank, apply_sphering(transform, highpass_dc_removal(mixed, 10.0))
        ).data
        scale = np.sqrt(np.mean(output**2))
        np.testing.assert_allclose(contrib.sum(axis=0), output, atol=1e-9 * scale)

    def test_peak_memory_within_contributions_and_three_images(self, traced_peak):
        # each image's contribution goes straight into the result array
        rng = np.random.default_rng(7)
        meta = SignalMetadata(1e-3, ("c1", "c2", "c3", "c4"))
        images = [TimeSeries(rng.standard_normal((4, 61_475)), meta) for _ in range(4)]
        bank = DemixFilterBank(rng.standard_normal((4, 4, 64)))
        transform = SpheringTransform.identity(4)
        image_bytes = images[0].data.nbytes
        peak = traced_peak(project_images, bank, transform, images)
        assert peak <= len(images) * image_bytes + 3 * image_bytes


def test_evaluate_separation_peak_memory_within_six_images(traced_peak):
    # one source at a time: its highpassed image, sphered image and
    # contribution, the output sum and the reference rows; holding every
    # highpassed image and every contribution at once took 10.5 images
    rng = np.random.default_rng(7)
    meta = SignalMetadata(1e-3, ("c1", "c2", "c3", "c4"))
    images = [TimeSeries(rng.standard_normal((4, 61_475)), meta) for _ in range(4)]
    bank = DemixFilterBank(rng.standard_normal((4, 4, 64)))
    transform = SpheringTransform.identity(4)
    peak = traced_peak(evaluate_separation, bank, transform, images, 15.0)
    assert peak <= 6 * images[0].data.nbytes


def test_evaluate_separation_filters_each_source_once(monkeypatch):
    # perfbench's signal.highpass_dc_removal, sphering.apply_sphering and
    # demix.apply_mimo_fir spans wrap these convsep.metrics attributes
    names = ("highpass_dc_removal", "apply_sphering", "apply_mimo_fir")
    counts = count_calls(monkeypatch, *names)
    images, _, bank, transform = TestProjectImages()._setup(seed=3)
    evaluate_separation(bank, transform, images, dc_cutoff_hz=15.0)
    assert counts == dict.fromkeys(names, len(images))


class TestSdr:
    def test_clean_output_high_sdr(self):
        rng = np.random.default_rng(7)
        meta = SignalMetadata(1e-3, ("a", "b"))
        s = rng.standard_normal(500)
        img = TimeSeries(np.stack([s, 0.5 * s]), meta)
        contrib = np.zeros((1, 1, 500))
        contrib[0, 0] = 3.0 * s  # scaled copy of the reference
        values = sdr(contrib, [img], (0,))
        assert values[0] == DB_CAP

    def test_noisy_output_lower_sdr(self):
        rng = np.random.default_rng(8)
        meta = SignalMetadata(1e-3, ("a",))
        s = rng.standard_normal(500)
        img = TimeSeries(s[None, :], meta)
        noise = rng.standard_normal(500)
        contrib = np.zeros((1, 1, 500))
        contrib[0, 0] = s + 0.1 * noise
        values = sdr(contrib, [img], (0,))
        assert 15.0 < values[0] < 25.0

    def test_silent_reference_gives_floor(self):
        meta = SignalMetadata(1e-3, ("a",))
        img = TimeSeries(np.zeros((1, 500)), meta)
        contrib = np.ones((1, 1, 500))
        assert sdr(contrib, [img], (0,)) == (-DB_CAP,)


class TestOracleBank:
    def test_inverse_of_instantaneous_mixing_caps_sir(self):
        # a perfect demixer (the mixing inverse as a 1-tap bank) separates
        # exactly, so every output hits the +100 dB cap
        rng = np.random.default_rng(9)
        mixing = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        sources = rng.standard_normal((3, 500))
        meta = SignalMetadata(1e-3, ("a", "b", "c"))
        images = [
            TimeSeries(np.outer(mixing[:, q], sources[q]), meta) for q in range(3)
        ]
        bank = DemixFilterBank(np.linalg.inv(mixing)[:, :, None])
        report = evaluate_separation(bank, SpheringTransform.identity(3), images)
        assert report.sir_db == (DB_CAP,) * 3
        assert report.sir_capped == (True,) * 3


class TestInputSir:
    def test_best_sensor_selected(self):
        meta = SignalMetadata(1e-3, ("a", "b"))
        s1 = np.zeros((2, 100))
        s1[0] = 1.0  # strong on sensor 1
        s1[1] = 0.1
        s2 = np.zeros((2, 100))
        s2[0] = 0.1
        s2[1] = 1.0
        images = [TimeSeries(s1, meta), TimeSeries(s2, meta)]
        values = input_sir(images)
        np.testing.assert_allclose(values, (20.0, 20.0), atol=1e-9)


class TestPhysicalPathLength:
    def test_paper_constant(self):
        # v L Ta = 4 * 64 * 0.976 ms = 0.249856 m, about 25 cm of muscle
        value = physical_path_length(64)
        assert abs(value - 0.249856) <= 1e-6
        assert abs(value - 0.25) < 0.001

    def test_single_tap(self):
        assert physical_path_length(1) == pytest.approx(4.0 * 0.976e-3)

    def test_linear_in_length(self):
        a = physical_path_length(32)
        assert physical_path_length(64) == 2.0 * a
        assert physical_path_length(7) == pytest.approx(7.0 * physical_path_length(1), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError, match="filter_length"):
            physical_path_length(0)


def public_steps_report(bank, sphering, images, dc_cutoff_hz, trace=None) -> dict:
    """The report assembled from the public steps: highpass every image,
    then project_images, sir, sdr and input_sir over all sources at once."""
    transient = bank.filter_length
    if dc_cutoff_hz is not None:
        images = [highpass_dc_removal(img, dc_cutoff_hz) for img in images]
    contributions = project_images(bank, sphering, images)
    assignment, sir_db = sir(contributions, transient)
    sdr_db = sdr(contributions, images, assignment, transient)
    in_sir = input_sir(images, transient)
    return SeparationReport(
        assignment=assignment,
        sir_db=sir_db,
        sdr_db=sdr_db,
        input_sir_db=tuple(in_sir[src] for src in assignment),
        convergence=None if trace is None else trace.summary(),
    ).to_dict()


class TestEvaluateSeparation:
    @pytest.mark.parametrize("dc_cutoff_hz", [None, 15.0])
    def test_equals_public_steps(self, dc_cutoff_hz):
        sim = build_scenario(respiratory_scenario(seed=0, duration_s=20.0))
        cfg = PipelineConfig(
            filter_length=64,
            dc_cutoff_hz=dc_cutoff_hz,
            iva=IvaConfig(step_size=0.003, max_iterations=20),
        )
        result = demix_pipeline(sim.mixed, cfg)
        args = (result.bank, result.sphering, sim.images, dc_cutoff_hz, result.trace)
        assert evaluate_separation(*args).to_dict() == public_steps_report(*args)

    def test_equals_public_steps_with_a_silent_source(self):
        # the inverse of an instantaneous mixing caps the active sources'
        # SIR at +DB_CAP; the silent source's output sits at -DB_CAP, and
        # its zero reference gives the -DB_CAP SDR
        rng = np.random.default_rng(11)
        mixing = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        sources = rng.standard_normal((3, 500))
        sources[1] = 0.0
        meta = SignalMetadata(1e-3, ("a", "b", "c"))
        images = [TimeSeries(np.outer(mixing[:, q], sources[q]), meta) for q in range(3)]
        args = (
            DemixFilterBank(np.linalg.inv(mixing)[:, :, None]),
            SpheringTransform.identity(3),
            images,
            15.0,
        )
        report = evaluate_separation(*args).to_dict()
        assert report == public_steps_report(*args)
        silent_output = report["assignment"].index(1)
        assert report["sir_db"][silent_output] == -DB_CAP
        assert report["sdr_db"][silent_output] == -DB_CAP
        assert report["sir_db"].count(DB_CAP) == 2

    def test_report_fields_consistent(self):
        sim = build_scenario(delayed_pair_scenario(seed=1, duration_s=20.0))
        cfg = PipelineConfig(filter_length=16, iva=IvaConfig(step_size=0.01, max_iterations=80))
        result = demix_pipeline(sim.mixed, cfg)
        report = evaluate_separation(
            result.bank, result.sphering, sim.images, trace=result.trace
        )
        assert sorted(report.assignment) == [0, 1]
        for out in range(2):
            np.testing.assert_allclose(
                report.sir_improvement_db[out],
                report.sir_db[out] - report.input_sir_db[out],
                atol=1e-12,
            )
        assert report.convergence["iterations"] == result.trace.iterations
        payload = report.to_dict()
        assert set(payload) == {
            "assignment",
            "sir_db",
            "sdr_db",
            "sir_improvement_db",
            "input_sir_db",
            "convergence",
            "sir_capped",
        }
        assert payload["sir_capped"] == (False, False)

    def test_rejects_bad_assignment(self):
        with pytest.raises(ParameterError):
            SeparationReport((0, 0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0))

    def test_capped_sir_is_marked(self):
        zeros = (0.0, 0.0, 0.0)
        report = SeparationReport((1, 0, 2), (DB_CAP, 42.0, -DB_CAP), zeros, zeros)
        assert report.sir_capped == (True, False, True)

    def test_improvement_is_sir_over_input_sir(self):
        report = SeparationReport((1, 0), (30.0, np.float64(12.5)), (1.0, 1.0), (-20.0, 2.5))
        assert report.sir_improvement_db == (50.0, 10.0)
        assert all(type(v) is float for v in report.sir_improvement_db)


class TestCompareInstantaneous:
    def test_returns_paired_reports(self):
        from convsep.metrics import compare_instantaneous

        scenario = delayed_pair_scenario(seed=2, duration_s=20.0)
        cfg = PipelineConfig(
            filter_length=16,
            dc_cutoff_hz=15.0,
            iva=IvaConfig(step_size=0.01, max_iterations=60),
        )
        inst, conv = compare_instantaneous(scenario, cfg)
        assert len(inst.sir_db) == len(conv.sir_db) == 2
        # the convolutive demixer has room the instantaneous one lacks
        assert np.mean(conv.sir_db) > np.mean(inst.sir_db)

    def test_sources_and_kernels_released_before_the_runs(self, monkeypatch):
        # both runs read only the mixture and the images
        watched, alive = [], []

        def build_and_watch(scenario):
            sim = build_scenario(scenario)
            watched.extend([weakref.ref(sim.sources), weakref.ref(sim.system)])
            return sim

        def run_and_check(ts, cfg):
            alive.append([ref() is not None for ref in watched])
            return demix_pipeline(ts, cfg)

        monkeypatch.setattr(metrics, "build_scenario", build_and_watch)
        monkeypatch.setattr(metrics, "demix_pipeline", run_and_check)
        cfg = PipelineConfig(filter_length=16, iva=IvaConfig(step_size=0.01, max_iterations=2))
        metrics.compare_instantaneous(delayed_pair_scenario(seed=2, duration_s=5.0), cfg)
        assert alive == [[False, False], [False, False]]


class TestMovingRms:
    def test_constant_signal(self, make_ts):
        ts = make_ts(np.full((2, 200), 3.0))
        env = moving_rms(ts)
        np.testing.assert_allclose(env, 3.0, rtol=1e-12)

    def test_tracks_bursts(self, make_ts):
        x = np.zeros((1, 1000))
        x[0, 400:600] = 1.0
        env = moving_rms(make_ts(x))
        assert env[0, 500] > 0.9
        assert env[0, 100] == 0.0

    @pytest.mark.parametrize("n_samples", [1, 2, 24, 25, 26, 49, 50, 51, 52, 1000])
    @pytest.mark.parametrize("window_s", [0.001, 0.05, 0.5])
    def test_matches_gather_formula(self, make_ts, n_samples, window_s):
        # the envelope as first built, from fancy-indexed window bounds, over
        # as many samples as window_s spans at 1 ms (ENVELOPE_WINDOW_S at a
        # sample interval scaled to match); window_s = 0.05 gives half = 25,
        # so these lengths put the clipped edges apart, touching and overlapping
        x = wide_range_signal(3, n_samples, seed=n_samples)
        half = max(1, int(round(window_s / 1e-3))) // 2
        padded = np.concatenate([np.zeros((3, 1)), np.cumsum(x**2, axis=1)], axis=1)
        lo = np.maximum(np.arange(n_samples) - half, 0)
        hi = np.minimum(np.arange(n_samples) + half + 1, n_samples)
        want = np.sqrt((padded[:, hi] - padded[:, lo]) / (hi - lo))
        ts = make_ts(x, 1e-3 * ENVELOPE_WINDOW_S / window_s)
        assert np.array_equal(moving_rms(ts), want)

    @pytest.mark.parametrize("n_samples", [16_384, 61_475])
    def test_peak_memory_within_input_multiple(self, make_ts, traced_peak, n_samples):
        ts = make_ts(np.random.default_rng(1).standard_normal((4, n_samples)))
        assert traced_peak(moving_rms, ts) <= 3.5 * ts.data.nbytes


def loop_envelopes_csv(ts, path):
    """Row-at-a-time oracle: the writer as first built, one csv.writer row per sample."""
    env = moving_rms(ts)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"env_out{p + 1}" for p in range(ts.n_channels)])
        interval = ts.meta.sample_interval_s
        for i in range(ts.n_samples):
            writer.writerow(["%.9g" % (i * interval)] + ["%.9g" % v for v in env[:, i]])


def wide_range_signal(n_channels, n_samples, seed=0):
    """Channels whose magnitudes ramp geometrically between 1e-300 and 1e12
    (rising on even channels, falling on odd ones), with an all-zero stretch
    at the start of each, so the envelopes hold exact zeros, underflowed
    squares and exponent-form values."""
    rng = np.random.default_rng(seed)
    exponents = np.linspace(-300.0, 12.0, n_samples)
    data = np.empty((n_channels, n_samples))
    for p in range(n_channels):
        ramp = 10.0 ** (exponents if p % 2 == 0 else exponents[::-1])
        data[p] = ramp * rng.uniform(0.5, 1.5, n_samples) * rng.choice([-1.0, 1.0], n_samples)
        data[p, : max(1, n_samples // 8) + 7 * p] = 0.0
    return data


class TestWriteEnvelopesCsv:
    @pytest.mark.parametrize("n_channels", [1, 4])
    @pytest.mark.parametrize("n_samples", [1, 1023, 1024, 1025, 3 * 1024 + 7])
    @pytest.mark.parametrize("sample_interval_s", [1e-3, 1 / 2400])
    def test_bytes_match_row_loop(self, make_ts, tmp_path, n_channels, n_samples, sample_interval_s):
        ts = make_ts(wide_range_signal(n_channels, n_samples), sample_interval_s)
        write_envelopes_csv(ts, tmp_path / "blocks.csv")
        loop_envelopes_csv(ts, tmp_path / "loop.csv")
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "loop.csv").read_bytes()
        assert got.count(b"\r\n") == n_samples + 1

    def test_inputs_reach_exponent_forms_and_zero(self, make_ts):
        env = moving_rms(make_ts(wide_range_signal(4, 3 * 1024 + 7)))
        text = ["%.9g" % v for v in env.ravel().tolist()]
        exponents = [int(v.partition("e")[2]) for v in text if "e" in v]
        assert "0" in text
        assert min(exponents) < -150
        assert max(exponents) >= 11

    @pytest.mark.parametrize("sample_interval_s", [1e-3, 1 / 2400, 0.976e-3])
    def test_values_within_nine_digits(self, make_ts, tmp_path, sample_interval_s):
        n_samples = 3 * 1024 + 7
        ts = make_ts(wide_range_signal(4, n_samples), sample_interval_s)
        write_envelopes_csv(ts, tmp_path / "env.csv")
        with open(tmp_path / "env.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = [cell for row in rows for cell in row[1:]]
        got = np.array([[float(cell) for cell in row] for row in rows])
        env = moving_rms(ts)
        # nine significant digits round to within half a unit of the ninth
        np.testing.assert_allclose(got[:, 1:], env.T, rtol=5e-9, atol=0)
        assert all(cell == "0" for cell, v in zip(cells, env.T.ravel()) if v == 0.0)
        assert any(int(cell.partition("e")[2]) < -150 for cell in cells if "e" in cell)
        assert any(int(cell.partition("e")[2]) >= 11 for cell in cells if "e" in cell)
        times = got[:, 0]
        np.testing.assert_allclose(times, np.arange(n_samples) * sample_interval_s, rtol=5e-9, atol=0)
        assert np.all(np.diff(times) > 0)

    @pytest.mark.parametrize("n_samples", [16_384, 61_475])
    def test_peak_memory_within_moving_rms(self, make_ts, traced_peak, tmp_path, n_samples):
        rng = np.random.default_rng(1)
        ts = make_ts(rng.standard_normal((4, n_samples)))
        rms_peak = traced_peak(moving_rms, ts)
        csv_peak = traced_peak(write_envelopes_csv, ts, tmp_path / "env.csv")
        assert csv_peak <= 1.05 * rms_peak
