import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from convsep.demix import PipelineConfig, apply_mimo_fir, demix_pipeline
from convsep.errors import ParameterError, UndefinedSirError
from convsep.iva import IvaConfig
from convsep.metrics import (
    DB_CAP,
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
from convsep.simulate import build_scenario, delayed_pair_scenario
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
        transform = SpheringTransform(np.array([[1.2, 0.1], [0.1, 0.8]]), np.ones(2), 1e-10)
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
        report = evaluate_separation(
            bank, SpheringTransform.identity(3), images, transient=0
        )
        assert report.sir_db == (DB_CAP,) * 3


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
        value = physical_path_length(64, 0.976e-3, 4.0)
        assert abs(value - 0.249856) <= 1e-6
        assert abs(value - 0.25) < 0.001

    def test_single_tap(self):
        assert physical_path_length(1, 0.976e-3, 4.0) == pytest.approx(4.0 * 0.976e-3)

    def test_linear_in_length(self):
        a = physical_path_length(32, 1e-3, 3.5)
        b = physical_path_length(64, 1e-3, 3.5)
        assert b == 2.0 * a

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            physical_path_length(0, 1e-3, 4.0)


class TestEvaluateSeparation:
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
        }

    def test_rejects_bad_assignment(self):
        with pytest.raises(ParameterError):
            SeparationReport((0, 0), (1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))


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


class TestMovingRms:
    def test_constant_signal(self, make_ts):
        ts = make_ts(np.full((2, 200), 3.0))
        env = moving_rms(ts, window_s=0.02)
        np.testing.assert_allclose(env, 3.0, rtol=1e-12)

    def test_tracks_bursts(self, make_ts):
        x = np.zeros((1, 1000))
        x[0, 400:600] = 1.0
        env = moving_rms(make_ts(x), window_s=0.05)
        assert env[0, 500] > 0.9
        assert env[0, 100] == 0.0


def loop_envelopes_csv(ts, path, window_s=0.05):
    """Row-at-a-time oracle: the writer as first built, one csv.writer row per sample."""
    env = moving_rms(ts, window_s)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"env_out{p + 1}" for p in range(ts.n_channels)])
        interval = ts.meta.sample_interval_s
        for i in range(ts.n_samples):
            writer.writerow([repr(i * interval)] + [repr(float(v)) for v in env[:, i]])


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
        text = [repr(v) for v in env.ravel().tolist()]
        exponents = [int(v.partition("e")[2]) for v in text if "e" in v]
        assert "0.0" in text
        assert min(exponents) < -150
        assert env.max() > 1e11

    @pytest.mark.parametrize("n_samples", [16_384, 61_475])
    def test_peak_memory_within_moving_rms(self, make_ts, tmp_path, n_samples):
        rng = np.random.default_rng(1)
        ts = make_ts(rng.standard_normal((4, n_samples)))

        def traced_peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rms_peak = traced_peak(moving_rms, ts)
        csv_peak = traced_peak(write_envelopes_csv, ts, tmp_path / "env.csv")
        assert csv_peak <= 1.05 * rms_peak
