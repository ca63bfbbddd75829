import numpy as np
import pytest

from convsep.demix import PipelineConfig
from convsep.errors import ParameterError
from convsep.iva import IvaConfig, run_iva
from convsep.metrics import evaluate_separation
from convsep.refine import LaggedStatistics, block_contrast, refine_bank
from convsep.signal import highpass_dc_removal
from convsep.simulate import build_scenario, delayed_pair_scenario, respiratory_scenario
from convsep.spectral import DemixFilterBank, center, stft
from convsep.sphering import apply_sphering, compute_sphering, estimate_spatial_covariance


def naive_lagged_covariance(x, length, weights):
    """(1/N) sum_n w(n) X(n) X(n)^T with X(n) = [x_p(n - k)], zeros before 0."""
    p, n = x.shape
    out = np.zeros((p * length, p * length))
    for t in range(n):
        lagged = np.array(
            [x[c, t - k] if t - k >= 0 else 0.0 for c in range(p) for k in range(length)]
        )
        out += weights[t] * np.outer(lagged, lagged)
    return out / n


class TestLaggedStatistics:
    @pytest.mark.parametrize(
        "p,n,length,block",
        [(2, 90, 4, 8), (3, 61, 3, 7), (2, 40, 1, 1), (2, 50, 9, 4), (1, 7, 8, 3)],
    )
    def test_matches_naive_sum(self, p, n, length, block):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((p, n))
        stats = LaggedStatistics(x, length, block)
        phi = rng.uniform(0.1, 3.0, stats.n_blocks)
        weights = np.repeat(phi, block)[:n]
        np.testing.assert_allclose(
            stats.covariance(phi), naive_lagged_covariance(x, length, weights), atol=1e-12
        )
        np.testing.assert_allclose(
            stats.covariance(), naive_lagged_covariance(x, length, np.ones(n)), atol=1e-12
        )

    def test_output_is_causal_fir(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 50))
        row = rng.standard_normal(2 * 4)
        stats = LaggedStatistics(x, 4, 5)
        taps = row.reshape(2, 4)
        want = sum(np.convolve(x[c], taps[c])[:50] for c in range(2))
        np.testing.assert_allclose(stats.output(row), want, atol=1e-12)

    def test_rejects_wrong_weight_count(self):
        stats = LaggedStatistics(np.ones((2, 10)), 2, 4)
        with pytest.raises(ParameterError):
            stats.covariance(np.ones(2))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: LaggedStatistics(np.ones(10), 2, 4), "channels, samples"),
        (lambda: LaggedStatistics(np.ones((2, 10)), 0, 4), ">= 1"),
        (lambda: LaggedStatistics(np.ones((2, 10)), 2, 0), ">= 1"),
        (lambda: refine_bank(DemixFilterBank.identity(2, 4), np.ones((3, 100))), "signal has 3"),
    ],
    ids=["stats-1d-signal", "stats-zero-length", "stats-zero-block", "refine-channel-mismatch"],
)
def test_rejects_malformed_arguments(call, match):
    with pytest.raises(ParameterError, match=match):
        call()


class TestBlockContrast:
    def test_stationary_power_is_zero(self):
        assert block_contrast(np.ones(64), 8) == pytest.approx(0.0, abs=1e-12)

    def test_bursts_are_negative(self):
        y = np.zeros(64)
        y[:8] = 1.0
        assert block_contrast(y, 8) < -1.0


def bursty_mixture():
    """Two sources gated on and off per 40-sample block, mixed 1 : 0.3."""
    rng = np.random.default_rng(2)
    gate = (rng.uniform(size=(2, 100)) < 0.3) + 0.01
    return np.array([[1.0, 0.3], [0.3, 1.0]]) @ (
        rng.standard_normal((2, 4000)) * np.repeat(gate, 40, axis=1)
    )


class TestRefineBank:
    def test_single_channel_unchanged(self):
        rng = np.random.default_rng(22)
        bank = DemixFilterBank(rng.standard_normal((1, 1, 4)))
        refined, trace = refine_bank(bank, rng.standard_normal((1, 200)))
        assert refined is bank
        assert trace.steps == 0 and not trace.accepted

    def test_deterministic_and_ties_keep_index_order(self):
        # a signal and its time reversal: equal block contrasts up to
        # rounding, in either channel order
        rng = np.random.default_rng(23)
        s = rng.standard_normal(4000) * np.repeat(rng.uniform(0.1, 2.0, 100), 40)
        bank = DemixFilterBank.identity(2, 4)
        for x in (np.stack([s, s[::-1]]), np.stack([s[::-1], s])):
            first, trace = refine_bank(bank, x)
            second, _ = refine_bank(bank, x)
            assert first.coeffs.tobytes() == second.coeffs.tobytes()
            assert trace.output == 0

    def test_row_the_steps_leave_in_place_is_not_accepted(self):
        # the channel-target row is a fixed point of the step: the refined
        # row differs from it by rounding only, which is no contrast drop
        x = bursty_mixture()
        bank = DemixFilterBank.identity(2, 4)
        refined, trace = refine_bank(bank, x)
        assert trace.output == 0 and trace.steps == 5 and not trace.accepted
        assert trace.contrast_after == trace.contrast_before[0]
        assert refined is bank

    def test_singular_step_keeps_iva_row(self, monkeypatch):
        # output 0 reads source 0 through 0.3 of channel 1; the steps move
        # it back to channel 0, and that row is accepted
        x = bursty_mixture()
        coeffs = np.zeros((2, 2, 4))
        coeffs[:, :, 0] = [[1.0, 0.3], [0.3, 1.0]]
        bank = DemixFilterBank(coeffs)
        moved, trace = refine_bank(bank, x)
        assert trace.output == 0 and trace.accepted and trace.steps == 5
        assert np.abs(moved.coeffs[0] - bank.coeffs[0]).max() > 0.1

        solve, calls = np.linalg.solve, []

        def singular_second_step(a, b):
            calls.append(1)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_second_step)
        refined, trace = refine_bank(bank, x)
        assert len(calls) == 2  # the steps stop at the failed solve
        assert not trace.accepted and trace.steps == 1
        assert trace.contrast_after == trace.contrast_before[0]
        assert refined is bank


def iva_then_refine(scenario, cfg):
    """The pipeline's stages up to the refinement, on one simulated mixture."""
    sim = build_scenario(scenario)
    prepared = highpass_dc_removal(sim.mixed, cfg.dc_cutoff_hz)
    transform = compute_sphering(estimate_spatial_covariance(prepared))
    sphered = apply_sphering(transform, prepared)
    frames = center(stft(sphered, cfg.n_bins, cfg.filter_length, "zeropad"))
    iva_bank, _ = run_iva(frames, cfg.iva)
    return sim, transform, iva_bank, *refine_bank(iva_bank, sphered.data)


@pytest.fixture(scope="module")
def short_respiratory():
    scenario = respiratory_scenario(seed=0, duration_s=12.0)
    cfg = PipelineConfig(filter_length=32, dc_cutoff_hz=15.0, iva=IvaConfig(max_iterations=60))
    return scenario, cfg, *iva_then_refine(scenario, cfg)


def test_refinement_raises_ecg_output_sir(short_respiratory):
    """The time-domain stage lifts the ECG output far above the IVA bank's
    block-edge ceiling on a short respiratory recording."""
    scenario, cfg, sim, transform, iva_bank, refined, trace = short_respiratory

    def ecg_sir(bank):
        report = evaluate_separation(bank, transform, sim.images, dc_cutoff_hz=cfg.dc_cutoff_hz)
        ecg = scenario.source_kinds.index("ecg")
        return report.sir_db[report.assignment.index(ecg)]

    before, after = ecg_sir(iva_bank), ecg_sir(refined)
    assert trace.accepted
    assert after >= before + 30.0, (before, after)


def test_only_the_most_nonstationary_output_is_refined(short_respiratory):
    *_, iva_bank, refined, trace = short_respiratory
    assert trace.output == int(np.argmin(trace.contrast_before))
    assert trace.accepted and trace.contrast_after < trace.contrast_before[trace.output]
    for q in range(iva_bank.n_channels):
        if q != trace.output:
            assert refined.coeffs[q].tobytes() == iva_bank.coeffs[q].tobytes()


@pytest.mark.parametrize("filter_length", [1, 64])
def test_delayed_pair_keeps_the_iva_bank(filter_length):
    """At the pair's two filter lengths in criterion 2, the refined output
    comes out more stationary than the IVA output, so it is not accepted."""
    cfg = PipelineConfig(
        filter_length=filter_length,
        dc_cutoff_hz=15.0,
        iva=IvaConfig(step_size=0.02, max_iterations=40),
    )
    scenario = delayed_pair_scenario(seed=0, duration_s=20.0)
    *_, iva_bank, refined, trace = iva_then_refine(scenario, cfg)
    assert trace.output == int(np.argmin(trace.contrast_before))
    assert trace.steps == 5 and not trace.accepted
    assert trace.contrast_after == trace.contrast_before[trace.output]
    assert refined is iva_bank
