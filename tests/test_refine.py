import numpy as np
import pytest

from convsep.demix import PipelineConfig
from convsep.errors import ParameterError
from convsep.iva import IvaConfig, run_iva
from convsep.metrics import evaluate_separation
from convsep.refine import LaggedStatistics, block_contrast, refine_bank
from convsep.signal import highpass_dc_removal
from convsep.simulate import build_scenario, respiratory_scenario
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


class TestBlockContrast:
    def test_stationary_power_is_zero(self):
        assert block_contrast(np.ones(64), 8) == pytest.approx(0.0, abs=1e-12)

    def test_bursts_are_negative(self):
        y = np.zeros(64)
        y[:8] = 1.0
        assert block_contrast(y, 8) < -1.0


class TestRefineBank:
    def test_single_channel_unchanged(self):
        rng = np.random.default_rng(22)
        bank = DemixFilterBank(rng.standard_normal((1, 1, 4)))
        refined, trace = refine_bank(bank, rng.standard_normal((1, 200)))
        assert refined is bank
        assert trace.steps == ()

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
            assert trace.order == (0, 1)

    def test_singular_step_keeps_iva_row(self, monkeypatch):
        # two mixed bursty sources: output 0 is refined first and accepted
        rng = np.random.default_rng(2)
        gate = (rng.uniform(size=(2, 100)) < 0.3) + 0.01
        x = np.array([[1.0, 0.3], [0.3, 1.0]]) @ (
            rng.standard_normal((2, 4000)) * np.repeat(gate, 40, axis=1)
        )
        bank = DemixFilterBank.identity(2, 4)
        _, trace = refine_bank(bank, x)
        assert trace.order[0] == 0 and trace.accepted[0] and trace.steps[0] == 5

        solve, calls = np.linalg.solve, []

        def singular_second_step(a, b):
            calls.append(1)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_second_step)
        refined, trace = refine_bank(bank, x)
        assert len(calls) > 2  # the next output is still refined
        assert not trace.accepted[0] and trace.steps[0] == 1
        assert trace.contrast_after[0] == trace.contrast_before[0]
        np.testing.assert_array_equal(refined.coeffs[0], bank.coeffs[0])


def test_refinement_raises_ecg_output_sir():
    """The time-domain stage lifts the ECG output far above the IVA bank's
    block-edge ceiling on a short respiratory recording."""
    scenario = respiratory_scenario(seed=0, duration_s=12.0)
    sim = build_scenario(scenario)
    cfg = PipelineConfig(filter_length=32, dc_cutoff_hz=15.0, iva=IvaConfig(max_iterations=60))
    prepared = highpass_dc_removal(sim.mixed, cfg.dc_cutoff_hz)
    transform = compute_sphering(estimate_spatial_covariance(prepared))
    sphered = apply_sphering(transform, prepared)
    frames = center(stft(sphered, cfg.n_bins, cfg.filter_length, "zeropad"))
    iva_bank, _ = run_iva(frames, cfg.iva)
    refined, trace = refine_bank(iva_bank, sphered.data)

    def ecg_sir(bank):
        report = evaluate_separation(bank, transform, sim.images, dc_cutoff_hz=cfg.dc_cutoff_hz)
        ecg = scenario.source_kinds.index("ecg")
        return report.sir_db[report.assignment.index(ecg)]

    before, after = ecg_sir(iva_bank), ecg_sir(refined)
    assert any(trace.accepted)
    assert after >= before + 30.0, (before, after)
