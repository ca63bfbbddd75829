import numpy as np
import pytest

from convsep.demix import PipelineConfig, apply_mimo_fir, demix_pipeline
from convsep.errors import ParameterError
from convsep.iva import IvaConfig
from convsep.spectral import DemixFilterBank, filters_to_freq, filters_to_time
from convsep.sphering import apply_sphering


def naive_mimo_fir(coeffs, data):
    """Quadruple-loop convolution oracle with zero initial state."""
    q_count, p_count, length = coeffs.shape
    n = data.shape[1]
    out = np.zeros((q_count, n))
    for q in range(q_count):
        for p in range(p_count):
            for k in range(length):
                for t in range(n):
                    if t - k >= 0:
                        out[q, t] += coeffs[q, p, k] * data[p, t - k]
    return out


class TestApplyMimoFir:
    def test_identity_bank(self, make_ts):
        rng = np.random.default_rng(0)
        ts = make_ts(rng.standard_normal((3, 50)))
        out = apply_mimo_fir(DemixFilterBank.identity(3, 4), ts)
        np.testing.assert_array_equal(out.data, ts.data)

    def test_pure_delay(self, make_ts):
        rng = np.random.default_rng(1)
        ts = make_ts(rng.standard_normal((2, 30)))
        d = 3
        coeffs = np.zeros((2, 2, 8))
        coeffs[0, 0, d] = 1.0
        coeffs[1, 1, d] = 1.0
        out = apply_mimo_fir(DemixFilterBank(coeffs), ts)
        assert np.all(out.data[:, :d] == 0.0)
        np.testing.assert_array_equal(out.data[:, d:], ts.data[:, :-d])

    def test_matches_naive_convolution(self, make_ts):
        rng = np.random.default_rng(2)
        ts = make_ts(rng.standard_normal((2, 64)))
        coeffs = rng.standard_normal((2, 2, 4))
        out = apply_mimo_fir(DemixFilterBank(coeffs), ts)
        np.testing.assert_allclose(out.data, naive_mimo_fir(coeffs, ts.data), atol=1e-12)

    def test_channel_mismatch(self, make_ts):
        with pytest.raises(ParameterError):
            apply_mimo_fir(DemixFilterBank.identity(3, 4), make_ts(np.zeros((2, 10))))

    def test_time_invariance(self, make_ts):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 80))
        coeffs = rng.standard_normal((2, 2, 6))
        bank = DemixFilterBank(coeffs)
        shift = 7
        shifted = np.zeros_like(x)
        shifted[:, shift:] = x[:, :-shift]
        out = apply_mimo_fir(bank, make_ts(x)).data
        out_shifted = apply_mimo_fir(bank, make_ts(shifted)).data
        # exact up to accumulation order inside the convolution
        np.testing.assert_allclose(out_shifted[:, shift:], out[:, :-shift], rtol=0, atol=1e-14)

    def test_consistent_with_filter_transforms(self, make_ts):
        rng = np.random.default_rng(4)
        ts = make_ts(rng.standard_normal((2, 100)))
        bank = DemixFilterBank(rng.standard_normal((2, 2, 8)))
        roundtrip = filters_to_time(filters_to_freq(bank), 8)
        a = apply_mimo_fir(bank, ts).data
        b = apply_mimo_fir(roundtrip, ts).data
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_length_one_is_matrix_multiply(self, make_ts):
        rng = np.random.default_rng(5)
        ts = make_ts(rng.standard_normal((3, 40)))
        w = rng.standard_normal((3, 3))
        out = apply_mimo_fir(DemixFilterBank(w[:, :, None]), ts)
        np.testing.assert_allclose(out.data, w @ ts.data, atol=1e-12)


class TestPipeline:
    def test_single_channel_returns_sphered_input(self, make_ts):
        rng = np.random.default_rng(6)
        ts = make_ts(rng.standard_normal((1, 5000)))
        cfg = PipelineConfig(filter_length=8, iva=IvaConfig(max_iterations=10))
        result = demix_pipeline(ts, cfg)
        sphered = apply_sphering(result.sphering, ts)
        np.testing.assert_array_equal(result.separated.data, sphered.data)
        power = np.mean(sphered.data**2)
        np.testing.assert_allclose(power, 1.0, rtol=1e-8)

    def test_nearly_separated_mixture_no_harm(self, make_ts):
        # finite input SIR (-35 dB crosstalk); the pipeline must not degrade it
        from convsep.metrics import evaluate_separation, input_sir
        from convsep.simulate import build_scenario, delayed_pair_scenario

        scenario = delayed_pair_scenario(
            seed=0, duration_s=40.0, lateral_attenuation=5.0, kernel_gain_jitter=0.0
        )
        sim = build_scenario(scenario)
        cfg = PipelineConfig(
            filter_length=16,
            iva=IvaConfig(step_size=0.005, max_iterations=100),
        )
        result = demix_pipeline(sim.mixed, cfg)
        report = evaluate_separation(result.bank, result.sphering, sim.images)
        in_sir = input_sir(sim.images, transient=16)
        assert np.mean(report.sir_db) >= np.mean(in_sir) - 1.0

    def test_diagonal_mixture_keeps_high_sir(self, make_ts):
        # a perfectly separated input caps input SIR at +100 dB, which no
        # blind update can preserve exactly; assert the output stays clean
        from convsep.metrics import evaluate_separation
        from convsep.simulate import build_scenario, diagonal_scenario

        sim = build_scenario(diagonal_scenario(seed=0, duration_s=40.0))
        cfg = PipelineConfig(
            filter_length=16,
            iva=IvaConfig(step_size=0.005, max_iterations=100),
        )
        result = demix_pipeline(sim.mixed, cfg)
        report = evaluate_separation(result.bank, result.sphering, sim.images)
        assert min(report.sir_db) > 40.0

    def test_sphering_disabled_keeps_identity_transform(self, make_ts):
        rng = np.random.default_rng(7)
        ts = make_ts(rng.standard_normal((2, 3000)))
        cfg = PipelineConfig(filter_length=8, sphering=False, iva=IvaConfig(max_iterations=5))
        result = demix_pipeline(ts, cfg)
        np.testing.assert_array_equal(result.sphering.matrix, np.eye(2))

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ParameterError):
            PipelineConfig(filter_length=48)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(ParameterError, match="dc_cutoff_hz"):
            PipelineConfig(dc_cutoff_hz=cutoff)
