import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convsep
from convsep.demix import PipelineConfig, apply_mimo_fir, demix_pipeline
from convsep.errors import ParameterError
from convsep.iva import IvaConfig
from convsep.spectral import (
    _FIR_BLOCK,
    _FIR_CHUNK_BLOCKS,
    DemixFilterBank,
    _mimo_fir,
    filters_to_freq,
    filters_to_time,
)
from convsep.sphering import apply_sphering

B = _FIR_BLOCK
CHUNK = _FIR_CHUNK_BLOCKS * _FIR_BLOCK


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

    def test_outputs_are_labelled_out(self, make_ts):
        # the outputs are demixed sources, not sensors: out1..outQ, the
        # columns envelopes.csv calls env_out1..
        ts = make_ts(np.zeros((3, 20)), sample_interval_s=2e-3)
        out = apply_mimo_fir(DemixFilterBank.identity(3, 4), ts)
        assert out.meta.channel_labels == ("out1", "out2", "out3")
        assert out.meta.sample_interval_s == 2e-3

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


class TestBlockToeplitzKernel:
    """spectral._mimo_fir at every block and chunk edge, against the
    quadruple-loop oracle, for square banks and the single-row (1, P, L)
    banks of refine.LaggedStatistics.output."""

    @pytest.mark.parametrize(
        "length, n",
        [
            (length, n)
            for length in (1, 2, 31, 32, 33, 64, 100)
            for n in sorted({1, length - 1, B - 1, B, B + 1, CHUNK - 1, CHUNK + 1} - {0})
        ],
    )
    def test_matches_naive_convolution(self, length, n):
        rng = np.random.default_rng(length * 10_000 + n)
        x = rng.standard_normal((2, n))
        coeffs = rng.standard_normal((2, 2, length))
        want = naive_mimo_fir(coeffs, x)
        tol = 1e-12 * np.max(np.abs(want))
        np.testing.assert_allclose(_mimo_fir(coeffs, x), want, rtol=1e-12, atol=tol)
        np.testing.assert_allclose(_mimo_fir(coeffs[:1], x), want[:1], rtol=1e-12, atol=tol)

    def test_filter_longer_than_a_chunk(self):
        # the window of one chunk reaches back past the chunk before it
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3 * CHUNK + 7))
        coeffs = rng.standard_normal((2, 2, CHUNK + 2 * B + 3))
        want = np.array(
            [sum(np.convolve(x[c], coeffs[r, c])[: x.shape[1]] for c in range(2)) for r in range(2)]
        )
        got = _mimo_fir(coeffs, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("length", [64, 100])
    def test_identity_and_pure_delays_exact(self, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal((3, 2 * CHUNK + 5))
        np.testing.assert_array_equal(_mimo_fir(DemixFilterBank.identity(3, length).coeffs, x), x)
        for d in (0, B - 1, B, B + 1, length - 1):
            coeffs = np.zeros((3, 3, length))
            coeffs[[0, 1, 2], [2, 0, 1], d] = 1.0
            out = _mimo_fir(coeffs, x)
            assert np.all(out[:, :d] == 0.0)
            np.testing.assert_array_equal(out[:, d:], x[[2, 0, 1], : x.shape[1] - d])
            np.testing.assert_array_equal(_mimo_fir(coeffs[:1], x), out[:1])

    def test_peak_memory_within_one_and_a_half_outputs(self, make_ts, traced_peak):
        # the tap matrix and one chunk's windows and products; the
        # np.convolve loop it replaced read 1.50x
        rng = np.random.default_rng(8)
        ts = make_ts(rng.standard_normal((4, 61_475)))
        bank = DemixFilterBank(rng.standard_normal((4, 4, 64)))
        assert traced_peak(apply_mimo_fir, bank, ts) <= 1.5 * ts.data.nbytes

    def test_output_bytes_independent_of_blas_threads(self):
        script = (
            "import hashlib, numpy as np\n"
            "from convsep.demix import apply_mimo_fir\n"
            "from convsep.signal import SignalMetadata, TimeSeries\n"
            "from convsep.spectral import DemixFilterBank\n"
            "rng = np.random.default_rng(9)\n"
            "ts = TimeSeries(rng.standard_normal((4, 61_475)), SignalMetadata(1e-3, tuple('abcd')))\n"
            "bank = DemixFilterBank(rng.standard_normal((4, 4, 64)))\n"
            "print(hashlib.sha1(apply_mimo_fir(bank, ts).data.tobytes()).hexdigest())\n"
        )
        src = str(Path(convsep.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 40 and digests[0] == digests[1]


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

    def test_peak_memory_within_two_frames_and_a_quarter_signal(self, traced_peak):
        # flagship seed 0 at 2 iterations: at the centering peak the
        # pipeline holds both frames and the sphered signal, and no
        # highpassed copy or array-sized check temporary beside them
        from convsep.simulate import build_scenario, respiratory_scenario

        mixed = build_scenario(respiratory_scenario(seed=0, duration_s=60.0)).mixed
        cfg = PipelineConfig(
            filter_length=64,
            dc_cutoff_hz=15.0,
            iva=IvaConfig(step_size=0.003, max_iterations=2),
        )
        blocks = (mixed.n_samples - cfg.n_bins) // cfg.filter_length + 1
        frames_bytes = mixed.n_channels * blocks * cfg.n_bins * 16
        peak = traced_peak(demix_pipeline, mixed, cfg)
        assert peak <= 2 * frames_bytes + 1.25 * mixed.data.nbytes

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ParameterError):
            PipelineConfig(filter_length=48)

    @pytest.mark.parametrize("length", [True, 64.0])
    def test_rejects_non_integer_length(self, length):
        # True would pass the power-of-two test as L = 1, 64.0 fail it with a TypeError
        with pytest.raises(ParameterError, match="must be an integer"):
            PipelineConfig(filter_length=length)
        assert PipelineConfig(filter_length=np.int64(64)).n_bins == 128

    @pytest.mark.parametrize(
        "cutoff",
        [0.0, -1.0, float("nan"), float("inf"), True, "15", pytest.param(10**400, id="int-1e400")],
    )
    def test_rejects_bad_cutoff(self, cutoff):
        # True would pass as 1 Hz, "15" fail the range test with a TypeError, and
        # an integer too large for a float pass it
        with pytest.raises(ParameterError, match="dc_cutoff_hz"):
            PipelineConfig(dc_cutoff_hz=cutoff)
        assert PipelineConfig(dc_cutoff_hz=np.float32(15.0)).dc_cutoff_hz == 15.0
