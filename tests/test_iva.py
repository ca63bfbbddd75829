import csv
import dataclasses

import numpy as np
import pytest

import convsep.iva
from convsep.errors import NumericalDivergenceError, ParameterError, SingularFilterError
from convsep.iva import (
    ConvergenceTrace,
    IterationState,
    IvaConfig,
    broadband_norms,
    forward_pass,
    minimum_distortion,
    run_iva,
    score,
    update_step,
    write_trace_csv,
)
from convsep.signal import SignalMetadata, TimeSeries
from convsep.spectral import (
    DemixFilterBank,
    FrequencyFilterBank,
    SpectralFrames,
    center,
    filters_to_time,
    stft,
)


def frames_from(data, hop=1, window_id="rect"):
    meta = SignalMetadata(1e-3, tuple(f"ch{p + 1}" for p in range(data.shape[0])))
    return SpectralFrames(np.asarray(data, dtype=complex), hop, window_id, meta)


def mixture_frames(filter_length, n_samples=6000, seed=13):
    """Centered zeropad frames of a real 3-channel convolutive mixture of
    Laplacian sources, hop L."""
    rng = np.random.default_rng(seed)
    sources = rng.laplace(size=(3, n_samples))
    mixed = rng.standard_normal((3, 3)) @ sources
    mixed[:, 1:] += 0.5 * rng.standard_normal((3, 3)) @ sources[:, :-1]
    meta = SignalMetadata(1e-3, ("a", "b", "c"))
    return center(stft(TimeSeries(mixed, meta), 2 * filter_length, filter_length, "zeropad"))


def reference_iva(frames, cfg):
    """run_iva's loop on every bin through the per-step API; returns the
    frequency bank and both update-norm traces."""
    fb = FrequencyFilterBank.identity(frames.n_bins, frames.n_channels)
    mean_trace, max_trace = [], []
    outputs = frames
    for _ in range(cfg.max_iterations):
        state = IterationState(fb, outputs, broadband_norms(outputs), mean_trace)
        fb, mean_norm, max_norm = update_step(state, cfg)
        fb = minimum_distortion(fb)
        mean_trace.append(mean_norm)
        max_trace.append(max_norm)
        if mean_norm <= cfg.convergence_tol * mean_trace[0]:
            break
        outputs = forward_pass(fb, frames)
    return fb, mean_trace, max_trace


def naive_forward(response, data):
    """Per-bin matrix-vector loop oracle."""
    channels, blocks, bins_ = data.shape
    out = np.zeros_like(data)
    for v in range(bins_):
        for m in range(blocks):
            out[:, m, v] = response[v] @ data[:, m, v]
    return out


class TestIvaConfig:
    def test_defaults_valid(self):
        cfg = IvaConfig()
        assert 0 < cfg.step_size <= 1
        assert cfg.max_iterations >= 1
        assert cfg.norm_guard is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": -0.1},
            {"step_size": 1.5},
            {"max_iterations": 0},
            {"convergence_tol": -1e-3},
            {"norm_guard": 0.0},
            {"convergence_tol": float("nan")},
            {"convergence_tol": float("inf")},
            {"norm_guard": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            IvaConfig(**kwargs)


class TestForwardPass:
    def test_identity(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        frames = frames_from(data)
        out = forward_pass(FrequencyFilterBank.identity(4, 2), frames)
        np.testing.assert_array_equal(out.data, frames.data)

    def test_scaling(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        frames = frames_from(data)
        fb = FrequencyFilterBank(2.0 * np.tile(np.eye(2), (4, 1, 1)).astype(complex))
        out = forward_pass(fb, frames)
        np.testing.assert_array_equal(out.data, 2.0 * frames.data)

    def test_matches_naive_multiply(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        response = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        out = forward_pass(FrequencyFilterBank(response), frames_from(data))
        np.testing.assert_allclose(out.data, naive_forward(response, data), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            forward_pass(FrequencyFilterBank.identity(4, 3), frames_from(np.zeros((2, 3, 4), complex)))


class TestBroadbandNorms:
    def test_unit_magnitude(self):
        data = np.exp(1j * np.linspace(0, 3, 2 * 3 * 8)).reshape(2, 3, 8)
        norms = broadband_norms(frames_from(data))
        np.testing.assert_allclose(norms, np.ones((3, 2)), atol=1e-12)

    def test_zero_block(self):
        data = np.ones((1, 2, 4), dtype=complex)
        data[0, 1] = 0.0
        norms = broadband_norms(frames_from(data))
        np.testing.assert_allclose(norms[:, 0], [np.sqrt(1.0), 0.0], atol=1e-15)

    def test_single_nonzero_bin(self):
        m = 16
        c = 3.0
        data = np.zeros((1, 1, m), dtype=complex)
        data[0, 0, 5] = c
        norms = broadband_norms(frames_from(data))
        np.testing.assert_allclose(norms[0, 0], c / np.sqrt(m), atol=1e-14)

    def test_invariant_to_identical_bin_shuffle(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 5, 8)) + 1j * rng.standard_normal((3, 5, 8))
        perm = rng.permutation(8)
        a = broadband_norms(frames_from(data))
        b = broadband_norms(frames_from(data[:, :, perm]))
        # exact up to summation order (the permuted mean reorders additions)
        np.testing.assert_allclose(a, b, rtol=4e-16, atol=0)


class TestScore:
    def test_unit_norms_pass_through(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        frames = frames_from(data)
        norms = np.ones((3, 2))
        out = score(frames, norms, guard=1e-15)
        np.testing.assert_allclose(out.data, frames.data, rtol=1e-12)

    def test_zero_block_gives_zero(self):
        frames = frames_from(np.zeros((1, 2, 4), dtype=complex))
        out = score(frames, np.zeros((2, 1)), guard=1e-12)
        assert np.all(out.data == 0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        frames = frames_from(data)
        norms = broadband_norms(frames)
        guard = 1e-12
        base = score(frames, norms, guard).data
        scaled = score(frames_from(100.0 * data), broadband_norms(frames_from(100.0 * data)), guard).data
        np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-9)


class TestUpdateStep:
    def test_zero_step_is_noop(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        frames = frames_from(data)
        fb = FrequencyFilterBank(rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
        outputs = forward_pass(fb, frames)
        state = IterationState(fb, outputs, broadband_norms(outputs), [])
        new_fb, mean_norm, max_norm = update_step(state, IvaConfig(step_size=0.0))
        np.testing.assert_array_equal(new_fb.response, fb.response)
        assert mean_norm >= 0 and max_norm >= mean_norm

    def test_fixed_point_when_bracket_vanishes(self):
        # hand-constructed outputs with (1/N) sum Phi Y^H = I for M=1:
        # Y1 = [1, -1], Y2 = [1, 1] gives per-block sign scores whose
        # cross-products average to the identity.
        data = np.zeros((2, 2, 1), dtype=complex)
        data[0, :, 0] = [1.0, -1.0]
        data[1, :, 0] = [1.0, 1.0]
        outputs = frames_from(data)
        norms = broadband_norms(outputs)
        np.testing.assert_allclose(norms, np.ones((2, 2)), atol=1e-15)
        fb = FrequencyFilterBank(np.array([[[0.7, 0.2], [-0.1, 1.3]]], dtype=complex))
        state = IterationState(fb, outputs, norms, [])
        new_fb, mean_norm, _ = update_step(state, IvaConfig(step_size=0.5, norm_guard=1e-300))
        np.testing.assert_allclose(new_fb.response, fb.response, atol=1e-12)
        assert mean_norm < 1e-12

    def test_scalar_hand_computation(self):
        # P=1, M=1, one block, |Y|=2: b=2, Phi Y^H = 2, so W scales by 1+mu(1-2)
        data = np.full((1, 1, 1), 2.0, dtype=complex)
        outputs = frames_from(data)
        fb = FrequencyFilterBank(np.full((1, 1, 1), 1.0, dtype=complex))
        state = IterationState(fb, outputs, broadband_norms(outputs), [])
        mu = 0.3
        new_fb, _, _ = update_step(state, IvaConfig(step_size=mu, norm_guard=1e-300))
        np.testing.assert_allclose(new_fb.response[0, 0, 0], 1.0 - mu, atol=1e-12)

    def test_divergence_names_iteration_and_bin(self):
        data = np.full((1, 1, 1), 1e308, dtype=complex)
        outputs = frames_from(data)
        fb = FrequencyFilterBank(np.full((1, 1, 1), 1e308, dtype=complex))
        state = IterationState(fb, outputs, broadband_norms(outputs), [0.1, 0.2])
        with pytest.raises(NumericalDivergenceError) as err:
            update_step(state, IvaConfig(step_size=1.0, norm_guard=1e-300))
        assert err.value.iteration == 3
        assert err.value.bin_index == 0


class TestMinimumDistortion:
    def test_diagonal_becomes_identity(self):
        response = np.zeros((3, 2, 2), dtype=complex)
        response[:, 0, 0] = [2.0, 3.0, 0.5]
        response[:, 1, 1] = [4.0, -1.0, 2.5]
        out = minimum_distortion(FrequencyFilterBank(response))
        np.testing.assert_allclose(out.response, np.tile(np.eye(2), (3, 1, 1)), atol=1e-12)

    def test_identity_unchanged(self):
        fb = FrequencyFilterBank.identity(4, 3)
        np.testing.assert_allclose(minimum_distortion(fb).response, fb.response, atol=1e-15)

    def test_idempotent_on_random_matrices(self):
        # direct 3x3 random-matrix oracle for diag((DW)^-1) structure
        rng = np.random.default_rng(7)
        response = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        once = minimum_distortion(FrequencyFilterBank(response))
        twice = minimum_distortion(once)
        np.testing.assert_allclose(twice.response, once.response, atol=1e-12)

    def test_preserves_zero_pattern(self):
        response = np.array([[[1.5, 0.0], [0.4, 2.0]]], dtype=complex)
        out = minimum_distortion(FrequencyFilterBank(response))
        assert out.response[0, 0, 1] == 0.0
        assert out.response[0, 1, 0] != 0.0

    def test_singular_names_bin(self):
        response = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        response[2] = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularFilterError) as err:
            minimum_distortion(FrequencyFilterBank(response))
        assert err.value.bin_index == 2

    def test_non_finite_inverse_names_bin(self):
        # a subnormal bin inverts without a LinAlgError, to an infinite inverse
        response = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        response[1] *= 1e-310
        with pytest.raises(SingularFilterError) as err:
            minimum_distortion(FrequencyFilterBank(response))
        assert err.value.bin_index == 1


class TestRunIva:
    def test_single_channel_is_identity_after_mdp(self, make_ts):
        rng = np.random.default_rng(8)
        ts = make_ts(rng.standard_normal((1, 4000)))
        frames = center(stft(ts, 16, 8, "zeropad"))
        bank, trace = run_iva(frames, IvaConfig(max_iterations=20))
        np.testing.assert_allclose(bank.coeffs, DemixFilterBank.identity(1, 8).coeffs, atol=1e-12)
        assert trace.iterations == 20

    def test_independent_sources_keep_identity_bank(self, make_ts):
        rng = np.random.default_rng(9)
        ts = make_ts(rng.standard_normal((2, 20000)))
        frames = center(stft(ts, 16, 8, "zeropad"))
        bank, _ = run_iva(frames, IvaConfig(step_size=0.005, max_iterations=200))
        identity = DemixFilterBank.identity(2, 8)
        rel = np.linalg.norm(bank.coeffs - identity.coeffs) / np.linalg.norm(identity.coeffs)
        assert rel < 0.1

    def test_bin_shuffle_equivariance(self, make_ts):
        # the coupling acts only through b: per-bin updates commute with
        # an identical bin permutation
        rng = np.random.default_rng(10)
        ts = make_ts(rng.standard_normal((2, 2000)))
        frames = center(stft(ts, 8, 4, "rect"))
        perm = rng.permutation(8)
        shuffled = frames.with_data(frames.data[:, :, perm])

        def iterate(fr, n_iter=5):
            fb = FrequencyFilterBank.identity(fr.n_bins, fr.n_channels)
            cfg = IvaConfig(step_size=0.01, norm_guard=1e-14)
            for _ in range(n_iter):
                outputs = forward_pass(fb, fr)
                state = IterationState(fb, outputs, broadband_norms(outputs), [])
                fb, _, _ = update_step(state, cfg)
                fb = minimum_distortion(fb)
            return fb.response

        base = iterate(frames)
        moved = iterate(shuffled)
        np.testing.assert_allclose(moved, base[perm], atol=1e-12)

    def test_stopping_rule_fires(self):
        frames = mixture_frames(8)
        cfg = IvaConfig(step_size=0.05, max_iterations=30, convergence_tol=0.0)
        _, full = run_iva(frames, cfg)
        assert not full.converged and full.iterations == 30
        norms = full.mean_update_norm
        tol = norms[20] / norms[0]
        # the loop's own comparison, since (a / b) * b can round below a
        k = next(i for i, n in enumerate(norms) if n <= tol * norms[0])
        assert k > 0
        _, trace = run_iva(frames, dataclasses.replace(cfg, convergence_tol=tol))
        assert trace.converged
        assert trace.iterations == k + 1 == len(trace.max_update_norm)
        assert trace.mean_update_norm == norms[: k + 1]
        _, once = run_iva(frames, dataclasses.replace(cfg, convergence_tol=1.0))
        assert once.converged and once.iterations == 1

    def test_requires_two_blocks(self, make_ts):
        frames = stft(make_ts(np.ones((1, 8))), 8, 8)
        with pytest.raises(ParameterError):
            run_iva(frames, IvaConfig())

    def test_divergence_propagates(self, make_ts):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((2, 4000))
        data[0] *= 1e9
        frames = center(stft(make_ts(data), 16, 8, "zeropad"))
        with pytest.raises(NumericalDivergenceError):
            run_iva(frames, IvaConfig(step_size=1.0, max_iterations=50))

    def test_orthogonal_instantaneous_laplacian_mixture(self, make_ts):
        # simulation + metrics oracle: 2x2 rotation of independent
        # Laplacian sources, L=2
        from convsep.demix import PipelineConfig, demix_pipeline
        from convsep.metrics import evaluate_separation
        from convsep.signal import SignalMetadata

        rng = np.random.default_rng(12)
        n = 60000
        sources = rng.laplace(size=(2, n))
        theta = np.deg2rad(35.0)
        mixing = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        mixed = make_ts(mixing @ sources)
        images = [
            TimeSeries(np.outer(mixing[:, q], sources[q]), SignalMetadata(1e-3, ("a", "b")))
            for q in range(2)
        ]
        cfg = PipelineConfig(filter_length=2, iva=IvaConfig(step_size=0.05, max_iterations=300))
        result = demix_pipeline(mixed, cfg)
        report = evaluate_separation(result.bank, result.sphering, images)
        assert min(report.sir_db) > 20.0


class TestHalfSpectrumLoop:
    @pytest.mark.parametrize("filter_length", [8, 1])
    @pytest.mark.parametrize("iterations", [1, 5, 20])
    def test_matches_reference_loop(self, filter_length, iterations):
        frames = mixture_frames(filter_length)
        cfg = IvaConfig(step_size=0.05, max_iterations=iterations)
        bank, trace = run_iva(frames, cfg)
        ref_fb, ref_mean, ref_max = reference_iva(frames, cfg)
        ref_bank = filters_to_time(ref_fb, filter_length)
        rel = np.linalg.norm(bank.coeffs - ref_bank.coeffs) / np.linalg.norm(ref_bank.coeffs)
        assert rel <= 1e-12
        assert trace.iterations == iterations
        np.testing.assert_allclose(trace.mean_update_norm, ref_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.max_update_norm, ref_max, rtol=1e-12, atol=0)
        # the reference bank's energy past lag L - 1, which the causal readout drops
        impulse = np.abs(np.fft.ifft(ref_fb.response, axis=0)) ** 2
        ref_late = np.sum(impulse[filter_length:]) / np.sum(impulse)
        assert trace.discarded_lag_energy == pytest.approx(ref_late, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("filter_length", [8, 1])
    @pytest.mark.parametrize("iterations", [1, 5, 20])
    def test_multi_chunk_pass_matches_reference_loop(self, monkeypatch, filter_length, iterations):
        # the default chunk holds all of mixture_frames; 4096 bytes splits it
        # into 84 chunks at L = 8 and 71 at L = 1, the last one short
        monkeypatch.setattr(convsep.iva, "_CHUNK_BYTES", 4096)
        self.test_matches_reference_loop(filter_length, iterations)

    def test_rejects_non_symmetric_frames(self):
        rng = np.random.default_rng(14)
        data = rng.standard_normal((2, 5, 8)) + 1j * rng.standard_normal((2, 5, 8))
        with pytest.raises(ParameterError, match="conjugate-symmetric"):
            run_iva(frames_from(data), IvaConfig(max_iterations=1))

    def test_rejects_complex_dc_bin(self):
        frames = mixture_frames(4)
        data = frames.data.copy()
        data[1, 3, 0] += 1e-3j * np.max(np.abs(data))
        with pytest.raises(ParameterError, match="bin 0"):
            run_iva(frames.with_data(data), IvaConfig(max_iterations=1))

    def test_calls_each_step_once_per_iteration(self, monkeypatch):
        # perfbench counts iterations by update_step calls and splits the
        # loop's time by the step functions it wraps at module level
        calls = {"update_step": 0, "minimum_distortion": 0}
        for name in calls:

            def counted(*args, _name=name, _step=getattr(convsep.iva, name)):
                calls[_name] += 1
                return _step(*args)

            monkeypatch.setattr(convsep.iva, name, counted)
        run_iva(mixture_frames(8), IvaConfig(step_size=0.05, max_iterations=7))
        assert calls == {"update_step": 7, "minimum_distortion": 7}

    @pytest.mark.parametrize("filter_length", [1, 64])
    def test_peak_memory_below_reference_loop(self, traced_peak, filter_length):
        frames = mixture_frames(filter_length, n_samples=1 << 16)
        cfg = IvaConfig(step_size=0.05, max_iterations=3)
        assert traced_peak(run_iva, frames, cfg) < traced_peak(reference_iva, frames, cfg)

    @pytest.mark.parametrize("filter_length, bound", [(1, 2.0), (64, 1.0)])
    def test_peak_memory_below_frames_multiple(self, traced_peak, filter_length, bound):
        # one chunked pass per iteration holds no outputs array of the
        # frames' size; at L = 1 the kept bins are also real
        frames = mixture_frames(filter_length, n_samples=1 << 16)
        peak = traced_peak(run_iva, frames, IvaConfig(step_size=0.05, max_iterations=3))
        assert peak < bound * frames.data.nbytes

    @pytest.mark.parametrize("filter_length, dtype", [(1, np.float64), (8, np.complex128)])
    def test_iterates_real_only_when_kept_bins_are_real(self, monkeypatch, filter_length, dtype):
        # at L = 1 the kept bins are DC and Nyquist, exactly real
        seen = []
        step = convsep.iva.update_step

        def spy(state, cfg):
            seen.append(state.filters.response.dtype)
            return step(state, cfg)

        monkeypatch.setattr(convsep.iva, "update_step", spy)
        run_iva(mixture_frames(filter_length), IvaConfig(step_size=0.05, max_iterations=3))
        assert seen == [np.dtype(dtype)] * 3


def csv_writer_trace(trace, path):
    """The convergence CSV as first built, one csv.writer row per iteration."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean_update_norm", "max_update_norm"])
        rows = zip(trace.mean_update_norm, trace.max_update_norm)
        for i, (mean_norm, max_norm) in enumerate(rows, start=1):
            writer.writerow([i, repr(mean_norm), repr(max_norm)])


class TestWriteTraceCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        # 1,200 rows from the smallest subnormal to 1.2e19, with exact
        # zeros, fixed-point and exponent forms
        rng = np.random.default_rng(12)
        values = 10.0 ** rng.uniform(-323.0, 19.0, 2400) * rng.uniform(0.5, 1.2, 2400)
        values[:4] = [5e-324, 0.0, 1.2e19, 0.5]
        norms = values.reshape(2, -1).tolist()
        trace = ConvergenceTrace(norms[0], norms[1], converged=False)
        write_trace_csv(trace, tmp_path / "rows.csv")
        csv_writer_trace(trace, tmp_path / "writer.csv")
        got = (tmp_path / "rows.csv").read_bytes()
        assert got == (tmp_path / "writer.csv").read_bytes()
        assert got.count(b"\r\n") == 1201
        assert b"5e-324" in got and b"e+19" in got
