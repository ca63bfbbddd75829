import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

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


def frames_from(data):
    return SpectralFrames(np.asarray(data, dtype=complex))


def mixture_frames(filter_length, channels=3, n_samples=6000, seed=13):
    """Centered zeropad frames of a real convolutive mixture of Laplacian
    sources, one per channel, hop L."""
    rng = np.random.default_rng(seed)
    sources = rng.laplace(size=(channels, n_samples))
    mixed = rng.standard_normal((channels, channels)) @ sources
    mixed[:, 1:] += 0.5 * rng.standard_normal((channels, channels)) @ sources[:, :-1]
    meta = SignalMetadata(1e-3, tuple("abcd"[:channels]))
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


def stacked_float64(data):
    """run_iva's mixture layout built in float64 from (channels, blocks, M)
    frames: bins 0..M/2 as one C-ordered (bins, K * channels, blocks)
    array, rows [Re X; Im X], or X alone when every kept bin is real."""
    kept = data[:, :, : data.shape[2] // 2 + 1].transpose(2, 0, 1)
    parts = (kept.real, kept.imag) if np.any(kept.imag) else (kept.real,)
    return np.ascontiguousarray(np.concatenate(parts, axis=1))


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": -0.1},
            {"step_size": 1.5},
            {"max_iterations": 0},
            {"convergence_tol": -1e-3},
            {"convergence_tol": float("nan")},
            {"convergence_tol": float("inf")},
            {"step_size": float("nan")},
            {"max_iterations": 2.5},
            {"max_iterations": 200.0},
            {"max_iterations": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            IvaConfig(**kwargs)


FRAMES_2CH = frames_from(np.ones((2, 3, 4)))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: score(FRAMES_2CH, np.ones((2, 3)), 0.0), "norms shape"),
        (lambda: score(FRAMES_2CH, -np.ones((3, 2)), 0.0), "non-negative"),
        (lambda: run_iva(frames_from(np.ones((2, 3, 1))), IvaConfig()), "even"),
    ],
    ids=["score-norms-shape", "score-negative-norms", "run_iva-odd-bins"],
)
def test_rejects_malformed_arguments(call, match):
    with pytest.raises(ParameterError, match=match):
        call()


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
        new_fb, mean_norm, _ = update_step(state, IvaConfig(step_size=0.5))
        np.testing.assert_allclose(new_fb.response, fb.response, atol=1e-12)
        assert mean_norm < 1e-12

    def test_scalar_hand_computation(self):
        # P=1, M=1, one block, |Y|=2: b=2, Phi Y^H = 2, so W scales by 1+mu(1-2)
        data = np.full((1, 1, 1), 2.0, dtype=complex)
        outputs = frames_from(data)
        fb = FrequencyFilterBank(np.full((1, 1, 1), 1.0, dtype=complex))
        state = IterationState(fb, outputs, broadband_norms(outputs), [])
        mu = 0.3
        new_fb, _, _ = update_step(state, IvaConfig(step_size=mu))
        np.testing.assert_allclose(new_fb.response[0, 0, 0], 1.0 - mu, atol=1e-12)

    def test_divergence_names_iteration_and_bin(self):
        # |Y| = 1e150 keeps the norm finite; the bracket 1 - 1e150 times the
        # 1e308 bank overflows
        data = np.full((1, 1, 1), 1e150, dtype=complex)
        outputs = frames_from(data)
        fb = FrequencyFilterBank(np.full((1, 1, 1), 1e308, dtype=complex))
        state = IterationState(fb, outputs, broadband_norms(outputs), [0.1, 0.2])
        with pytest.raises(NumericalDivergenceError) as err:
            update_step(state, IvaConfig(step_size=1.0))
        assert err.value.iteration == 3
        assert err.value.bin_index == 0

    @staticmethod
    def frames_state(fb, norms=True):
        outputs = frames_from(np.random.default_rng(7).standard_normal((2, 3, 8)))
        return IterationState(fb, outputs, broadband_norms(outputs) if norms else None, [])

    def test_rejects_bank_of_other_bin_count(self):
        # a 1-bin bank would broadcast over the 8 bins and return an 8-bin bank
        state = self.frames_state(FrequencyFilterBank.identity(1, 2))
        with pytest.raises(ParameterError, match="1 bins x 2 channels"):
            update_step(state, IvaConfig())

    def test_rejects_frames_without_norms(self):
        state = self.frames_state(FrequencyFilterBank.identity(8, 2), norms=False)
        with pytest.raises(ParameterError, match=r"got shape \(\)"):
            update_step(state, IvaConfig())

    def test_rejects_negative_norms(self):
        state = self.frames_state(FrequencyFilterBank.identity(8, 2))
        state.norms = -state.norms
        with pytest.raises(ParameterError, match="non-negative"):
            update_step(state, IvaConfig())

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_norms(self, bad):
        # a block at 1e160 overflows its broadband norm to inf; taken as given,
        # it zeroes that block's score while the others still multiply its
        # outputs, and the update comes back finite but off by about 1e158
        data = np.random.default_rng(17).standard_normal((2, 5, 4))
        data[:, 2] = 1e160
        outputs = frames_from(data)
        norms = broadband_norms(outputs)
        assert np.all(np.isinf(norms[2]))
        norms[2, 1] = bad
        state = IterationState(FrequencyFilterBank.identity(4, 2), outputs, norms, [])
        with pytest.raises(ParameterError, match="finite and non-negative"):
            update_step(state, IvaConfig(step_size=0.1))
        with pytest.raises(ParameterError, match="finite and non-negative"):
            score(outputs, norms, 0.0)

    def test_accepts_list_norms(self):
        # as score does: the norms are read through np.asarray
        state = self.frames_state(FrequencyFilterBank.identity(8, 2))
        cfg = IvaConfig(step_size=0.1)
        expected_fb, *expected = update_step(state, cfg)
        state.norms = state.norms.tolist()
        new_fb, *norms = update_step(state, cfg)
        np.testing.assert_array_equal(new_fb.response, expected_fb.response)
        assert norms == expected

    def test_rejects_complex_mixture(self):
        # the (bins, channels, blocks) complex layout has the bank's row count
        # at K = 1, but a complex bank reads rows as [Re X; Im X]
        mixture = np.ones((5, 2, 7), dtype=complex)
        state = IterationState(FrequencyFilterBank.identity(5, 2), mixture, None, [])
        with pytest.raises(ParameterError, match=r"\(5, 4, blocks\), got complex128 \(5, 2, 7\)"):
            update_step(state, IvaConfig())

    def test_rejects_mixture_rows_other_than_parts_times_channels(self):
        # a float64 bank needs X alone: one row per channel
        bank = FrequencyFilterBank(np.tile(np.eye(2), (2, 1, 1)))
        state = IterationState(bank, np.ones((2, 4, 7)), None, [])
        with pytest.raises(ParameterError, match=r"\(2, 2, 2\) needs .* \(2, 2, blocks\), got float64 \(2, 4, 7\)"):
            update_step(state, IvaConfig())

    @pytest.mark.parametrize("dtype", [np.float16, np.complex64, np.int64])
    def test_rejects_mixture_dtype_other_than_float32_or_float64(self, dtype):
        state = IterationState(FrequencyFilterBank.identity(3, 2), np.ones((3, 4, 7), dtype), None, [])
        name = np.dtype(dtype).name
        with pytest.raises(ParameterError, match=rf"float32 or float64 .*, got {name} \(3, 4, 7\)"):
            update_step(state, IvaConfig())

    @pytest.mark.parametrize("parts", [2, 1])
    def test_float32_mixture_returns_float64_bank_and_trace(self, parts):
        # the chunk pass runs in the mixture's dtype; the bank it updates
        # (complex128 for [Re X; Im X], float64 for X alone) and the trace
        # entries stay double, and match the float64 mixture's to float32
        rng = np.random.default_rng(15)
        response = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        bank = FrequencyFilterBank(response if parts == 2 else response.real)
        mixture = rng.standard_normal((5, 2 * parts, 300))
        cfg = IvaConfig(step_size=0.1)
        ref_fb, *ref_norms = update_step(IterationState(bank, mixture, None, []), cfg)
        new_fb, *norms = update_step(IterationState(bank, mixture.astype(np.float32), None, []), cfg)
        assert new_fb.response.dtype == bank.response.dtype
        assert all(type(norm) is float for norm in norms)
        np.testing.assert_allclose(new_fb.response, ref_fb.response, rtol=1e-6)
        np.testing.assert_allclose(norms, ref_norms, rtol=1e-6)

    @pytest.mark.parametrize("dtype, loud", [(np.float32, 1e20), (np.float64, 1e160)])
    def test_overflowing_block_norm_names_iteration_and_bin(self, dtype, loud):
        # a block past the dtype's overflow threshold of its squared norm
        # (about 1.8e19 in float32, 1.3e154 in float64) would get infinite
        # norms, zero scores, and drop out of the mean unnoticed
        mixture = np.random.default_rng(16).standard_normal((5, 4, 9)).astype(dtype)
        mixture[3, :, 6] = loud
        state = IterationState(FrequencyFilterBank.identity(5, 2), mixture, None, [0.1])
        with pytest.raises(NumericalDivergenceError) as err:
            update_step(state, IvaConfig())
        assert (err.value.iteration, err.value.bin_index) == (2, 3)


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

    @staticmethod
    def conditioned_bank(condition):
        # diag(1, 1/c) inverts exactly, and ||W||_F ||W^-1||_F is
        # sqrt(c^2 + 2 + 1/c^2), c to within 1e-28 here
        response = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        response[2, 1, 1] = 1.0 / condition
        return FrequencyFilterBank(response)

    @pytest.mark.parametrize("condition", [1e14 * (1 + 1e-6), 1e160], ids=["just-past", "overflowing"])
    def test_condition_past_ceiling_names_bin(self, condition):
        # at 1e160 the squared norms overflow, which is past the ceiling too
        with pytest.raises(SingularFilterError) as err:
            minimum_distortion(self.conditioned_bank(condition))
        assert err.value.bin_index == 2

    def test_condition_below_ceiling_passes(self):
        out = minimum_distortion(self.conditioned_bank(1e14 * (1 - 1e-6)))
        np.testing.assert_allclose(out.response, np.tile(np.eye(2), (4, 1, 1)), rtol=1e-12, atol=0)


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
            cfg = IvaConfig(step_size=0.01)
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
    def test_matches_reference_loop(self, monkeypatch, filter_length, iterations):
        # the float64 instantiation of run_iva's chunk pass: the same loop
        # on a float64 mixture built from the frames. 4 channels is the
        # flagship's count; there mu = 0.05 is past the step-size bound, and
        # both loops find bin 1 singular at L = 8
        monkeypatch.setattr(convsep.iva, "_half_spectrum", stacked_float64)
        for channels, step_size in [(3, 0.05), (4, 0.02)]:
            self.check_against_reference_loop(filter_length, iterations, channels, step_size)

    @staticmethod
    def check_against_reference_loop(
        filter_length, iterations, channels, step_size, rtol=1e-12, trace_rtol=1e-12
    ):
        frames = mixture_frames(filter_length, channels)
        cfg = IvaConfig(step_size=step_size, max_iterations=iterations)
        bank, trace = run_iva(frames, cfg)
        ref_fb, ref_mean, ref_max = reference_iva(frames, cfg)
        ref_bank = filters_to_time(ref_fb, filter_length)
        rel = np.linalg.norm(bank.coeffs - ref_bank.coeffs) / np.linalg.norm(ref_bank.coeffs)
        assert rel <= rtol
        assert trace.iterations == iterations
        np.testing.assert_allclose(trace.mean_update_norm, ref_mean, rtol=trace_rtol, atol=0)
        np.testing.assert_allclose(trace.max_update_norm, ref_max, rtol=trace_rtol, atol=0)
        # the reference bank's energy past lag L - 1, which the causal readout drops
        impulse = np.abs(np.fft.ifft(ref_fb.response, axis=0)) ** 2
        ref_late = np.sum(impulse[filter_length:]) / np.sum(impulse)
        assert trace.discarded_lag_energy == pytest.approx(ref_late, rel=rtol, abs=1e-15)

    @pytest.mark.parametrize("filter_length", [8, 1])
    @pytest.mark.parametrize("iterations", [1, 5, 20])
    def test_multi_chunk_pass_matches_reference_loop(self, monkeypatch, filter_length, iterations):
        # the default chunk holds all of mixture_frames; 4096 bytes of
        # float64 splits it into 84 chunks at L = 8 and 71 at L = 1 with 3
        # channels, and into 107 and 94 with 4, the last one short
        monkeypatch.setattr(convsep.iva, "_CHUNK_BYTES", 4096)
        self.test_matches_reference_loop(monkeypatch, filter_length, iterations)

    @pytest.mark.parametrize("chunk_bytes", [convsep.iva._CHUNK_BYTES, 2048])
    @pytest.mark.parametrize("filter_length", [8, 1])
    def test_float32_pass_matches_reference_loop(self, monkeypatch, chunk_bytes, filter_length):
        # run_iva as it runs, in float32, against the complex128 reference
        # loop through 20 iterations, in one chunk and in the multi-chunk
        # test's chunk counts (2048 bytes of float32). The bank and the
        # discarded energy are bounded at 1e-7, under float32's eps of
        # 1.19e-7: the step mu damps the pass's rounding. The traces are
        # the Gram sums themselves, rounded in float32 over up to 6,000
        # blocks a chunk (measured up to 2.3e-7), so they are bounded at
        # 4 eps.
        monkeypatch.setattr(convsep.iva, "_CHUNK_BYTES", chunk_bytes)
        eps = float(np.finfo(np.float32).eps)
        for channels, step_size in [(3, 0.05), (4, 0.02)]:
            self.check_against_reference_loop(filter_length, 20, channels, step_size, 1e-7, 4 * eps)

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

    @pytest.mark.parametrize("bins", [(3, 5), (8, 9), (9, 12), (16,)], ids=lambda b: "-".join(map(str, b)))
    def test_names_first_asymmetric_bin(self, bins):
        # the check runs several bins a pass; bin 16 is the Nyquist bin
        # of M = 32, its own conjugate
        frames = mixture_frames(16)
        data = frames.data.copy()
        for v in bins:
            data[0, 2, -v % 32] += (1 + 1j) * 1e-3 * np.max(np.abs(data))
        with pytest.raises(ParameterError, match=rf"bin {bins[0]} is not the conjugate of bin {-bins[0] % 32} "):
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

    def test_bank_bytes_independent_of_blas_threads(self):
        # L = 1 iterates a float64 bank on X alone, L = 64 a complex one;
        # both split the pass into several chunks
        script = (
            "import hashlib, numpy as np\n"
            "from convsep.iva import IvaConfig, run_iva\n"
            "from convsep.signal import SignalMetadata, TimeSeries\n"
            "from convsep.spectral import center, stft\n"
            "rng = np.random.default_rng(17)\n"
            "x = np.linalg.qr(rng.standard_normal((4, 4)))[0] @ rng.laplace(size=(4, 1 << 16))\n"
            "ts = TimeSeries(x, SignalMetadata(1e-3, tuple('abcd')))\n"
            "for length in (1, 64):\n"
            "    frames = center(stft(ts, 2 * length, length, 'zeropad'))\n"
            "    bank, _ = run_iva(frames, IvaConfig(step_size=0.02, max_iterations=5))\n"
            "    print(hashlib.sha1(bank.coeffs.tobytes()).hexdigest())\n"
        )
        src = str(Path(convsep.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            digests.append(run.stdout.split())
        assert [len(d) for d in digests[0]] == [40, 40] and digests[0] == digests[1]

    def test_flagship_matches_float64_loop(self, monkeypatch):
        # the pipeline with run_iva's float32 pass against the same pipeline
        # with the float64 instantiation of that pass, flagship seed 0
        from convsep.demix import PipelineConfig, demix_pipeline
        from convsep.metrics import evaluate_separation
        from convsep.simulate import build_scenario, respiratory_scenario

        scenario = respiratory_scenario(seed=0, duration_s=60.0)
        sim = build_scenario(scenario)
        cfg = PipelineConfig(
            filter_length=64, dc_cutoff_hz=15.0, iva=IvaConfig(step_size=0.003, max_iterations=400)
        )

        def report():
            result = demix_pipeline(sim.mixed, cfg)
            return evaluate_separation(result.bank, result.sphering, sim.images, cfg.dc_cutoff_hz)

        single = report()
        monkeypatch.setattr(convsep.iva, "_half_spectrum", stacked_float64)
        double = report()
        assert single.assignment == double.assignment
        gap = np.abs(np.subtract(single.sir_db, double.sir_db))
        kinds = [scenario.source_kinds[src] for src in double.assignment]
        emg = [out for out, kind in enumerate(kinds) if kind.startswith("emg")]
        assert len(emg) == 2 and max(gap[emg]) <= 0.05 and max(gap) <= 0.1

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
        # at L = 1 the kept bins are DC and Nyquist, exactly real, and the
        # mixture is X alone; otherwise it is stacked as [Re X; Im X]. The
        # mixture is float32 either way, the bank float64 or complex128
        seen = []
        step = convsep.iva.update_step

        def spy(state, cfg):
            seen.append((state.filters.response.dtype, state.outputs.dtype, state.outputs.shape))
            return step(state, cfg)

        monkeypatch.setattr(convsep.iva, "update_step", spy)
        frames = mixture_frames(filter_length)
        run_iva(frames, IvaConfig(step_size=0.05, max_iterations=3))
        rows = 3 if dtype is np.float64 else 6
        assert seen == [(np.dtype(dtype), np.float32, (filter_length + 1, rows, frames.n_blocks))] * 3


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
