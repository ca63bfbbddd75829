import json

import numpy as np
import pytest

from convsep.errors import FormatError, ParameterError
from convsep.spectral import (
    DemixFilterBank,
    FrequencyFilterBank,
    SpectralFrames,
    center,
    filters_to_freq,
    filters_to_time,
    load_filter_bank,
    make_window,
    save_filter_bank,
    stft,
)


def direct_dft_frames(data, n_bins, hop, window):
    """Naive summation oracle for the windowed DFT frames."""
    channels, n = data.shape
    n_blocks = (n - n_bins) // hop + 1
    out = np.zeros((channels, n_blocks, n_bins), dtype=complex)
    for p in range(channels):
        for m in range(n_blocks):
            for v in range(n_bins):
                acc = 0.0 + 0.0j
                for k in range(n_bins):
                    acc += (
                        window[k]
                        * data[p, m * hop + k]
                        * np.exp(-2j * np.pi * v * k / n_bins)
                    )
                out[p, m, v] = acc
    return out


class TestStft:
    def test_zero_signal(self, make_ts):
        frames = stft(make_ts(np.zeros((2, 32))), 8, 4, "hann")
        assert frames.n_blocks == (32 - 8) // 4 + 1
        assert np.all(frames.data == 0.0)

    def test_impulse_rect_window(self, make_ts):
        x = np.zeros((1, 8))
        x[0, 0] = 1.0
        frames = stft(make_ts(x), 8, 8, "rect")
        assert frames.n_blocks == 1
        np.testing.assert_allclose(np.abs(frames.data[0, 0]), 1.0, atol=1e-12)

    def test_cosine_at_bin_frequency(self, make_ts):
        # oracle: direct DFT summation on a small case
        n_bins, hop = 16, 16
        v0 = 3
        n = 64
        x = np.cos(2 * np.pi * v0 * np.arange(n) / n_bins)[None, :]
        frames = stft(make_ts(x), n_bins, hop, "rect")
        want = direct_dft_frames(x, n_bins, hop, np.ones(n_bins))
        np.testing.assert_allclose(frames.data, want, atol=1e-9)
        mags = np.abs(frames.data[0, 0])
        others = [v for v in range(n_bins) if v not in (v0, n_bins - v0)]
        assert np.all(mags[others] < 1e-9 * mags[v0])

    def test_matches_oracle_with_windows(self, make_ts):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 40))
        for window_id in ("hann", "rect", "zeropad"):
            frames = stft(make_ts(x), 8, 4, window_id)
            want = direct_dft_frames(x, 8, 4, make_window(window_id, 8))
            np.testing.assert_allclose(frames.data, want, atol=1e-10)

    def test_linearity(self, make_ts):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 2, 33))
        a, b = 0.3, -2.2
        f_sum = stft(make_ts(a * x + b * y), 8, 4).data
        f_parts = a * stft(make_ts(x), 8, 4).data + b * stft(make_ts(y), 8, 4).data
        np.testing.assert_allclose(f_sum, f_parts, rtol=1e-12, atol=1e-12)

    def test_parseval_rect_nonoverlapping(self, make_ts):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 64))
        n_bins = 16
        frames = stft(make_ts(x), n_bins, n_bins, "rect")
        covered = frames.n_blocks * n_bins
        lhs = np.sum(np.abs(frames.data) ** 2)
        rhs = n_bins * np.sum(x[0, :covered] ** 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_signal_shorter_than_block(self, make_ts):
        with pytest.raises(ParameterError):
            stft(make_ts(np.zeros((1, 7))), 8, 4)

    def test_rejects_non_power_of_two(self, make_ts):
        with pytest.raises(ParameterError):
            stft(make_ts(np.zeros((1, 64))), 12, 4)

    @pytest.mark.parametrize("window_id", ["zeropad", "hann", "rect"])
    @pytest.mark.parametrize("n_bins", [1, 2, 8, 128])
    @pytest.mark.parametrize("hop_div", [None, 2, 1])
    def test_matches_full_fft_of_gathered_blocks(self, make_ts, window_id, n_bins, hop_div):
        # the framing as first built: gather every block, window it, and take
        # the full complex FFT; hop_div None means hop 1
        hop = 1 if hop_div is None else max(n_bins // hop_div, 1)
        x = np.random.default_rng(n_bins + hop).standard_normal((3, 5 * n_bins + 3))
        n_blocks = (x.shape[1] - n_bins) // hop + 1
        idx = (np.arange(n_blocks) * hop)[:, None] + np.arange(n_bins)[None, :]
        want = np.fft.fft(x[:, idx] * make_window(window_id, n_bins), axis=2)
        got = stft(make_ts(x), n_bins, hop, window_id).data
        if n_bins <= 2:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        mirrored = n_bins - np.arange(1, n_bins)
        assert np.array_equal(got[:, :, mirrored], np.conj(got[:, :, 1:]))

    @pytest.mark.parametrize("n_channels, n_samples, n_bins", [(4, 61_475, 128), (2, 122_951, 2)])
    def test_peak_memory_near_frames_size(self, make_ts, traced_peak, n_channels, n_samples, n_bins):
        # the pipeline's framing: zeropad, hop = L = M / 2; one rfft of each
        # block's support writes into the frames, mirrored in place
        ts = make_ts(np.random.default_rng(2).standard_normal((n_channels, n_samples)))
        hop = n_bins // 2
        frames_bytes = n_channels * ((n_samples - n_bins) // hop + 1) * n_bins * 16
        assert traced_peak(stft, ts, n_bins, hop) <= 1.3 * frames_bytes


class TestCenter:
    def test_already_centered_unchanged(self, make_ts):
        rng = np.random.default_rng(8)
        frames = stft(make_ts(rng.standard_normal((2, 48))), 8, 4)
        once = center(frames)
        twice = center(once)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-15)

    def test_single_block_becomes_zero(self, make_ts):
        frames = stft(make_ts(np.ones((1, 8))), 8, 8)
        assert frames.n_blocks == 1
        assert np.all(center(frames).data == 0.0)

    def test_matches_brute_force_mean_subtraction(self, make_ts):
        rng = np.random.default_rng(9)
        frames = stft(make_ts(rng.standard_normal((2, 60))), 8, 4)
        got = center(frames).data
        want = frames.data.copy()
        for p in range(frames.n_channels):
            for v in range(frames.n_bins):
                want[p, :, v] -= np.mean(frames.data[p, :, v])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_constant_offset_removed(self, make_ts):
        rng = np.random.default_rng(10)
        frames = stft(make_ts(rng.standard_normal((1, 60))), 8, 4)
        shifted = frames.with_data(frames.data + (3.0 - 1.0j))
        np.testing.assert_allclose(center(shifted).data, center(frames).data, atol=1e-12)
        rms = np.sqrt(np.mean(np.abs(frames.data) ** 2))
        assert np.all(np.abs(center(shifted).data.mean(axis=1)) < 1e-12 * max(rms, 1.0))


class TestFilterTransforms:
    def test_identity_bank_to_time(self):
        fb = FrequencyFilterBank.identity(16, 3)
        bank = filters_to_time(fb, 8)
        want = DemixFilterBank.identity(3, 8)
        np.testing.assert_allclose(bank.coeffs, want.coeffs, atol=1e-12)

    def test_linear_phase_gives_delayed_delta(self):
        # oracle: inverse DFT of exp(-j 2 pi v d / M) is a delta at lag d
        m, length, d = 16, 8, 5
        response = np.zeros((m, 1, 1), dtype=complex)
        response[:, 0, 0] = np.exp(-2j * np.pi * np.arange(m) * d / m)
        bank = filters_to_time(FrequencyFilterBank(response), length)
        want = np.zeros(length)
        want[d] = 1.0
        np.testing.assert_allclose(bank.coeffs[0, 0], want, atol=1e-10)

    def test_identity_bank_to_freq(self):
        bank = DemixFilterBank.identity(2, 4)
        fb = filters_to_freq(bank)
        assert fb.n_bins == 8
        np.testing.assert_allclose(fb.response, np.tile(np.eye(2), (8, 1, 1)), atol=1e-12)

    def test_shifted_delta_to_freq(self):
        coeffs = np.zeros((1, 1, 4))
        d = 3
        coeffs[0, 0, d] = 1.0
        fb = filters_to_freq(DemixFilterBank(coeffs))
        want = np.exp(-2j * np.pi * np.arange(8) * d / 8)
        np.testing.assert_allclose(fb.response[:, 0, 0], want, atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        bank = DemixFilterBank(rng.standard_normal((3, 3, 8)))
        back = filters_to_time(filters_to_freq(bank), 8)
        np.testing.assert_allclose(back.coeffs, bank.coeffs, atol=1e-10)

    def test_real_response_stays_real(self):
        # a bank of exactly real bins (M = 2: DC and Nyquist) keeps float64;
        # any other dtype becomes complex128
        rng = np.random.default_rng(13)
        response = rng.standard_normal((2, 3, 3))
        fb = FrequencyFilterBank(response)
        assert fb.response.dtype == np.float64
        np.testing.assert_array_equal(fb.response, response)
        for other in (response.astype(np.float32), response.astype(complex), np.ones((2, 3, 3), int)):
            assert FrequencyFilterBank(other).response.dtype == np.complex128
        # the one causal lag of an M = 2 bank is the mean of its two bins
        bank = filters_to_time(fb, 1)
        np.testing.assert_allclose(bank.coeffs[:, :, 0], (response[0] + response[1]) / 2, atol=1e-15)
        complex_bank = filters_to_time(FrequencyFilterBank(response.astype(complex)), 1)
        np.testing.assert_array_equal(bank.coeffs, complex_bank.coeffs)

    def test_to_time_requires_m_equals_2l(self):
        with pytest.raises(ParameterError):
            filters_to_time(FrequencyFilterBank.identity(16, 2), 4)


class TestBankIO:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        bank = DemixFilterBank(rng.standard_normal((2, 2, 16)))
        raw, header = tmp_path / "bank.raw", tmp_path / "bank.json"
        save_filter_bank(bank, raw, header)
        back = load_filter_bank(raw, header)
        np.testing.assert_array_equal(back.coeffs, bank.coeffs)

    def test_payload_size_checked(self, tmp_path):
        bank = DemixFilterBank(np.zeros((2, 2, 4)))
        raw, header = tmp_path / "bank.raw", tmp_path / "bank.json"
        save_filter_bank(bank, raw, header)
        raw.write_bytes(raw.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_filter_bank(raw, header)

    @pytest.mark.parametrize(
        "desc,values",
        [
            ({"P": 0, "L": 4}, 0),
            ({"P": 1, "L": 0}, 0),
            ({"P": True, "L": 1.7}, 1),
            ({"P": 1, "L": "1"}, 1),
        ],
    )
    def test_header_values_are_strict(self, tmp_path, desc, values):
        raw, header = tmp_path / "bank.raw", tmp_path / "bank.json"
        np.zeros(values, dtype="<f8").tofile(raw)
        header.write_text(json.dumps(desc))
        with pytest.raises(FormatError):
            load_filter_bank(raw, header)


class TestSpectralFramesType:
    def test_single_block_allowed_for_centering(self, make_ts):
        frames = stft(make_ts(np.ones((1, 8))), 8, 8)
        assert frames.n_blocks == 1

    def test_rejects_non_power_of_two_bins(self):
        from convsep.signal import SignalMetadata

        with pytest.raises(ParameterError):
            SpectralFrames(
                np.zeros((1, 2, 12), dtype=complex), 4, "rect", SignalMetadata(1e-3, ("a",))
            )
