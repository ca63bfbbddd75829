import json

import numpy as np
import pytest

from convsep.errors import DataError, FormatError, ParameterError
from convsep.signal import SignalMetadata, TimeSeries, highpass_dc_removal, read_raw, write_raw
from convsep.simulate import MixingSystem, SourceSet
from convsep.spectral import DemixFilterBank, FrequencyFilterBank, SpectralFrames
from convsep.sphering import SpheringTransform


def direct_onepole_highpass(x, cutoff_hz, interval_s):
    """Sample-by-sample recursion oracle for the one-pole highpass."""
    a = np.exp(-2.0 * np.pi * cutoff_hz * interval_s)
    g = 0.5 * (1.0 + a)
    y = np.zeros_like(x)
    prev_x = 0.0
    prev_y = 0.0
    for i, xi in enumerate(x):
        y[i] = a * prev_y + g * (xi - prev_x)
        prev_x, prev_y = xi, y[i]
    return y


class TestTimeSeries:
    def test_invariants(self):
        meta = SignalMetadata(1e-3, ("a", "b"))
        ts = TimeSeries(np.zeros((2, 5)), meta)
        assert ts.n_channels == 2 and ts.n_samples == 5

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            TimeSeries(np.array([[0.0, np.nan]]), SignalMetadata(1e-3, ("a",)))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.zeros((2, 3)), SignalMetadata(1e-3, ("only-one",)))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.zeros((2, 0)), SignalMetadata(1e-3, ("a", "b")))

    def test_rejects_bad_interval(self):
        with pytest.raises(ParameterError):
            SignalMetadata(0.0, ("a",))

    def test_data_is_readonly(self):
        ts = TimeSeries(np.zeros((1, 4)), SignalMetadata(1e-3, ("a",)))
        with pytest.raises(ValueError):
            ts.data[0, 0] = 1.0


META2 = SignalMetadata(1e-3, ("a", "b"))
# type name -> (build from the array, attribute holding it, a valid array,
# the error for a non-finite one)
VALUE_TYPES = {
    "TimeSeries": (lambda a: TimeSeries(a, META2), "data", np.ones((2, 4)), DataError),
    "SpectralFrames": (
        lambda a: SpectralFrames(a, 1, "rect", META2),
        "data",
        np.ones((2, 3, 4), dtype=complex),
        ParameterError,
    ),
    "FrequencyFilterBank": (
        FrequencyFilterBank, "response", np.ones((4, 2, 2), dtype=complex), ParameterError
    ),
    "DemixFilterBank": (DemixFilterBank, "coeffs", np.ones((2, 2, 4)), ParameterError),
    "SpheringTransform.matrix": (
        lambda a: SpheringTransform(a, np.ones(2), 0.0), "matrix", np.eye(2), ParameterError
    ),
    "SpheringTransform.eigenvalues": (
        lambda a: SpheringTransform(np.eye(2), a, 0.0), "eigenvalues", np.ones(2), ParameterError
    ),
    "SourceSet": (
        lambda a: SourceSet(a, ("emg", "noise"), 0, 1e-3), "signals", np.ones((2, 4)), ParameterError
    ),
    "MixingSystem": (MixingSystem, "kernels", np.ones((2, 2, 4)), ParameterError),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
class TestFrozenValueArrays:
    def test_stored_array_is_readonly_and_c_contiguous(self, name):
        build, attr, valid, _ = VALUE_TYPES[name]
        stored = getattr(build(np.asfortranarray(valid)), attr)
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert np.array_equal(stored, valid)

    def test_nan_rejected(self, name):
        build, _, valid, error = VALUE_TYPES[name]
        bad = valid.copy()
        bad.flat[0] = np.nan
        with pytest.raises(error, match="non-finite"):
            build(bad)


class TestRawIO:
    def test_zero_roundtrip(self, tmp_path, make_ts):
        ts = make_ts(np.zeros((2, 3)))
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        write_raw(ts, raw, header)
        assert raw.stat().st_size == 2 * 3 * 4
        back = read_raw(raw, header)
        assert back.n_channels == 2 and back.n_samples == 3
        assert np.all(back.data == 0.0)

    def test_roundtrip_bit_exact_for_f32_values(self, tmp_path, make_ts):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((3, 17)).astype(np.float32).astype(np.float64)
        ts = make_ts(data, sample_interval_s=0.976e-3, labels=("x", "y", "z"))
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        write_raw(ts, raw, header)
        back = read_raw(raw, header)
        assert np.array_equal(back.data, data)
        assert back.meta.channel_labels == ("x", "y", "z")
        assert back.meta.sample_interval_s == 0.976e-3

    def test_size_mismatch_is_format_error(self, tmp_path, make_ts):
        ts = make_ts(np.zeros((3, 4)))
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        write_raw(ts, raw, header)
        desc = json.loads(header.read_text())
        desc["channels"] = 4
        desc["labels"] = ["a", "b", "c", "d"]
        header.write_text(json.dumps(desc))
        with pytest.raises(FormatError):
            read_raw(raw, header)

    def test_nonfinite_payload_is_data_error(self, tmp_path):
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        np.array([1.0, np.inf], dtype="<f4").tofile(raw)
        header.write_text(
            json.dumps(
                {"channels": 1, "samples": 2, "sample_interval_s": 1e-3, "labels": ["a"]}
            )
        )
        with pytest.raises(DataError):
            read_raw(raw, header)

    @pytest.mark.parametrize(
        "override",
        [
            {"labels": "ab"},
            {"labels": {"x": 1, "y": 2}},
            {"labels": ["a", 2]},
            {"channels": 2.9},
            {"channels": True, "samples": 4, "labels": ["a"]},
            {"samples": "2"},
            {"sample_interval_s": "1e-3"},
        ],
    )
    def test_header_values_are_strict(self, tmp_path, override):
        # the payload matches the header before the override: 2 channels x 2 samples
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        np.zeros(4, dtype="<f4").tofile(raw)
        desc = {"channels": 2, "samples": 2, "sample_interval_s": 1e-3, "labels": ["a", "b"]}
        header.write_text(json.dumps(desc))
        assert read_raw(raw, header).meta.channel_labels == ("a", "b")
        header.write_text(json.dumps({**desc, **override}))
        with pytest.raises(FormatError):
            read_raw(raw, header)

    def test_interleaving_is_frame_major(self, tmp_path, make_ts):
        ts = make_ts([[1.0, 2.0], [10.0, 20.0]])
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        write_raw(ts, raw, header)
        flat = np.fromfile(raw, dtype="<f4")
        # frame 0 = (ch1[0], ch2[0]), frame 1 = (ch1[1], ch2[1])
        assert flat.tolist() == [1.0, 10.0, 2.0, 20.0]


class TestHighpass:
    @pytest.mark.parametrize(
        "shape, cutoff_hz, interval_s",
        [
            ((1, 200), 5.0, 1e-3),
            ((4, 61_475), 15.0, 0.976e-3),
            ((2, 20_000), 0.5, 1e-3),
            ((3, 1001), 40.0, 1e-3),
            ((2, 1), 5.0, 1e-3),
        ],
        ids=["short", "flagship", "pole-near-1", "odd-length", "one-sample"],
    )
    def test_matches_direct_recursion(self, make_ts, shape, cutoff_hz, interval_s):
        rng = np.random.default_rng(11)
        x = 50.0 * rng.standard_normal(shape) + 3.0
        got = highpass_dc_removal(make_ts(x, interval_s), cutoff_hz).data
        want = np.stack([direct_onepole_highpass(row, cutoff_hz, interval_s) for row in x])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_constant_decays(self, make_ts):
        c = 3.5
        ts = make_ts(np.full((1, 2000), c))
        out = highpass_dc_removal(ts, 5.0).data[0]
        assert abs(np.mean(out[1000:])) < 0.01 * abs(c)

    def test_zero_in_zero_out(self, make_ts):
        ts = make_ts(np.zeros((2, 50)))
        assert np.all(highpass_dc_removal(ts, 1.0).data == 0.0)

    def test_nyquist_passthrough(self, make_ts):
        # analytic one-pole response: gain at Nyquist is exactly one
        x = np.tile([1.0, -1.0], 500)
        ts = make_ts(x[None, :])
        out = highpass_dc_removal(ts, 1.0).data[0]
        steady = np.abs(out[200:])
        assert np.all(steady > 0.99)

    def test_linearity(self, make_ts):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 300))
        y = rng.standard_normal((1, 300))
        a, b = 1.7, -0.4
        combined = highpass_dc_removal(make_ts(a * x + b * y), 4.0).data
        parts = a * highpass_dc_removal(make_ts(x), 4.0).data + b * highpass_dc_removal(
            make_ts(y), 4.0
        ).data
        np.testing.assert_allclose(combined, parts, rtol=1e-9, atol=1e-12)

    def test_cutoff_out_of_range(self, make_ts):
        ts = make_ts(np.zeros((1, 10)))
        with pytest.raises(ParameterError):
            highpass_dc_removal(ts, 0.0)
        with pytest.raises(ParameterError):
            highpass_dc_removal(ts, 500.0)  # Nyquist for 1 kHz sampling
