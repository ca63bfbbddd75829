import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from convsep.errors import DataError, FormatError, ParameterError
from convsep.iva import ConvergenceTrace, write_trace_csv
from convsep.metrics import write_envelopes_csv
from convsep.signal import (
    _FINITE_CHUNK,
    SignalMetadata,
    TimeSeries,
    highpass_dc_removal,
    read_raw,
    write_json,
    write_raw,
)
from convsep.simulate import MixingSystem, SourceSet
from convsep.spectral import DemixFilterBank, FrequencyFilterBank, SpectralFrames, save_filter_bank
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

    @pytest.mark.parametrize("where", [0, _FINITE_CHUNK - 1, _FINITE_CHUNK, -1])
    def test_rejects_nonfinite_in_any_slice(self, where):
        # the check scans fixed slices: a value at either edge of one is seen
        data = np.zeros((3, _FINITE_CHUNK))
        data.flat[where] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            TimeSeries(data, SignalMetadata(1e-3, ("a", "b", "c")))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.zeros((2, 3)), SignalMetadata(1e-3, ("only-one",)))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.zeros((2, 0)), SignalMetadata(1e-3, ("a", "b")))

    def test_rejects_bad_interval(self):
        # True would pass as 1 s, and "0.001" fail the range test with a TypeError
        for interval in (0.0, float("nan"), True, "0.001", 10**400):
            with pytest.raises(ParameterError, match="sample_interval_s"):
                SignalMetadata(interval, ("a",))

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
        SpectralFrames,
        "data",
        np.ones((2, 3, 4), dtype=complex),
        ParameterError,
    ),
    "FrequencyFilterBank": (
        FrequencyFilterBank, "response", np.ones((4, 2, 2), dtype=complex), ParameterError
    ),
    "DemixFilterBank": (DemixFilterBank, "coeffs", np.ones((2, 2, 4)), ParameterError),
    "SpheringTransform.matrix": (
        lambda a: SpheringTransform(a, np.ones(2)), "matrix", np.eye(2), ParameterError
    ),
    "SpheringTransform.eigenvalues": (
        lambda a: SpheringTransform(np.eye(2), a), "eigenvalues", np.ones(2), ParameterError
    ),
    "SourceSet": (
        lambda a: SourceSet(a, ("emg", "noise")), "signals", np.ones((2, 4)), ParameterError
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

    def test_c_contiguous_input_is_taken_over(self, name):
        build, attr, valid, _ = VALUE_TYPES[name]
        given = valid.copy()
        assert np.shares_memory(getattr(build(given), attr), given)
        assert not given.flags.writeable

    def test_other_input_is_copied(self, name):
        build, attr, valid, _ = VALUE_TYPES[name]
        strided = np.repeat(valid, 2, axis=-1)[..., ::2]
        assert not strided.flags.c_contiguous
        for given in (strided, valid.real.astype(np.float32)):
            stored = getattr(build(given), attr)
            assert not np.shares_memory(stored, given) and given.flags.writeable
            assert np.array_equal(stored, valid)

    def test_nan_rejected(self, name):
        build, _, valid, error = VALUE_TYPES[name]
        bad_values = [np.nan, np.inf, -np.inf]
        if np.iscomplexobj(valid):
            # a non-finite imaginary part alone
            bad_values += [complex(0.0, np.nan), complex(0.0, -np.inf)]
        for value in bad_values:
            bad = valid.copy()
            bad.flat[0] = value
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

    def test_loaded_data_is_c_contiguous(self, tmp_path, make_ts):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((4, 301)).astype(np.float32).astype(np.float64)
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        write_raw(make_ts(data), raw, header)
        back = read_raw(raw, header)
        assert back.data.flags.c_contiguous and back.data.dtype == np.float64
        np.testing.assert_array_equal(back.data, data)

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
        with pytest.raises(DataError, match=re.escape(str(raw))):
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
            {"channels": 0, "labels": []},
            {"samples": -2},
            {"labels": ["a"]},
            {"sample_interval_s": 0.0},
            {"sample_interval_s": float("inf")},
            {"sample_interval_s": 10**400},
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
        with pytest.raises(FormatError, match=re.escape(str(header))):
            read_raw(raw, header)

    @pytest.mark.parametrize(
        "override,key",
        [
            ({"sample_interval_s": 10**400}, "sample_interval_s"),
            ({"sample_interval_s": "1" * 401}, "sample_interval_s"),
            ({"channels": 2.5}, "channels"),
            ({"samples": "2"}, "samples"),
            ({"channels": 10**400}, "channels"),
            ({"samples": 10**400}, "samples"),
        ],
    )
    def test_number_error_names_key_and_is_short(self, tmp_path, monkeypatch, override, key):
        monkeypatch.chdir(tmp_path)
        np.zeros(4, dtype="<f4").tofile("sig.raw")
        desc = {"channels": 2, "samples": 2, "sample_interval_s": 1e-3, "labels": ["a", "b"]}
        Path("sig.json").write_text(json.dumps({**desc, **override}))
        with pytest.raises(FormatError) as info:
            read_raw("sig.raw", "sig.json")
        message = str(info.value)
        assert key in message and "sig.json" in message and len(message) < 200

    def test_file_bytes_are_pinned(self, tmp_path):
        ts = TimeSeries([[0.5, -1.25, 3.0], [1e-3, 2.0, -0.0]], SignalMetadata(0.976e-3, ("ch1", "ch2")))
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        write_raw(ts, raw, header)
        assert raw.read_bytes().hex() == "0000003f6f12833a0000a0bf000000400000404000000080"
        assert header.read_text() == (
            '{\n  "channels": 2,\n  "labels": [\n    "ch1",\n    "ch2"\n  ],\n'
            '  "sample_interval_s": 0.000976,\n  "samples": 3\n}\n'
        )
        back = read_raw(raw, header)
        assert back.data.tobytes() == ts.data.astype(np.float32).astype(np.float64).tobytes()
        assert back.meta == ts.meta

    def test_interleaving_is_frame_major(self, tmp_path, make_ts):
        ts = make_ts([[1.0, 2.0], [10.0, 20.0]])
        raw, header = tmp_path / "sig.raw", tmp_path / "sig.json"
        write_raw(ts, raw, header)
        flat = np.fromfile(raw, dtype="<f4")
        # frame 0 = (ch1[0], ch2[0]), frame 1 = (ch1[1], ch2[1])
        assert flat.tolist() == [1.0, 10.0, 2.0, 20.0]


def _signal(value):
    return TimeSeries(np.full((2, 64), value), SignalMetadata(1e-3, ("a", "b")))


# writer name -> write(path, value): each of the five writers, writing
# content that differs between two values
WRITERS = {
    "write_json": lambda path, value: write_json({"value": value}, path),
    "write_raw": lambda path, value: write_raw(_signal(value), path, path.with_suffix(".json")),
    "save_filter_bank": lambda path, value: save_filter_bank(
        DemixFilterBank(np.full((2, 2, 4), value)), path, path.with_suffix(".json")
    ),
    "write_envelopes_csv": lambda path, value: write_envelopes_csv(_signal(value), path),
    "write_trace_csv": lambda path, value: write_trace_csv(
        ConvergenceTrace([value], [value], converged=False), path
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
class TestWritesNewFile:
    def test_hard_link_keeps_old_bytes(self, tmp_path, writer):
        path, link = tmp_path / "artifact", tmp_path / "link"
        WRITERS[writer](path, 1.0)
        old = path.read_bytes()
        os.link(path, link)
        WRITERS[writer](path, 2.0)
        assert link.read_bytes() == old
        assert path.read_bytes() != old
        assert path.stat().st_ino != link.stat().st_ino

    def test_symlink_is_written_through(self, tmp_path, writer):
        target, path = tmp_path / "target", tmp_path / "artifact"
        WRITERS[writer](target, 1.0)
        path.symlink_to(target)
        WRITERS[writer](path, 2.0)
        assert path.is_symlink()
        WRITERS[writer](tmp_path / "fresh", 2.0)
        assert target.read_bytes() == (tmp_path / "fresh").read_bytes()


    def test_refused_unlink_rewrites_in_place(self, tmp_path, writer, monkeypatch):
        # a directory that does not let the user unlink the file (not
        # writable, or sticky and owned by another user): truncate as before
        path = tmp_path / "artifact"
        WRITERS[writer](path, 1.0)
        inode = path.stat().st_ino

        def refuse(target):
            raise PermissionError(13, "Permission denied", str(target))

        monkeypatch.setattr(os, "unlink", refuse)
        WRITERS[writer](path, 2.0)
        monkeypatch.undo()
        assert path.stat().st_ino == inode
        WRITERS[writer](tmp_path / "fresh", 2.0)
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()

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
