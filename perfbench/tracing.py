"""Outside-in tracing: spans around convsep's public functions, recorded
by wrapping the module attributes through which callers look them up.

Spans stay in memory; the runner writes them out when the run ends. From
them come the per-layer numbers: inclusive time per layer, per-call self
time (duration minus the part covered by child spans), call counts and
the byte counts recorded at the span boundaries.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _frames_bytes(frames) -> int:
    return frames.data.nbytes


def _io_bytes(path, header) -> int:
    return os.path.getsize(path) + os.path.getsize(header)


# What each traced call moves, computed at its boundary from array shapes or
# file sizes: (args, result) -> bytes.
_BYTES = {
    "iva.run_iva": lambda a, r: _frames_bytes(a[0]),
    "iva.forward_pass": lambda a, r: _frames_bytes(a[1]) + _frames_bytes(r),
    "iva.broadband_norms": lambda a, r: _frames_bytes(a[0]),
    "iva.score": lambda a, r: _frames_bytes(a[0]) + _frames_bytes(r),
    "iva.update_step": lambda a, r: _frames_bytes(a[0].outputs),
    "signal.write_raw": lambda a, r: _io_bytes(a[1], a[2]),
    "signal.read_raw": lambda a, r: _io_bytes(a[0], a[1]),
}

# (module, attribute, span name). A function reached through several
# modules is wrapped at each, under one span name.
TRACED = [
    ("convsep.demix", "run_iva", "iva.run_iva"),
    ("convsep.iva", "forward_pass", "iva.forward_pass"),
    ("convsep.iva", "broadband_norms", "iva.broadband_norms"),
    ("convsep.iva", "score", "iva.score"),
    ("convsep.iva", "update_step", "iva.update_step"),
    ("convsep.iva", "minimum_distortion", "iva.minimum_distortion"),
    ("convsep.demix", "stft", "spectral.stft"),
    ("convsep.demix", "center", "spectral.center"),
    ("convsep.demix", "estimate_spatial_covariance", "sphering.estimate_spatial_covariance"),
    ("convsep.demix", "compute_sphering", "sphering.compute_sphering"),
    ("convsep.demix", "apply_sphering", "sphering.apply_sphering"),
    ("convsep.metrics", "apply_sphering", "sphering.apply_sphering"),
    ("convsep.demix", "highpass_dc_removal", "signal.highpass_dc_removal"),
    ("convsep.metrics", "highpass_dc_removal", "signal.highpass_dc_removal"),
    ("convsep.cli", "write_raw", "signal.write_raw"),
    ("convsep.cli", "read_raw", "signal.read_raw"),
    ("convsep.demix", "apply_mimo_fir", "demix.apply_mimo_fir"),
    ("convsep.metrics", "apply_mimo_fir", "demix.apply_mimo_fir"),
    ("convsep.metrics", "evaluate_separation", "metrics.evaluate_separation"),
    ("convsep.cli", "evaluate_separation", "metrics.evaluate_separation"),
    ("convsep.metrics", "project_images", "metrics.project_images"),
    ("convsep.metrics", "sdr", "metrics.sdr"),
    ("convsep.metrics", "sir", "metrics.sir"),
    ("convsep.cli", "write_envelopes_csv", "metrics.write_envelopes_csv"),
    ("convsep.simulate", "build_scenario", "simulate.build_scenario"),
    ("convsep.metrics", "build_scenario", "simulate.build_scenario"),
    ("convsep.cli", "build_scenario", "simulate.build_scenario"),
    ("convsep.cli", "cmd_simulate", "cli.simulate"),
    ("convsep.cli", "cmd_separate", "cli.separate"),
    ("convsep.cli", "cmd_evaluate", "cli.evaluate"),
]

# Counted, not timed: a span per validated construction would split the
# step self times the per-layer metrics are meant to compare.
COUNTED = [("convsep.spectral", "SpectralFrames", "__post_init__", "spectral.frames_constructed")]


UNITS = {
    "iva.run_iva_s": "s",
    "iva.iterations": "count",
    "iva.ms_per_iter": "ms",
    "iva.ms_per_iter.threads1": "ms",
    "iva.forward_pass_ms": "ms",
    "iva.broadband_norms_ms": "ms",
    "iva.score_ms": "ms",
    "iva.update_step_self_ms": "ms",
    "iva.minimum_distortion_ms": "ms",
    "iva.step_cover_frac": "frac",
    "iva.norm_ratio": "ratio",
    "iva.converged_frac": "frac",
    "iva.discarded_lag_energy": "frac",
    "iva.mb_per_iter": "MB",
    "spectral.stft_s": "s",
    "spectral.frames_constructed": "count",
    "spectral.frames_mb": "MB",
    "sphering.sphering_s": "s",
    "signal.highpass_dc_removal_s": "s",
    "signal.write_raw_s": "s",
    "signal.read_raw_s": "s",
    "signal.io_mb": "MB",
    "demix.apply_mimo_fir_s": "s",
    "metrics.evaluate_separation_s": "s",
    "metrics.project_images_s": "s",
    "metrics.sdr_s": "s",
    "metrics.sir_s": "s",
    "metrics.write_envelopes_csv_s": "s",
    "simulate.build_scenario_s": "s",
    "cli.simulate_s": "s",
    "cli.separate_s": "s",
    "cli.evaluate_s": "s",
    "cli.out_dir_mb": "MB",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Records spans while installed; restores every attribute on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self):
        for module, attr, name in TRACED:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        for module, cls_name, attr, name in COUNTED:
            owner = getattr(importlib.import_module(module), cls_name)
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn):
        measure = _BYTES.get(name)
        keep = name == "iva.run_iva"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.nbytes = measure(args, result)
            if keep:
                self.results.setdefault(name, []).append(result)
            return result

        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, []), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


class SpanTable:
    """Totals per span name."""

    def __init__(self, spans: list[Span]):
        self.total: dict[str, float] = {}
        self.self_total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.nbytes: dict[str, int] = {}
        self.max_nbytes: dict[str, int] = {}
        for span, own in zip(spans, self_times(spans)):
            n = span.name
            self.total[n] = self.total.get(n, 0.0) + span.duration
            self.self_total[n] = self.self_total.get(n, 0.0) + own
            self.calls[n] = self.calls.get(n, 0) + 1
            self.nbytes[n] = self.nbytes.get(n, 0) + span.nbytes
            self.max_nbytes[n] = max(self.max_nbytes.get(n, 0), span.nbytes)

    def seconds(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names)

    def self_ms_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.self_total.get(name, 0.0) / calls if calls else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float, out_dir_bytes: int, threads1_ms: float) -> dict:
    """Per-layer numbers from one traced job (plus its set-up), the
    measured tracing overhead, the CLI out_dir size and the one-thread probe."""
    t = SpanTable(tracer.spans)
    run_iva_s = t.seconds("iva.run_iva")
    iterations = t.calls.get("iva.update_step", 0)
    traces = [trace for _, trace in tracer.results.get("iva.run_iva", [])]
    steps = ("iva.forward_pass", "iva.broadband_norms", "iva.score", "iva.update_step", "iva.minimum_distortion")
    step_bytes = sum(t.nbytes.get(n, 0) for n in steps)
    return {
        "iva.run_iva_s": run_iva_s,
        "iva.iterations": iterations,
        "iva.ms_per_iter": 1e3 * run_iva_s / iterations if iterations else 0.0,
        "iva.forward_pass_ms": t.self_ms_per_call("iva.forward_pass"),
        "iva.broadband_norms_ms": t.self_ms_per_call("iva.broadband_norms"),
        "iva.score_ms": t.self_ms_per_call("iva.score"),
        "iva.update_step_self_ms": t.self_ms_per_call("iva.update_step"),
        "iva.minimum_distortion_ms": t.self_ms_per_call("iva.minimum_distortion"),
        "iva.step_cover_frac": 1.0 - t.self_total.get("iva.run_iva", 0.0) / run_iva_s if run_iva_s else 0.0,
        "iva.norm_ratio": _mean([tr.mean_update_norm[-1] / tr.mean_update_norm[0] for tr in traces]),
        "iva.converged_frac": _mean([float(tr.converged) for tr in traces]),
        "iva.discarded_lag_energy": _mean([tr.discarded_lag_energy for tr in traces]),
        "iva.ms_per_iter.threads1": threads1_ms,
        "iva.mb_per_iter": step_bytes / iterations / 1e6 if iterations else 0.0,
        "spectral.stft_s": t.seconds("spectral.stft", "spectral.center"),
        "spectral.frames_constructed": tracer.counts.get("spectral.frames_constructed", 0),
        "spectral.frames_mb": t.max_nbytes.get("iva.run_iva", 0) / 1e6,
        "sphering.sphering_s": t.seconds(
            "sphering.estimate_spatial_covariance", "sphering.compute_sphering", "sphering.apply_sphering"
        ),
        "signal.highpass_dc_removal_s": t.seconds("signal.highpass_dc_removal"),
        "signal.write_raw_s": t.seconds("signal.write_raw"),
        "signal.read_raw_s": t.seconds("signal.read_raw"),
        "signal.io_mb": (t.nbytes.get("signal.write_raw", 0) + t.nbytes.get("signal.read_raw", 0)) / 1e6,
        "demix.apply_mimo_fir_s": t.seconds("demix.apply_mimo_fir"),
        "metrics.evaluate_separation_s": t.seconds("metrics.evaluate_separation"),
        "metrics.project_images_s": t.seconds("metrics.project_images"),
        "metrics.sdr_s": t.seconds("metrics.sdr"),
        "metrics.sir_s": t.seconds("metrics.sir"),
        "metrics.write_envelopes_csv_s": t.seconds("metrics.write_envelopes_csv"),
        "simulate.build_scenario_s": t.seconds("simulate.build_scenario"),
        "cli.simulate_s": t.seconds("cli.simulate"),
        "cli.separate_s": t.seconds("cli.separate"),
        "cli.evaluate_s": t.seconds("cli.evaluate"),
        "cli.out_dir_mb": out_dir_bytes / 1e6,
        "trace.spans": len(tracer.spans),
        "trace.overhead_frac": overhead_frac,
    }


def _mean(values: list) -> float:
    return float(sum(values) / len(values)) if values else 0.0
