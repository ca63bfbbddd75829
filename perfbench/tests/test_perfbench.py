"""Tests for the benchmark's own code: span arithmetic, the correctness
checker, and the metric names it prints against BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, SpanTable, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(i, parent, start, end, name="x"):
    return Span(i, parent, name, start, end)


class TestSelfTimes:
    def test_disjoint_children(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 5.0, 6.0)]
        assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 5.0)]
        assert self_times(spans)[0] == pytest.approx(6.0)

    def test_child_clipped_to_parent(self):
        spans = [span(0, None, 0.0, 4.0), span(1, 0, 3.0, 6.0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_only_direct_children_subtracted(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 8.0), span(2, 1, 3.0, 7.0)]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0])

    def test_table_per_call_self_time(self):
        spans = [
            span(0, None, 0.0, 10.0, "iva.run_iva"),
            span(1, 0, 0.0, 0.004, "iva.update_step"),
            span(2, 1, 0.001, 0.002, "iva.score"),
            span(3, 0, 0.005, 0.009, "iva.update_step"),
            span(4, 3, 0.006, 0.008, "iva.score"),
        ]
        table = SpanTable(spans)
        assert table.calls["iva.update_step"] == 2
        assert table.self_ms_per_call("iva.update_step") == pytest.approx(2.5)
        assert table.self_ms_per_call("iva.score") == pytest.approx(1.5)
        assert table.seconds("iva.run_iva") == pytest.approx(10.0)

    def test_tracer_nests_and_restores(self):
        from convsep import iva

        original = iva.score
        with tracing.Tracer() as tracer:
            outer = tracer.open("job")
            assert iva.score is not original
            tracer.close(outer)
        assert iva.score is original
        assert tracer.spans[0].parent is None


def outcome(fingerprint, arrays=(), problems=()):
    return check.Outcome(fingerprint, list(arrays), {"emg_sir_gain_db": 40.0}, list(problems))


class TestChecker:
    def test_repeat_of_first_job_passes(self):
        checker = check.Checker()
        checker.check(outcome("a"))
        checker.check(outcome("a"))
        assert (checker.attempted, checker.failed) == (2, 0)

    def test_differing_repeat_fails(self):
        checker = check.Checker()
        checker.check(outcome("a"))
        checker.check(outcome("b"))
        assert (checker.attempted, checker.failed) == (2, 1)

    def test_each_budget_has_its_own_reference(self):
        checker = check.Checker()
        checker.check(outcome("full"))
        checker.check(outcome("short"), key=40)
        checker.check(outcome("short"), key=40)
        checker.check(outcome("full"), key=40)
        assert (checker.attempted, checker.failed) == (4, 1)
        assert checker.reference.fingerprint == "full"

    def test_non_finite_output_fails(self):
        checker = check.Checker()
        checker.check(outcome("a", arrays=[[1.0, float("nan")]]))
        assert checker.failed == 1

    def test_raise_is_counted(self):
        checker = check.Checker()
        checker.fail("ValueError: boom")
        assert (checker.attempted, checker.failed) == (1, 1)

    def test_flipped_byte_in_snapshot(self, tmp_path):
        (tmp_path / "a.raw").write_bytes(bytes(range(64)))
        (tmp_path / "b.json").write_text("{}")
        before = check.snapshot(tmp_path)
        data = bytearray((tmp_path / "a.raw").read_bytes())
        data[17] ^= 0x01
        (tmp_path / "a.raw").write_bytes(bytes(data))
        assert check.snapshot_diff(before, check.snapshot(tmp_path)) == ["a.raw"]

    def test_cli_rerun_catches_one_flipped_artifact_byte(self, tmp_path):
        inputs = dataclasses.replace(workloads.cli_inputs(3, tmp_path), iterations=2)
        assert workloads.cli_run(inputs) == 0
        clean = workloads.cli_outcome(inputs, 0)
        assert clean.problems == []

        assert workloads.cli_run(inputs) == 0
        target = inputs.payload[1] / "filterbank.raw"
        data = bytearray(target.read_bytes())
        data[100] ^= 0x01
        target.write_bytes(bytes(data))
        tampered = workloads.cli_outcome(inputs, 0)
        assert any("filterbank.raw" in p for p in tampered.problems)

        checker = check.Checker()
        checker.check(clean)
        checker.check(tampered)
        assert checker.failed == 1


class TestMetricNames:
    def test_end_to_end_names_and_units(self):
        assert run.UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    def test_per_layer_names_and_units(self):
        assert tracing.UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def test_layer_metrics_reports_every_per_layer_name(self):
        metrics = tracing.layer_metrics(tracing.Tracer(), 0.0, 0, 0.0)
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}

    def test_workloads_match(self):
        names = [w["name"] for w in SPEC["workloads"]]
        assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flagship", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
