"""Correctness bookkeeping for the benchmark: every job is checked, and a
failed job is counted against the attempts, never dropped from the sample.

A job fails if it raises, if its outputs are not finite, if its
fingerprint (report and filter-bank bytes, or every CLI artifact) differs
from the first job of the same seed and IVA budget, or if the job itself
found a problem (a CLI artifact that changed on the rerun from the echo).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Outcome:
    """What one job produced, reduced to what the checker needs."""

    fingerprint: str
    arrays: list
    quality: dict
    problems: list = field(default_factory=list)
    out_dir_bytes: int = 0


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def snapshot(directory: Path) -> dict:
    """Every regular file's bytes, by name."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def snapshot_diff(before: dict, after: dict) -> list:
    """Names of artifacts that changed, vanished or appeared."""
    return [n for n in sorted(set(before) | set(after)) if before.get(n) != after.get(n)]


class Checker:
    """Counts attempts and failures. The first outcome under each key (the
    job's IVA budget) is the reference for the later ones under that key."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.references: dict = {}

    @property
    def reference(self) -> Outcome:
        """The reference of the full-budget job."""
        return self.references[None]

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures.append(reason)

    def check(self, outcome: Outcome, key=None) -> None:
        problems = list(outcome.problems)
        if not all(np.all(np.isfinite(a)) for a in outcome.arrays):
            problems.append("non-finite output")
        if not all(v is None or np.isfinite(v) for v in outcome.quality.values()):
            problems.append(f"non-finite quality figure: {outcome.quality}")
        reference = self.references.setdefault(key, outcome)
        if outcome.fingerprint != reference.fingerprint:
            problems.append("output differs from the first job of this seed and budget")
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
