"""Output-correctness gate for g2f reports.

The gate does not trust the program's own `pass` flags alone: a NaN
residual can slip through `max(worst, nan)` and still be reported as a
pass.  An operation counts as failed when its exit code is non-zero, any
check has `pass: false`, the report does not parse as strict JSON (NaN and
Infinity rejected), any `residualOrFlag` is non-finite, or its bytes differ
from those of another iteration with the same seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def report_failures(text: str, exit_code: int) -> list:
    """Reasons why one report fails the gate; empty when it passes."""
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return reasons + [f"report is not strict JSON: {exc}"]
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list) or not checks:
        return reasons + ["report has no checks"]
    for check in checks:
        name = check.get("name", "?")
        if check.get("pass") is not True:
            reasons.append(f"check {name} did not pass")
        value = check.get("residualOrFlag")
        if isinstance(value, bool):
            continue
        # "1e400" parses to inf without going through parse_constant
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            reasons.append(f"check {name} has non-finite residual {value!r}")
    return reasons


@dataclass
class Tally:
    """Attempted and failed operations, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    MAX_REASONS = 20

    def record(self, op_name: str, reasons: list):
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(f"{op_name}: {'; '.join(reasons)}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[:max(self.MAX_REASONS - len(self.reasons), 0)])
