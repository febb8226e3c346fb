"""Output checks that feed the benchmark's failure count.

An operation is one check report, one trace-oracle comparison, one selfcheck
line or one fuzz instance. Each check returns (attempted, failed) so callers
can add them up; an output outside tolerance is a failure.
"""
from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from pathlib import Path

UNWEIGHTED_TOL = 1e-10   # trace error at (order, last stage) vs the closed-form limit
WEIGHTED_TOL = 1e-9      # trace error at (2 periods, last stage) vs the stabilized reference
REFERENCE_RTOL = 1e-9    # frozen lhs/rhs on the committed seed


def map_order(perm: list[int]) -> int:
    """Order of an explicit permutation: lcm of its cycle lengths."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return math.lcm(*lengths)


def oracle_point(config: dict) -> tuple[int, int, float]:
    """(n1, n2, tolerance) of the trace row that must vanish.

    Unweighted: one full orbit period at the last stage equals the closed-form
    limit. Weighted: two stabilization periods equal the one-period reference.
    """
    order = map_order(config["maps"][0]["perm"])
    last = len(config["filtrations"][0]["stages"]) - 1
    if not config.get("weight_seqs"):
        return order, last, UNWEIGHTED_TOL
    period = order
    for term in config["weight_seqs"][0]["terms"]:
        period = math.lcm(period, Fraction(*term[1]).denominator)
    return 2 * period, last, WEIGHTED_TOL


def report_values(reports: list[dict]) -> list[list[float]]:
    """The two sides of every report, as frozen in the reference file."""
    out = []
    for rep in reports:
        if rep["theorem"] == "orlicz-class":
            out.append([rep["input_functional"], rep["sup_functional"]])
        else:
            out.append([rep["lhs"], rep["rhs"]])
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def check_reports(reports: list[dict], reference: list[list[float]] | None) -> tuple[int, int]:
    """Every report must be satisfied and, when a frozen reference is given,
    match it side by side within REFERENCE_RTOL."""
    failed = 0
    values = report_values(reports)
    if reference is not None and len(reference) != len(reports):
        failed += abs(len(reference) - len(reports))
    for k, (rep, sides) in enumerate(zip(reports, values)):
        ok = rep.get("satisfied") is True and all(map(math.isfinite, sides))
        if ok and reference is not None and k < len(reference):
            ok = all(_close(a, b) for a, b in zip(sides, reference[k]))
        failed += not ok
    attempted = max(len(reports), len(reference or ()))
    return attempted, failed


def check_trace(rows: list[dict], config: dict) -> tuple[int, int]:
    """One oracle comparison: the trace row at the exact point is within tolerance."""
    n1, n2, tol = oracle_point(config)
    for row in rows:
        if int(row["n1"]) == n1 and int(row["n2"]) == n2:
            errors = (float(row["lp_error"]), float(row["sup_error"]))
            return 1, int(not all(0.0 <= e <= tol for e in errors))
    return 1, 1


def read_artifacts(out_dir: Path) -> tuple[list[dict], list[dict]]:
    reports = json.loads((out_dir / "reports.json").read_text())
    with open(out_dir / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return reports, rows


def check_run(config: dict, out_dir: Path,
              reference: list[list[float]] | None = None) -> tuple[int, int]:
    """All operations of one `ergmart run` output directory."""
    reports, rows = read_artifacts(out_dir)
    a1, f1 = check_reports(reports, reference)
    a2, f2 = check_trace(rows, config)
    return a1 + a2, f1 + f2


_SECTION_LINE = re.compile(r"^\[(PASS|FAIL)\] (?!fuzz )")
_FUZZ_LINE = re.compile(r"^\[(PASS|FAIL)\] fuzz (\S+): (\d+) instances")
_FUZZ_FAILURE = re.compile(r"^inequality fuzz: (\S+): seed (\d+):")


def check_selfcheck(result) -> tuple[int, int]:
    """Selfcheck lines plus fuzz instances; a failed instance counts once."""
    attempted = failed = 0
    for line in result.lines:
        m = _SECTION_LINE.match(line)
        if m:
            attempted += 1
            failed += m.group(1) == "FAIL"
        m = _FUZZ_LINE.match(line)
        if m:
            attempted += int(m.group(3))
    failed += len({m.groups() for m in map(_FUZZ_FAILURE.match, result.failures) if m})
    if not result.ok and failed == 0:
        failed = 1
    return max(attempted, 1), failed
