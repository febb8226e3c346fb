"""Full invariant and inequality suite behind `ergmart selfcheck`."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .fuzz import _check_run_args, run_inequality_fuzz
from .invariants import SECTIONS

__all__ = ["SelfcheckResult", "run_selfcheck"]


@dataclass
class SelfcheckResult:
    ok: bool
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    # wall seconds per section, the fuzz under "inequality fuzz"
    section_s: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        return "\n".join(self.lines)

    def render_times(self) -> str:
        """One line per section, and one for the fuzz, with its wall time."""
        return "\n".join(f"[time] {name}: {seconds:.3f}s"
                         for name, seconds in self.section_s.items())


def run_selfcheck(budget: int = 100, seed: int = 20240801) -> SelfcheckResult:
    """Runs every invariant section plus the inequality fuzz at the given
    budget; deterministic for a fixed (budget, seed) pair. Raises ValueError
    for a budget below 1 or a negative seed."""
    _check_run_args(budget, seed)
    start = time.perf_counter()
    lines: list[str] = []
    failures: list[str] = []
    section_s: dict[str, float] = {}
    lines.append(f"selfcheck: budget {budget}, seed {seed}")
    lines.append("-" * 72)
    for k, (sec_name, fn) in enumerate(SECTIONS):
        sec_start = time.perf_counter()
        checks = fn(seed + k, budget)
        section_s[sec_name] = time.perf_counter() - sec_start
        for check in checks:
            status = "PASS" if check.ok else "FAIL"
            detail = f"  [{check.detail}]" if check.detail else ""
            lines.append(f"[{status}] {sec_name}: {check.name}{detail}")
            if not check.ok:
                failures.append(f"{sec_name}: {check.name} (seed {seed + k}): {check.detail}")
    fuzz = run_inequality_fuzz(budget=budget, seed=seed)
    section_s["inequality fuzz"] = fuzz.elapsed
    lines.extend(fuzz.summary_lines())
    for fail in fuzz.failure_lines():
        failures.append(f"inequality fuzz: {fail}")
    elapsed = time.perf_counter() - start
    lines.append("-" * 72)
    ok = not failures
    lines.append(f"selfcheck {'PASSED' if ok else 'FAILED'} in {elapsed:.2f}s")
    if failures:
        lines.append("failures (seeds reproduce the instance):")
        lines.extend(f"  - {f}" for f in failures)
    return SelfcheckResult(ok=ok, lines=lines, failures=failures, elapsed=elapsed,
                           section_s=section_s)
