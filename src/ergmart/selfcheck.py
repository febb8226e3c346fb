"""Full invariant and inequality suite behind `ergmart selfcheck`.

The fuzz and the eight sections depend on nothing but their own seeds, so
they run as nine tasks on up to min(usable CPUs, 9) worker processes forked
from the caller for each call and waited for before it returns. The workers
take the tasks, longest first, from one pipe and send their results back
each through a pipe of its own; the results are collected in the serial
order, so the lines are the same. Workers are forked, not spawned: a spawned
worker imports numpy and the package again, which takes about as long as a
whole budget-50 run, and a forked worker sees the caller's patched
functions. No thread is started. The tasks run in process instead when fewer
than two CPUs are usable, when the platform cannot fork, when the process
runs any other thread (forking a threaded process is unsafe, and Python 3.12
warns about it), or when the caller has wrapped one of the package's
functions (what a tracer or a spy records in a worker would stay there).
Threads are counted as the OS lists them, so a threaded BLAS's workers
count: with numpy, a forked run needs a single-threaded BLAS, e.g.
`OPENBLAS_NUM_THREADS=1`."""
from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field
from functools import partial

from .fuzz import _check_run_args, run_inequality_fuzz
from .invariants import SECTIONS

__all__ = ["SelfcheckResult", "run_selfcheck"]


@dataclass
class SelfcheckResult:
    ok: bool
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    # wall seconds per section, the fuzz under "inequality fuzz"; forked
    # sections overlap, so their sum may exceed `elapsed`
    section_s: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        return "\n".join(self.lines)

    def render_times(self) -> str:
        """One line per section, and one for the fuzz, with its wall time."""
        return "\n".join(f"[time] {name}: {seconds:.3f}s"
                         for name, seconds in self.section_s.items())


# Sections are named by their index: a worker reads SECTIONS as the
# caller had it when it forked, patched or wrapped functions included.

def _run_section(k: int, seed: int, budget: int):
    start = time.perf_counter()
    checks = SECTIONS[k][1](seed, budget)
    return checks, time.perf_counter() - start


# the longest tasks, longest first, by `--times` at budget 50; the others
# follow in SECTIONS order. A long task submitted late leaves the other
# workers idle while it finishes
_LONGEST_FIRST = ("process convergence", "inequality fuzz", "averaging laws",
                  "operator algebra")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads() -> int:
    """This process's threads as the OS lists them, a BLAS's worker threads
    included, which `threading` does not see; 0 where the list is unreadable."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _wrapped() -> bool:
    """Whether a binding of the package's modules, or a section, holds a
    wrapper (functools.wraps sets `__wrapped__`), as a tracer or a spy does."""
    bound = [fn for _, fn in SECTIONS]
    for name, module in list(sys.modules.items()):
        if module is not None and (name == __package__ or name.startswith(__package__ + ".")):
            bound.extend(vars(module).values())
    return any(hasattr(value, "__wrapped__") for value in bound)


def _run_tasks(tasks: list) -> list:
    """The tasks' results in task order, from workers forked for this call
    and waited for before it returns, or in process (see the module doc)."""
    workers = min(_usable_cpus(), len(tasks))
    if workers < 2 or not hasattr(os, "fork") or _threads() != 1 or _wrapped():
        return [task() for task in tasks]
    return _forked(tasks, workers)


def _forked(tasks: list, workers: int) -> list:
    """Runs the tasks on `workers` forked processes. The indices wait in one
    pipe, a byte each, whose write end is closed before the first fork, so a
    worker reads until EOF; each worker pickles {index: (ok, result or
    exception)} into its own pipe. Raises the exception of the first failing
    task in task order, or a RuntimeError naming a worker that ended without
    sending its results or could not pickle them."""
    queue, feed = os.pipe()
    try:
        os.write(feed, bytes(range(len(tasks))))
    finally:
        os.close(feed)
    outs: dict[int, int] = {}  # pid -> read end of the worker's pipe
    try:
        for _ in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _work(tasks, queue, write, [read, *outs.values()])
            os.close(write)
            outs[pid] = read
        sent = {pid: _read_all(read) for pid, read in outs.items()}
    except BaseException:
        for pid in outs:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for read in outs.values():
            os.close(read)
        statuses = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in outs}
    results: dict[int, tuple] = {}
    for pid, data in sent.items():
        if statuses[pid] != 0 or not data:
            how = (f"was killed by signal {-statuses[pid]}" if statuses[pid] < 0
                   else f"exited with status {statuses[pid]}")
            raise RuntimeError(f"selfcheck worker {pid} {how} before it sent its results")
        results.update(pickle.loads(data))
    for ok, value in (results[k] for k in range(len(tasks))):
        if not ok:
            raise value
    return [results[k][1] for k in range(len(tasks))]


def _work(tasks: list, queue: int, out: int, inherited: list[int]) -> None:
    """A worker's whole life: it runs the tasks whose indices it reads from
    `queue`, sends their outcomes through `out` and exits, never returning
    into the caller; any failure ends it with status 1."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        outcomes = {}
        while index := os.read(queue, 1):
            try:
                outcomes[index[0]] = (True, tasks[index[0]]())
            except Exception as exc:
                outcomes[index[0]] = (False, exc)
        try:
            data = pickle.dumps(outcomes)
        except Exception as exc:
            # what cannot be sent fails every task this worker took, by name
            error = RuntimeError(f"selfcheck worker {os.getpid()} could not send "
                                 f"its results: {exc!r}")
            data = pickle.dumps({k: (False, error) for k in outcomes})
        with open(out, "wb", closefd=False) as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def run_selfcheck(budget: int = 100, seed: int = 20240801) -> SelfcheckResult:
    """Runs every invariant section plus the inequality fuzz at the given
    budget; deterministic for a fixed (budget, seed) pair. Raises ValueError
    for a budget below 1 or a negative seed."""
    _check_run_args(budget, seed)
    start = time.perf_counter()
    tasks = {"inequality fuzz": partial(run_inequality_fuzz, budget=budget, seed=seed)}
    tasks.update((name, partial(_run_section, k, seed + k, budget))
                 for k, (name, _) in enumerate(SECTIONS))
    order = sorted(tasks, key=lambda name: (_LONGEST_FIRST.index(name)
                                            if name in _LONGEST_FIRST else len(_LONGEST_FIRST)))
    results = dict(zip(order, _run_tasks([tasks[name] for name in order])))
    lines: list[str] = []
    failures: list[str] = []
    section_s: dict[str, float] = {}
    lines.append(f"selfcheck: budget {budget}, seed {seed}")
    lines.append("-" * 72)
    for k, (sec_name, _) in enumerate(SECTIONS):
        checks, section_s[sec_name] = results[sec_name]
        for check in checks:
            status = "PASS" if check.ok else "FAIL"
            detail = f"  [{check.detail}]" if check.detail else ""
            lines.append(f"[{status}] {sec_name}: {check.name}{detail}")
            if not check.ok:
                failures.append(f"{sec_name}: {check.name} (seed {seed + k}): {check.detail}")
    fuzz = results["inequality fuzz"]
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
