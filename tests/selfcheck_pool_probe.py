"""Runs the selfcheck on forked workers and in process, in the cases the
workers must handle, and prints what each run said as one JSON object on
stdout; `test_selfcheck.py` reads it. A run forks only from a process with
no thread but its own, so run this in a fresh interpreter whose BLAS runs
one thread, with every warning an error:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python -W error tests/selfcheck_pool_probe.py
"""
import _thread
import functools
import json
import os
import threading
import time

import ergmart.fuzz as fuzz
import ergmart.inequalities as ineq
import ergmart.selfcheck as selfcheck
from ergmart.selfcheck import run_selfcheck

FORKS = []  # the pid of every worker forked, in order
_real_fork = os.fork


def _spy_fork():
    pid = _real_fork()
    if pid:
        FORKS.append(pid)
    return pid


os.fork = _spy_fork


def run(cpus, **kwargs):
    """A run on `cpus` usable CPUs: what it reported, the workers it forked
    and the threads the OS lists as soon as it returns."""
    selfcheck._usable_cpus = lambda: cpus
    made = len(FORKS)
    res = run_selfcheck(**kwargs)
    return {"lines": res.lines, "failures": res.failures, "ok": res.ok,
            "section_s": res.section_s, "elapsed": res.elapsed,
            "forks": len(FORKS) - made, "threads": selfcheck._threads()}


def pairs():
    return {f"{budget}/{seed}": [run(1, budget=budget, seed=seed), run(2, budget=budget, seed=seed)]
            for budget in (2, 20, 50) for seed in (1, 2, 20240801)}


def mutation():
    real = ineq.maximal_constant
    ineq.maximal_constant = lambda *a, **k: 0.9 * real(*a, **k)
    try:
        return [run(1, budget=20), run(2, budget=20)]
    finally:
        ineq.maximal_constant = real


class SectionBroke(Exception):
    pass


def _broken_section(seed, budget):
    raise SectionBroke(f"section broke at seed {seed}")


def _exiting_section(seed, budget):
    os._exit(3)


def _unpicklable_section(seed, budget):
    return (lambda: None), 0.0


def _no_child() -> str:
    try:
        os.waitpid(-1, os.WNOHANG)
        return "returned"
    except ChildProcessError:
        return "ChildProcessError"


def failing_section(cpus, section):
    """A run whose fourth section is `section`: what it raised, the workers
    it forked, and whether a child is left."""
    real = selfcheck.SECTIONS
    sections = list(real)
    sections[3] = (sections[3][0], section)
    selfcheck.SECTIONS = sections
    made = len(FORKS)
    try:
        run(cpus, budget=20)
        raised = None
    except Exception as exc:
        raised = [type(exc).__name__, str(exc)]
    finally:
        selfcheck.SECTIONS = real
    return {"raised": raised, "workers": FORKS[made:], "waitpid": _no_child()}


def wrapped():
    """A run while a counting wrapper, as a tracer installs, holds the
    fuzz's sup_field."""
    calls = []
    real = fuzz.sup_field

    @functools.wraps(real)
    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    fuzz.sup_field = counting
    try:
        return {**run(2, budget=2), "calls": len(calls)}
    finally:
        fuzz.sup_field = real


def with_thread(start):
    """A run while another thread, started by `start(target)`, waits."""
    lock = threading.Lock()
    lock.acquire()
    start(lock.acquire)
    try:
        seen = threading.active_count()
        return {**run(2, budget=2), "threading_counts": seen}
    finally:
        lock.release()
        deadline = time.monotonic() + 10
        while selfcheck._threads() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)


if __name__ == "__main__":
    out = {"threads": selfcheck._threads(), "pairs": pairs(), "mutation": mutation(),
           "raising": {"in process": failing_section(1, _broken_section),
                       "pooled": failing_section(2, _broken_section)},
           "exiting": failing_section(2, _exiting_section),
           "unpicklable": failing_section(2, _unpicklable_section),
           "back to back": [run(2, budget=2)["forks"] for _ in range(5)],
           "many cpus": run(64, budget=2)["forks"],
           "wrapped": wrapped(),
           "python thread": with_thread(lambda target: threading.Thread(target=target).start()),
           # a thread `threading` does not list, as a BLAS's workers are
           "unlisted thread": with_thread(lambda target: _thread.start_new_thread(target, ()))}
    print(json.dumps(out))
