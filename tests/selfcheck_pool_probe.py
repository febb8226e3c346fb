"""Runs the selfcheck pooled and in process, in the cases the pool must
handle, and prints what each run said as one JSON object on stdout;
`test_selfcheck.py` reads it. The pool needs a process with no thread but
its own, so run it in a fresh interpreter whose BLAS runs one thread, with
every warning an error:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python -W error tests/selfcheck_pool_probe.py
"""
import _thread
import concurrent.futures
import functools
import json
import multiprocessing
import os
import threading
import time

import ergmart.fuzz as fuzz
import ergmart.inequalities as ineq
import ergmart.selfcheck as selfcheck
from ergmart.selfcheck import run_selfcheck

POOLS = []  # the worker count of every pool made, in order


class SpyPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers=None, **kwargs):
        POOLS.append(max_workers)
        super().__init__(max_workers, **kwargs)


concurrent.futures.ProcessPoolExecutor = SpyPool


def run(cpus, **kwargs):
    """A run on `cpus` usable CPUs: what it reported and the pools it made."""
    selfcheck._usable_cpus = lambda: cpus
    made = len(POOLS)
    res = run_selfcheck(**kwargs)
    return {"lines": res.lines, "failures": res.failures, "ok": res.ok,
            "section_s": res.section_s, "elapsed": res.elapsed, "pools": POOLS[made:]}


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


def raising_section(cpus):
    real = selfcheck.SECTIONS
    sections = list(real)
    sections[3] = (sections[3][0], _broken_section)
    selfcheck.SECTIONS = sections
    made = len(POOLS)
    try:
        run(cpus, budget=20)
        raised = None
    except Exception as exc:
        raised = [type(exc).__name__, str(exc)]
    finally:
        selfcheck.SECTIONS = real
    try:
        os.waitpid(-1, os.WNOHANG)
        waitpid = "returned"
    except ChildProcessError:
        waitpid = "ChildProcessError"
    return {"raised": raised, "pools": POOLS[made:], "waitpid": waitpid,
            "children": len(multiprocessing.active_children())}


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
    forks = []
    real_fork = os.fork
    os.fork = lambda: forks.append(1) or real_fork()
    lock = threading.Lock()
    lock.acquire()
    start(lock.acquire)
    try:
        seen = threading.active_count()
        return {**run(2, budget=2), "forks": len(forks), "threading_counts": seen}
    finally:
        lock.release()
        os.fork = real_fork
        deadline = time.monotonic() + 10
        while selfcheck._threads() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)


if __name__ == "__main__":
    out = {"threads": selfcheck._threads(), "pairs": pairs(), "mutation": mutation(),
           "raising": {"in process": raising_section(1), "pooled": raising_section(2)},
           "back to back": [run(2, budget=2)["pools"] for _ in range(5)],
           "wrapped": wrapped(),
           "python thread": with_thread(lambda target: threading.Thread(target=target).start()),
           # a thread `threading` does not list, as a BLAS's workers are
           "unlisted thread": with_thread(lambda target: _thread.start_new_thread(target, ()))}
    print(json.dumps(out))
