"""The work one selfcheck does, the section times it keeps and prints, what
its lines check, and that its run on forked workers says what the
in-process run says, leaves no process or thread behind and forks only
where forking is safe.

Runs that must fork read `selfcheck_pool_probe.py`, run once in a fresh
interpreter whose BLAS runs one thread: this process's BLAS may run more,
and a run forks only from a process with no other thread."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ergmart.averages as averages
import ergmart.cli as cli
import ergmart.invariants as invariants
import ergmart.selfcheck as selfcheck
from ergmart.fuzz import run_inequality_fuzz
from ergmart.invariants import SECTIONS
from ergmart.operators import orbit_lcm
from ergmart.processes import default_n1_grid
from ergmart.selfcheck import run_selfcheck

_ELAPSED = re.compile(r"^selfcheck (PASSED|FAILED) in \d+\.\d{2}s$")
_PROBE = Path(__file__).with_name("selfcheck_pool_probe.py")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(selfcheck, "_usable_cpus", lambda: n)


@pytest.fixture(scope="module")
def probe():
    """What `selfcheck_pool_probe.py` printed, by case."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("the selfcheck forks only where the OS lists a process's threads")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = Path(selfcheck.__file__).parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-W", "error", str(_PROBE)], capture_output=True,
                         text=True, timeout=300, env=env)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["threads"] == 1, "the probe's BLAS runs threads of its own"
    return out


class Refused(Exception):
    pass


@pytest.fixture
def forks(monkeypatch):
    """The forks that runs ask for, each refused: this process may run
    other threads, so it must not fork."""
    asked = []

    def refuse():
        asked.append(1)
        raise Refused

    monkeypatch.setattr(os, "fork", refuse)
    return asked


def _same_run(serial, pooled):
    # every line but the elapsed-time one, which a failure list follows
    def kept(result):
        return [line for line in result["lines"] if not _ELAPSED.match(line)]

    assert kept(pooled) == kept(serial)
    assert pooled["failures"] == serial["failures"]
    assert pooled["ok"] == serial["ok"]


def test_one_kernel_per_observable_and_map(monkeypatch):
    # at budget 20 the sections build 140 kernels; a build per average, per
    # limit and per singleton-filtration cell took 260. In process, so the
    # spy sees every build: a forked worker's builds would go uncounted
    _cpus(monkeypatch, 1)
    builds = []
    real_init = averages.CesaroKernel.__init__
    monkeypatch.setattr(averages.CesaroKernel, "__init__",
                        lambda self, *args: builds.append(args) or real_init(self, *args))
    assert run_selfcheck(budget=20).ok
    assert 100 <= len(builds) <= 150


def test_section_times_are_kept_per_section(monkeypatch):
    _cpus(monkeypatch, 1)
    result = run_selfcheck(budget=2)
    assert list(result.section_s) == [name for name, _ in SECTIONS] + ["inequality fuzz"]
    assert all(t >= 0.0 for t in result.section_s.values())
    assert sum(result.section_s.values()) <= result.elapsed


def test_pooled_section_times_overlap(probe):
    pooled = probe["pairs"]["2/1"][1]
    assert pooled["forks"] == 2
    assert list(pooled["section_s"]) == [name for name, _ in SECTIONS] + ["inequality fuzz"]
    assert all(0.0 <= t <= pooled["elapsed"] for t in pooled["section_s"].values())


@pytest.mark.parametrize("budget", [2, 20, 50])
@pytest.mark.parametrize("seed", [1, 2, 20240801])
def test_pooled_run_matches_the_in_process_run(probe, budget, seed):
    serial, pooled = probe["pairs"][f"{budget}/{seed}"]
    assert serial["forks"] == 0 and pooled["forks"] == 2
    # the workers start no thread and are waited for: the caller is alone
    assert pooled["threads"] == 1
    _same_run(serial, pooled)


def test_back_to_back_runs_each_pool(probe):
    # a run that found another thread of the last one's would run in process
    assert probe["back to back"] == [2] * 5


def test_the_pool_has_one_worker_per_task_at_most(probe, monkeypatch, forks):
    # on 64 CPUs, nine workers for the nine tasks
    assert probe["many cpus"] == len(SECTIONS) + 1
    # a refused fork is raised, with the run's pipes closed
    monkeypatch.setattr(selfcheck, "_threads", lambda: 1)
    _cpus(monkeypatch, 64)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(Refused):
        run_selfcheck(budget=2)
    assert forks == [1]
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_pooled_run_reports_a_mutation_as_the_in_process_run_does(probe):
    # ineq.maximal_constant scaled by 0.9
    serial, pooled = probe["mutation"]
    assert serial["forks"] == 0 and pooled["forks"] == 2
    assert not serial["ok"] and serial["failures"]
    assert ([line for line in pooled["lines"] if line.startswith("[FAIL]")]
            == [line for line in serial["lines"] if line.startswith("[FAIL]")])
    _same_run(serial, pooled)


@pytest.mark.parametrize("case, workers", [("in process", 0), ("pooled", 2)])
def test_a_raising_section_raises_and_leaves_no_process(probe, case, workers):
    raised = probe["raising"][case]
    assert len(raised["workers"]) == workers
    assert raised["raised"] == ["SectionBroke", "section broke at seed 20240804"]
    assert raised["waitpid"] == "ChildProcessError"


@pytest.mark.parametrize("case, message", [
    ("exiting", r"selfcheck worker (\d+) exited with status 3 before it sent its results"),
    ("unpicklable", r"selfcheck worker (\d+) could not send its results: .*pickle.*"),
], ids=["exiting", "unpicklable"])
def test_a_dying_or_unsendable_worker_is_named_and_reaped(probe, case, message):
    # a task that ends its worker, or returns what pickle refuses: the run
    # raises, names the worker, and leaves no child
    failed = probe[case]
    assert len(failed["workers"]) == 2
    kind, text = failed["raised"]
    named = re.fullmatch(message, text)
    assert kind == "RuntimeError" and named
    assert int(named.group(1)) in failed["workers"]
    assert failed["waitpid"] == "ChildProcessError"


@pytest.mark.parametrize("case", ["python thread", "unlisted thread"])
def test_a_threaded_caller_runs_in_process(probe, case):
    # the unlisted thread is one `threading` does not count, as a BLAS's are
    threaded = probe[case]
    assert threaded["forks"] == 0
    assert threaded["threading_counts"] == (2 if case == "python thread" else 1)
    _same_run(probe["pairs"]["2/20240801"][0], threaded)


def test_a_wrapped_function_runs_in_process(probe):
    # what a tracer's or a spy's wrapper counts in a worker would be lost
    wrapped = probe["wrapped"]
    assert wrapped["forks"] == 0 and wrapped["calls"] > 0
    _same_run(probe["pairs"]["2/20240801"][0], wrapped)


def test_unlisted_threads_keep_the_run_in_process(monkeypatch, forks):
    # where the OS's thread list cannot be read, other threads may run
    def unreadable(path):
        raise PermissionError(path)

    monkeypatch.setattr(os, "listdir", unreadable)
    _cpus(monkeypatch, 2)
    assert selfcheck._threads() == 0
    assert run_selfcheck(budget=2).ok
    assert forks == []


def test_a_platform_without_fork_runs_in_process(monkeypatch, forks):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(selfcheck, "_threads", lambda: 1)
    _cpus(monkeypatch, 2)
    assert run_selfcheck(budget=2).ok
    assert forks == []


def test_times_are_printed_only_with_the_flag(monkeypatch, capsys):
    result = run_selfcheck(budget=2)
    monkeypatch.setattr(cli, "run_selfcheck", lambda budget, seed: result)
    assert cli.main(["selfcheck", "--budget", "2"]) == 0
    assert capsys.readouterr().out == result.render() + "\n"
    assert cli.main(["selfcheck", "--budget", "2", "--times"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(result.render() + "\n")
    times = out[len(result.render()) + 1:].splitlines()
    assert times == [f"[time] {name}: {s:.3f}s" for name, s in result.section_s.items()]
    assert [line.split(":")[0] for line in times] == (
        [f"[time] {name}" for name, _ in SECTIONS] + ["[time] inequality fuzz"])


def test_a_wrong_value_mid_path_fails_the_monotone_path_line(monkeypatch):
    # the line reads the whole n grid at the last stage, not only its end
    name = "errors vanish along monotone index paths"

    def line_ok():
        return {c.name: c.ok for c in invariants.process_convergence(3, 4)}[name]

    assert line_ok()
    real_grid, patched = invariants._grid, []

    def grid_with_a_wrong_middle(spec, n1s, n2s):
        grid = real_grid(spec, n1s, n2s)
        order = orbit_lcm(spec.maps[0])
        # the path's read ends in the limit, an n1 of None
        if tuple(n for n in n1s if n is not None) == default_n1_grid(order):
            grid[list(n1s).index(2 * order)] += 1e-6
            patched.append(order)
        return grid

    monkeypatch.setattr(invariants, "_grid", grid_with_a_wrong_middle)
    assert not line_ok()
    assert len(patched) == 10  # one path per instance


@pytest.mark.parametrize("budget, seed, flag", [
    (0, 20240801, "budget"), (-5, 20240801, "budget"), (1, -1, "seed"), (-5, -1, "budget"),
])
def test_a_budget_below_one_or_a_negative_seed_is_refused(budget, seed, flag, capsys):
    # a budget below 1 used to cut families from the fuzz plan and print
    # PASSED; a negative seed ended in a numpy traceback
    for run in (run_inequality_fuzz, run_selfcheck):
        with pytest.raises(ValueError, match=f"^{flag} must be a"):
            run(budget=budget, seed=seed)
    assert cli.main(["selfcheck", "--budget", str(budget), "--seed", str(seed)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --{flag}: must be a")
    assert "Traceback" not in captured.err
