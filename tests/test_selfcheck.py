"""The work one selfcheck does, the section times it keeps and prints, and
what its lines check."""
import pytest

import ergmart.averages as averages
import ergmart.cli as cli
import ergmart.invariants as invariants
from ergmart.fuzz import run_inequality_fuzz
from ergmart.invariants import SECTIONS
from ergmart.operators import orbit_lcm
from ergmart.processes import default_n1_grid
from ergmart.selfcheck import run_selfcheck


def test_one_kernel_per_observable_and_map(monkeypatch):
    # at budget 20 the sections build 140 kernels; a build per average, per
    # limit and per singleton-filtration cell took 260
    builds = []
    real_init = averages.CesaroKernel.__init__
    monkeypatch.setattr(averages.CesaroKernel, "__init__",
                        lambda self, *args: builds.append(args) or real_init(self, *args))
    assert run_selfcheck(budget=20).ok
    assert len(builds) <= 150


def test_section_times_are_kept_per_section():
    result = run_selfcheck(budget=2)
    assert list(result.section_s) == [name for name, _ in SECTIONS] + ["inequality fuzz"]
    assert all(t >= 0.0 for t in result.section_s.values())
    assert sum(result.section_s.values()) <= result.elapsed


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
        if tuple(n1s) == default_n1_grid(order):
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
