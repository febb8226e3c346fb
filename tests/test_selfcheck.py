"""The work one selfcheck does, and the section times it keeps."""
import ergmart.averages as averages
from ergmart.invariants import SECTIONS
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
