import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ergmart.cli import main
from ergmart.config import ConfigError, build_experiment
from ergmart.inequalities import APPLICABILITY_RULES, dominant_check, epsilon_sweep
from ergmart.observables import linf_norm, lp_norm
from ergmart.processes import evaluate, stabilization_periods, stabilized_reference
from ergmart.runner import execute_plan

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.json"


def demo_config():
    return json.loads(DEMO.read_text())


class TestValidation:
    def test_demo_validates(self):
        plan = build_experiment(demo_config())
        assert plan.spec.d_maps == 1
        assert plan.n1_grid[-1] == 16
        assert plan.n2_grid == (0, 1, 2)

    def test_p_of_one_rejected_with_path(self):
        cfg = demo_config()
        cfg["checks"][0]["p"] = 1
        with pytest.raises(ConfigError, match=r"checks\[0\]\.p"):
            build_experiment(cfg)

    def test_missing_space(self):
        cfg = demo_config()
        del cfg["space"]
        with pytest.raises(ConfigError, match="space"):
            build_experiment(cfg)

    def test_bad_weights_path(self):
        cfg = demo_config()
        cfg["space"] = {"weights": [1.0, -1.0]}
        with pytest.raises(ConfigError, match=r"space\.weights"):
            build_experiment(cfg)

    def test_bad_stage_labels_path(self):
        cfg = demo_config()
        cfg["filtrations"][0]["stages"][1] = [0, 0, 1]
        with pytest.raises(ConfigError, match=r"filtrations\[0\]\.stages\[1\]"):
            build_experiment(cfg)

    def test_non_monotone_chain(self):
        cfg = demo_config()
        cfg["filtrations"][0]["stages"] = [[0, 0, 1, 1], [0, 1, 2, 3]]
        with pytest.raises(ConfigError, match="monotonicity"):
            build_experiment(cfg)

    def test_increasing_direction_blocks_me_checks(self):
        cfg = demo_config()
        cfg["filtrations"][0]["direction"] = "increasing"
        cfg["filtrations"][0]["stages"] = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]]
        with pytest.raises(ConfigError, match="decreasing"):
            build_experiment(cfg)

    def test_irrational_weight_frequency_rejected(self):
        cfg = demo_config()
        cfg["weight_seqs"] = [{"terms": [[1.0, 1 / math.pi, 0.0]]}]
        with pytest.raises(ConfigError, match="rational"):
            build_experiment(cfg)

    def test_rational_pair_frequency_accepted(self):
        cfg = demo_config()
        cfg["weight_seqs"] = [{"terms": [[0.5, [1, 3], 0.0]]}]
        plan = build_experiment(cfg)
        assert plan.spec.is_weighted

    def test_norm_q_inf(self):
        cfg = demo_config()
        cfg["norm_q"] = "inf"
        assert math.isinf(build_experiment(cfg).spec.norm.q)

    def test_seed_override(self):
        plan = build_experiment(demo_config(), seed_override=99)
        assert plan.seed == 99
        assert plan.config_echo["seed"] == 99


def _multi_config(process, check):
    cfg = demo_config()
    cfg["maps"].append({"kind": "power", "of": 0, "exponent": 2})
    cfg["process"] = process
    cfg["checks"] = [check]
    return cfg


def _increasing_config():
    cfg = demo_config()
    cfg["filtrations"][0]["direction"] = "increasing"
    cfg["filtrations"][0]["stages"] = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]]
    cfg["checks"] = [{"type": "dominant", "p": 2.0}]
    return cfg


# one case per applicability rule, in table order: a config that breaks it and
# the library call that must refuse the same spec
RULE_CASES = [
    (_increasing_config(), lambda spec: dominant_check(spec, 2.0)),
    (_multi_config("martingale_ergodic", {"type": "dominant", "p": 2.5}),
     lambda spec: dominant_check(spec, 2.5)),
    (_multi_config("ergodic_martingale", {"type": "maximal", "p": 2.0}),
     lambda spec: epsilon_sweep(spec, 2.0, [1.0])),
]


def test_rule_cases_cover_the_table():
    assert len(RULE_CASES) == len(APPLICABILITY_RULES)


@pytest.mark.parametrize("index", range(len(RULE_CASES)))
def test_applicability_rule_config_and_library_agree(index):
    field, message, _ = APPLICABILITY_RULES[index]
    cfg, library_call = RULE_CASES[index]
    with pytest.raises(ConfigError) as cfg_err:
        build_experiment(cfg)
    assert cfg_err.value.path == f"checks[0]{field}"
    assert str(cfg_err.value) == f"checks[0]{field}: {message}"
    spec = build_experiment(dict(cfg, checks=[])).spec
    with pytest.raises(ValueError) as lib_err:
        library_call(spec)
    assert str(lib_err.value) == message


def _weight_term(term):
    return lambda cfg: cfg.update(weight_seqs=[{"terms": [term]}])


def _envelope(value):
    return lambda cfg: cfg.update(weight_seqs=[{"kind": "random", "envelope": value}])


# config edits that must exit 1 with the path each error names (most used to
# end in a raw traceback; the three *_above_* cases guard the int64 averaging
# lengths, the two 1e308 cases the float range of weighted sums)
BAD_VALUES = {
    "auto0": (lambda cfg: cfg["checks"][1].update(epsilons="auto0"), "checks[1].epsilons"),
    "trace_p_inf": (lambda cfg: cfg.update(trace_p=math.inf), "trace_p"),
    "p_inf": (lambda cfg: cfg["checks"][0].update(p=math.inf), "checks[0].p"),
    "epsilon_nan": (lambda cfg: cfg["checks"][1].update(epsilons=[math.nan]),
                    "checks[1].epsilons"),
    "amplitude_nan": (_weight_term([math.nan, [1, 3], 0.0]), "weight_seqs[0].terms[0]"),
    "amplitude_inf": (_weight_term([math.inf, [1, 3], 0.0]), "weight_seqs[0].terms[0]"),
    "phase_nan": (_weight_term([0.5, [1, 3], math.nan]), "weight_seqs[0].terms[0]"),
    "phase_inf": (_weight_term([0.5, [1, 3], -math.inf]), "weight_seqs[0].terms[0]"),
    "amplitude_string": (_weight_term(["x", [1, 3], 0.0]), "weight_seqs[0].terms[0]"),
    "numerator_string": (_weight_term([0.5, ["a", 3], 0.0]), "weight_seqs[0].terms[0]"),
    "envelope_string": (_envelope("x"), "weight_seqs[0].envelope"),
    "envelope_nan": (_envelope(math.nan), "weight_seqs[0].envelope"),
    "envelope_inf": (_envelope(math.inf), "weight_seqs[0].envelope"),
    "envelope_zero": (_envelope(0), "weight_seqs[0].envelope"),
    "amplitudes_zero": (_weight_term([0, 0, 0]), "weight_seqs[0].terms"),
    "amplitudes_zero_rational": (_weight_term([0, [1, 4], 0]), "weight_seqs[0].terms"),
    "maximal_p_500_auto": (lambda cfg: cfg["checks"][1].update(p=500), "checks[1]"),
    "epsilon_underflow": (lambda cfg: cfg["checks"][1].update(epsilons=[1e-200]),
                          "checks[1]"),
    "maximal_p_1e308": (lambda cfg: cfg["checks"][1].update(p=1e308, epsilons=[0.5]),
                        "checks[1]"),
    "denominator_above_2_31": (_weight_term([0.5, [1, 2**31 + 1], 0.0]), "weight_seqs[0].terms"),
    "period_above_2_62": (lambda cfg: cfg.update(weight_seqs=[{"terms": [
        [0.5, [1, 2**31 - 1], 0.0], [0.5, [1, 2**31 - 3], 0.0]]}]), "weight_seqs[0]"),
    "n1_above_2_62": (lambda cfg: cfg.update(grids={"n1": [2**62], "n2": "all"}), "grids.n1"),
    "amplitude_1e308": (_weight_term([1e308, [1, 3], 0.0]), "weight_seqs[0].terms"),
    "amplitudes_1e308_twice": (lambda cfg: cfg.update(weight_seqs=[{"terms": [
        [1e308, [1, 3], 0.0], [1e308, [1, 4], 0.0]]}]), "weight_seqs[0].terms"),
}


@pytest.mark.parametrize("mutate,path", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_values_exit_1_with_path(tmp_path, capsys, mutate, path):
    cfg = demo_config()
    mutate(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))  # NaN and Infinity are written as JSON extensions
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("p", [400, 1e308], ids=["dominant_p_400", "dominant_p_1e308"])
def test_large_p_dominant_runs(tmp_path, p):
    # |f|_p^p leaves the float range at these p, while |f|_p is 7 (mass 1/4)^(1/p)
    # up to the other points' share, (5/7)^p < 1e-58
    rhs = (p / (p - 1)) ** 2 * 7 * 0.25 ** (1 / p)
    cfg = demo_config()
    cfg["checks"][0]["p"] = p
    path = tmp_path / "large_p.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    dominant = json.loads((tmp_path / "o" / "reports.json").read_text())[0]
    assert dominant["rhs"] == pytest.approx(rhs, rel=1e-12)
    assert dominant["satisfied"] and 6.9 < dominant["lhs"] <= dominant["rhs"]


def _long_orbit_config():
    """N = 64 with a map of order 840 and weights of period 72, so the period is
    lcm(840, 72) = 2520: below the 3360 of box_factor 4."""
    perm, start = list(range(64)), 0
    for length in (8, 7, 5, 3) * 2 + (8, 7, 3):
        perm[start:start + length] = perm[start + 1:start + length] + [start]
        start += length
    values = [[math.sin(3 * i + 1), math.cos(5 * i)] for i in range(64)]
    cfg = demo_config()
    cfg.update(
        space={"size": 64, "weights": "uniform"},
        maps=[{"kind": "explicit", "perm": perm}],
        filtrations=[{"kind": "explicit", "direction": "decreasing",
                      "stages": [[i // size for i in range(64)] for size in (1, 4, 16, 64)]}],
        observable={"kind": "explicit", "values": values},
        weight_seqs=[{"terms": [[0.4, [1, 8], 0.3], [0.6, [2, 9], 1.0]]}],
    )
    return cfg


@pytest.mark.parametrize("make_config", [demo_config, _long_orbit_config],
                         ids=["demo", "long_orbit"])
def test_huge_box_factor_costs_one_period(tmp_path, make_config):
    # the sup over n <= 10**7 * order is built over n <= P, so the run is as
    # fast as at box_factor 4, reports the same lhs and keeps the box as given
    def run(factor):
        cfg = make_config()
        for chk in cfg["checks"]:
            chk["box_factor"] = factor
        path, out = tmp_path / f"{factor}.json", tmp_path / f"out{factor}"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "ergmart.cli", "run", "--config",
                              str(path), "--out", str(out)],
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        return time.perf_counter() - start, json.loads((out / "reports.json").read_text())

    elapsed, huge = run(10**7)
    _, default = run(4)
    assert elapsed < 1.0
    (order,) = build_experiment(make_config()).spec.orbit_lcms()
    assert all(r["truncation"]["n_max"] == [10**7 * order] for r in huge)
    assert [r.get("lhs", r.get("sup_functional")) for r in huge] == \
           [r.get("lhs", r.get("sup_functional")) for r in default]


class TestRunner:
    def test_demo_outputs(self, tmp_path):
        plan = build_experiment(demo_config())
        result = execute_plan(plan, tmp_path)
        assert result.ok
        reports = json.loads((tmp_path / "reports.json").read_text())
        assert reports and all(r["satisfied"] for r in reports)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "n1,n2,lp_error,sup_error"
        last = lines[-1].split(",")
        assert float(last[2]) <= 1e-12 and float(last[3]) <= 1e-12

    def test_csv_roundtrip_within_ulp(self, tmp_path):
        plan = build_experiment(demo_config())
        execute_plan(plan, tmp_path)
        from ergmart.processes import convergence_trace
        trace = convergence_trace(plan.spec, plan.n1_grid, plan.n2_grid, plan.trace_p)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()[1:]
        for row, line in zip(trace.rows, lines):
            _, _, lp_txt, sup_txt = line.split(",")
            assert float(lp_txt) == row.lp_error  # 17 significant digits round-trip
            assert float(sup_txt) == row.sup_error

    def test_manifest_roundtrip_reproduces_run(self, tmp_path):
        plan = build_experiment(demo_config())
        execute_plan(plan, tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        plan2 = build_experiment(manifest["config"])
        execute_plan(plan2, tmp_path / "b")
        for name in ("trace.csv", "reports.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_weighted_run_uses_stabilized_reference(self, tmp_path):
        cfg = demo_config()
        cfg["weight_seqs"] = [{"terms": [[0.8, [1, 3], 0.0]]}]
        cfg["grids"] = {"n1": [12, 24, 36, 48], "n2": "all"}
        cfg["checks"] = [{"type": "dominant", "p": 2.0}]
        plan = build_experiment(cfg)
        result = execute_plan(plan, tmp_path)
        assert result.ok
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        last = lines[-1].split(",")
        assert float(last[2]) <= 1e-12  # period multiples hit the reference exactly

    def test_exact_pair_frequency_runs(self, tmp_path):
        cfg = demo_config()
        cfg["weight_seqs"] = [{"terms": [[1.0, [1, 5000], 0.0]]}]
        path = tmp_path / "exact.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        spec = build_experiment(cfg).spec
        (period,) = stabilization_periods(spec)
        assert period == math.lcm(4, 5000)
        gap = evaluate(spec, 2 * period, spec.last_stages) - stabilized_reference(spec)
        assert lp_norm(gap, 2.0) <= 1e-9 and linf_norm(gap) <= 1e-9

    def test_failing_check_flags_run(self, tmp_path, monkeypatch):
        import ergmart.inequalities as ineq
        orig = ineq.dominant_constant
        monkeypatch.setattr(ineq, "dominant_constant",
                            lambda *a, **k: orig(*a, **k) / 100.0)
        plan = build_experiment(demo_config())
        result = execute_plan(plan, tmp_path)
        assert result.any_check_failed

    def test_one_sup_build_per_spec_and_box(self, tmp_path, monkeypatch):
        import ergmart.inequalities as ineq
        builds = []
        real_build = ineq._build_sup_field
        monkeypatch.setattr(ineq, "_build_sup_field",
                            lambda spec, box: builds.append(box) or real_build(spec, box))
        # dominant, maximal with an auto grid and Orlicz, all on one box
        execute_plan(build_experiment(demo_config()), tmp_path / "demo")
        assert len(builds) == 1
        # period lcm(4, 3) = 12: boxes that differ below it are built apart,
        # boxes that differ only past it share the build over n <= 12
        cfg = demo_config()
        cfg["weight_seqs"] = [{"terms": [[0.8, [1, 3], 0.0]]}]
        cfg["checks"] = [{"type": "dominant", "p": 2.0, "box_factor": k} for k in (1, 2, 4, 8)]
        builds.clear()
        execute_plan(build_experiment(cfg), tmp_path / "boxes")
        assert [box.n_max for box in builds] == [(4,), (8,), (12,)]

    def test_patched_sup_field_reaches_every_check(self, tmp_path, monkeypatch):
        import ergmart.inequalities as ineq

        def reports(out):
            execute_plan(build_experiment(demo_config()), out)
            return json.loads((out / "reports.json").read_text())

        real = reports(tmp_path / "real")
        orig_sup = ineq.sup_field
        monkeypatch.setattr(ineq, "sup_field",
                            lambda spec, box=None: 1.1 * orig_sup(spec, box))
        patched = reports(tmp_path / "patched")
        spec = build_experiment(demo_config()).spec
        field = 1.1 * orig_sup(spec).values[:, 0]
        dominant, *maximal, orlicz = zip(real, patched)
        assert dominant[1]["lhs"] == pytest.approx(1.1 * dominant[0]["lhs"], rel=1e-12)
        assert orlicz[1]["sup_functional"] != orlicz[0]["sup_functional"]
        # the auto grid comes from the real field, so a level's mass moves only
        # where a point's sup lies in [eps / 1.1, eps); every mass must be the
        # patched field's
        for _, rep in maximal:
            assert rep["lhs"] == pytest.approx(spec.space.weights[field >= rep["epsilon"]].sum())
        assert any(a["lhs"] != b["lhs"] for a, b in maximal)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_run_and_exit_codes(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", str(DEMO), "--out", str(out)) == 0
        assert (out / "manifest.json").exists()

    def test_validation_error_exit_1(self, tmp_path, capsys):
        cfg = demo_config()
        cfg["checks"][0]["p"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = self.run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "checks[0].p" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # no partial files

    def test_byte_identical_reruns_subprocess(self, tmp_path):
        for sub in ("o1", "o2"):
            res = subprocess.run(
                [sys.executable, "-m", "ergmart.cli", "run", "--config", str(DEMO),
                 "--out", str(tmp_path / sub)],
                capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
        for name in ("trace.csv", "reports.json", "manifest.json"):
            assert (tmp_path / "o1" / name).read_bytes() == \
                   (tmp_path / "o2" / name).read_bytes()

    def test_gen_fragments_validate(self, capsys):
        assert self.run_cli("gen", "--kind", "space", "--seed", "3", "--size", "6") == 0
        space_frag = json.loads(capsys.readouterr().out)
        assert self.run_cli("gen", "--kind", "filtration", "--seed", "4",
                            "--size", "6") == 0
        filt_frag = json.loads(capsys.readouterr().out)
        assert self.run_cli("gen", "--kind", "observable", "--seed", "5",
                            "--size", "6") == 0
        obs_frag = json.loads(capsys.readouterr().out)
        assert self.run_cli("gen", "--kind", "map", "--seed", "6", "--size", "6") == 0
        map_frag = json.loads(capsys.readouterr().out)
        cfg = {
            "seed": 1,
            "space": {"size": 6, "weights": "uniform"},
            "maps": [map_frag],
            "filtrations": [filt_frag],
            "observable": obs_frag,
            "process": "martingale_ergodic",
            "checks": [{"type": "dominant", "p": 2.0}],
        }
        plan = build_experiment(cfg)
        assert plan.spec.space.size == 6
        assert json.loads(json.dumps(space_frag))["weights"]

    def test_gen_deterministic(self, capsys):
        self.run_cli("gen", "--kind", "map", "--seed", "11", "--size", "8")
        first = capsys.readouterr().out
        self.run_cli("gen", "--kind", "map", "--seed", "11", "--size", "8")
        assert capsys.readouterr().out == first

    def test_selfcheck_exit_codes(self, capsys, monkeypatch):
        assert self.run_cli("selfcheck", "--budget", "20") == 0
        capsys.readouterr()
        import ergmart.inequalities as ineq
        orig = ineq.maximal_constant
        monkeypatch.setattr(ineq, "maximal_constant",
                            lambda *a, **k: 0.9 * orig(*a, **k))
        assert self.run_cli("selfcheck", "--budget", "20") == 2
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_selfcheck_table_deterministic_and_fast(self):
        import time
        from ergmart.selfcheck import run_selfcheck
        start = time.perf_counter()
        first = run_selfcheck(budget=100)
        elapsed = time.perf_counter() - start
        second = run_selfcheck(budget=100)
        # identical table up to the trailing wall-clock line
        assert first.lines[:-1] == second.lines[:-1]
        assert first.ok and second.ok
        assert elapsed < 60.0
