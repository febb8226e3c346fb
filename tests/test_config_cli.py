import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import ergmart.inequalities as ineq
from ergmart.cli import main
from ergmart.config import ConfigError, build_experiment
from ergmart.inequalities import APPLICABILITY_RULES, dominant_check, epsilon_sweep
from ergmart.observables import linf_norm, lp_norm
from ergmart.processes import evaluate
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


def _explicit_perm(last):
    return lambda cfg: cfg.update(maps=[{"kind": "explicit", "perm": [1, 2, 3, last]}])


def _stage_label(last):
    return lambda cfg: cfg["filtrations"][0]["stages"].__setitem__(1, [0, 0, 1, last])


def _last_value(value):
    return lambda cfg: cfg["observable"]["values"].__setitem__(3, [value])


def _random_scale(scale):
    return lambda cfg: cfg.update(observable={"kind": "random", "dim": 2, "scale": scale})


# config edits that must exit 1 with the path each error names (most used to
# end in a raw traceback; the three *_above_* cases guard the int64 averaging
# lengths, the 1e308 and 1.7e308 cases the float range of averages and
# weighted sums)
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
    # perm entries and stage labels are integers, refused at the list's path
    "perm_entry_1e40": (_explicit_perm(10**40), "maps[0].perm"),
    "perm_entry_inf": (_explicit_perm(math.inf), "maps[0].perm"),
    "perm_entry_null": (_explicit_perm(None), "maps[0].perm"),
    "perm_entry_4": (_explicit_perm(4), "maps[0].perm"),
    "perm_entry_true": (_explicit_perm(True), "maps[0].perm"),
    "perm_floats": (lambda cfg: cfg.update(maps=[{"kind": "explicit",
                                                  "perm": [1.5, 2.5, 3.9, 0.2]}]),
                    "maps[0].perm"),
    "perm_strings": (lambda cfg: cfg.update(maps=[{"kind": "explicit",
                                                   "perm": ["1", "2", "3", False]}]),
                     "maps[0].perm"),
    "stage_label_1e40": (_stage_label(10**40), "filtrations[0].stages"),
    "stage_label_inf": (_stage_label(math.inf), "filtrations[0].stages"),
    "stage_label_float": (_stage_label(1.0), "filtrations[0].stages"),
    "stage_label_string": (_stage_label("1"), "filtrations[0].stages"),
    "stage_label_true": (_stage_label(True), "filtrations[0].stages"),
    # a key that no FIELDS row names is refused at its path, not ignored
    "grids_key_unknown": (lambda cfg: cfg.update(grids={"n1": "auto", "nn2": [0]}),
                          "grids.nn2"),
    "top_key_unknown": (lambda cfg: cfg.update(sead=1), "sead"),
    "check_key_unknown": (lambda cfg: cfg["checks"][0].update(box=2), "checks[0].box"),
    "norm_q_inf": (lambda cfg: cfg.update(norm_q=math.inf), "norm_q"),
    "observable_1_7e308": (_last_value(1.7e308), "observable.values"),
    "observable_minus_1_7e308": (_last_value(-1.7e308), "observable.values"),
    # JSON true and false are Python ints, yet no integer field takes them
    "box_factor_true": (lambda cfg: cfg["checks"][0].update(box_factor=True),
                        "checks[0].box_factor"),
    "m_false": (lambda cfg: cfg["checks"][2].update(m=False), "checks[2].m"),
    "n1_true": (lambda cfg: cfg.update(grids={"n1": [True, 2], "n2": "all"}), "grids.n1"),
    "n2_false": (lambda cfg: cfg.update(grids={"n1": "auto", "n2": [False, 1]}), "grids.n2"),
    "numerator_true": (_weight_term([0.5, [True, 2], 0.0]), "weight_seqs[0].terms[0]"),
    "scale_true": (_random_scale(True), "observable.scale"),
    "scale_nan": (_random_scale(math.nan), "observable.scale"),
    "scale_inf": (_random_scale(math.inf), "observable.scale"),
    # an unknown kind or style is refused at its own path, not read as the default
    "space_kind_unknown": (lambda cfg: cfg.update(space={"kind": "bogus", "size": 4,
                                                         "weights": "uniform"}), "space.kind"),
    "weight_kind_unknown": (lambda cfg: cfg.update(weight_seqs=[{"kind": "bogus"}]),
                            "weight_seqs[0].kind"),
    "style_unknown": (lambda cfg: cfg.update(observable={"kind": "random", "dim": 2,
                                                         "style": "bogus"}),
                      "observable.style"),
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


@pytest.mark.parametrize("norm_q,values,small", [
    # point norms near 1.4e200: the sup field is finite, and so is each
    # maximal bound C (|f|_2 / eps)^2, though |f|_2^2 is not
    (2, [[1, 1e200], [3, 2], [5, 1], [1e200, 3]], False),
    # 5^1000 leaves the float range, the l^1000 norm of (5, 1) is 5
    (1000, [[1, 3], [3, 2], [5, 1], [2, 3]], True),
], ids=["values_1e200", "norm_q_1000"])
def test_overflowing_point_norms_run(tmp_path, norm_q, values, small):
    cfg = demo_config()
    cfg["norm_q"] = norm_q
    cfg["observable"]["values"] = values
    cfg_path = tmp_path / "norms.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    reports = json.loads((tmp_path / "o" / "reports.json").read_text())
    assert all(rep["satisfied"] for rep in reports)
    assert all(math.isfinite(rep[key]) for rep in reports for key in ("lhs", "rhs") if key in rep)
    if small:
        assert reports[0]["lhs"] <= 5.0 < reports[0]["rhs"]


def test_masses_that_overflow_the_input_term_run(tmp_path):
    # |f|_2^2 = sum mu f^2 leaves the float range through the masses, not the
    # values; every C (|f|_2 / eps)^2 is a float
    cfg = {"space": {"weights": [1e300, 1e300]}, "maps": [{"kind": "identity"}],
           "filtrations": [{"stages": [[0, 1], [0, 0]]}], "observable": {"values": [1e7, 8e7]},
           "checks": [{"type": "maximal", "p": 2}]}
    cfg_path = tmp_path / "masses.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    reports = json.loads((tmp_path / "o" / "reports.json").read_text())
    assert all(rep["satisfied"] and math.isfinite(rep["rhs"]) for rep in reports)
    assert reports[0]["lhs"] == 2e300 <= reports[0]["rhs"]


@pytest.mark.parametrize("values,maximal", [
    # |f|_2^2 overflows, and so does (|f|_2 / eps)^2 at this epsilon
    ([[1e200], [3], [5], [7]], {"epsilons": [1e-100]}),
    # the demo values: |f|_500^500 overflows only because p is large
    ([[1], [3], [5], [7]], {"p": 500}),
], ids=["values_1e200_epsilon_1e-100", "demo_values_p_500"])
def test_other_maximal_overflows_name_the_check(tmp_path, capsys, values, maximal):
    cfg = demo_config()
    cfg["observable"]["values"] = values
    cfg["checks"][1].update(maximal)
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert ("error: checks[1]: the bound is not a finite float; use a smaller p or larger "
            "epsilons" in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("m", [10**400, 10**6], ids=["m_1e400", "m_1e6"])
def test_orlicz_overflow_names_m(tmp_path, capsys, m):
    # log(7)**m leaves the float range: 10**400 is past a float, 10**6 overflows to inf
    cfg = demo_config()
    cfg["checks"][2]["m"] = m
    cfg_path = tmp_path / "orlicz.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: checks[2].m: the Orlicz functionals are not "
                                       "finite floats at this m; use a smaller m\n")
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


def _masses_config(weights, values):
    return {"space": {"weights": weights}, "maps": [{"kind": "identity"}],
            "filtrations": [{"stages": [list(range(len(weights))), [0] * len(weights)]}],
            "observable": {"values": values}, "checks": [{"type": "dominant", "p": 2}]}


@pytest.mark.filterwarnings("error")  # an overflow warning fails the case
@pytest.mark.parametrize("weights, values, code", [
    # the masses sum to inf
    ([1e308, 1e308, 1e308], [1.0, 2.0, 3.0], 1),
    # a finite total mass, but mass times value overflows in the block means
    ([1e300, 1e300], [1e10, 2e10], 1),
    # the total mass times the largest value, 1.796e308, is just below the bound
    ([1e300, 1e300], [1e7, 8.98e7], 0),
], ids=["masses_sum_inf", "mass_times_value_inf", "just_under_the_bound"])
def test_large_point_masses_exit_at_the_weights(tmp_path, capsys, weights, values, code):
    path = tmp_path / "masses.json"
    path.write_text(json.dumps(_masses_config(weights, values)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: space.weights: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()
    else:
        assert not err
        reports = json.loads((tmp_path / "o" / "reports.json").read_text())
        assert reports[0]["satisfied"] and math.isfinite(reports[0]["rhs"])


def test_a_deeply_nested_config_is_not_valid_json(tmp_path, capsys):
    # valid JSON, but the decoder recurses once per level; and bytes that
    # no JSON encoding decodes
    path = tmp_path / "bad.json"
    for text in (b'{"space": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", b"\xff{}"):
        path.write_bytes(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()


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
def test_huge_box_factor_costs_one_period(tmp_path, make_config, monkeypatch):
    # the sup over n <= 10**7 * order is built over n <= P: the run builds
    # no row past the period, reports the same lhs as at box_factor 4 and
    # keeps the box as given
    def write(factor):
        cfg = make_config()
        for chk in cfg["checks"]:
            chk["box_factor"] = factor
        path = tmp_path / f"{factor}.json"
        path.write_text(json.dumps(cfg))
        return path

    def run(factor):
        out = tmp_path / f"out{factor}"
        res = subprocess.run([sys.executable, "-m", "ergmart.cli", "run", "--config",
                              str(write(factor)), "--out", str(out)],
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        return json.loads((out / "reports.json").read_text())

    huge, default = run(10**7), run(4)
    spec = build_experiment(make_config()).spec
    (order,) = spec.orbit_lcms()
    assert all(r["truncation"]["n_max"] == [10**7 * order] for r in huge)
    assert [r.get("lhs", r.get("sup_functional")) for r in huge] == \
           [r.get("lhs", r.get("sup_functional")) for r in default]
    # in process: every stack the sup pass builds ends at or before the period
    stops, real = [], ineq.running_rows

    def spy(*args):
        for start, chunk in real(*args):
            stops.append(start + len(chunk))
            yield start, chunk

    monkeypatch.setattr(ineq, "running_rows", spy)
    assert main(["run", "--config", str(write(10**7)), "--out", str(tmp_path / "in")]) == 0
    (period,) = spec.periods()
    assert stops and max(stops) <= period


def test_high_order_2048_martingale_ergodic_run_stops_at_a_certified_row(tmp_path, monkeypatch):
    # period 1.65e11: the sup pass stops at the end of a round once every
    # block is closed, by the certificate or, this far past any full pass,
    # at its own period; the spy counts the conditioned outer rows
    cfg = json.loads((DEMO.parent / "high_order_2048.json").read_text())
    cfg["process"] = "martingale_ergodic"
    path = tmp_path / "high_order_2048_me.json"
    path.write_text(json.dumps(cfg))
    rows, real = [], ineq.composite_block_means
    monkeypatch.setattr(ineq, "composite_block_means",
                        lambda chunk, *args: rows.append(len(chunk)) or real(chunk, *args))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    (period,) = build_experiment(cfg).spec.periods()
    assert period == 165098491320
    assert 0 < sum(rows) <= 512
    reports = json.loads((tmp_path / "o" / "reports.json").read_text())
    assert reports and all(r["satisfied"] for r in reports)


class TestRunner:
    def test_demo_outputs(self, tmp_path):
        plan = build_experiment(demo_config())
        result = execute_plan(plan, tmp_path)
        assert not result.any_check_failed
        reports = json.loads((tmp_path / "reports.json").read_text())
        assert reports and all(r["satisfied"] for r in reports)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "n1,n2,lp_error,sup_error"
        last = lines[-1].split(",")
        assert float(last[2]) <= 1e-12 and float(last[3]) <= 1e-12

    def test_auto_grid_reaches_the_weighted_period(self, tmp_path):
        # weight period 5 on an order-4 cycle: the stabilization period is 20,
        # so the auto grid must reach 80, where the trace is exact
        cfg = demo_config()
        cfg["weight_seqs"] = [{"terms": [[0.8, [1, 5], 0.0]]}]
        plan = build_experiment(cfg)
        assert plan.spec.periods() == (20,) and plan.n1_grid[-1] == 80
        execute_plan(plan, tmp_path)
        n1, n2, lp_error, sup_error = (tmp_path / "trace.csv").read_text().split()[-1].split(",")
        assert (int(n1), int(n2)) == (80, plan.n2_grid[-1])
        assert float(lp_error) <= 1e-10 and float(sup_error) <= 1e-10

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
        assert not result.any_check_failed
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
        (period,) = spec.periods()
        assert period == math.lcm(4, 5000)
        gap = (evaluate(spec, 2 * period, spec.last_stages)
               - evaluate(spec, period, spec.last_stages))
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
        # a bad --seed is named as the flag, as gen names it
        code = self.run_cli("run", "--config", str(DEMO), "--out", str(tmp_path / "o"),
                            "--seed", "-1")
        assert code == 1
        assert capsys.readouterr() == ("", "error: --seed: must be a nonnegative integer\n")
        assert not (tmp_path / "o").exists()

    def test_an_out_that_cannot_be_written_exit_1(self, tmp_path, capsys):
        # an existing regular file, and a directory below one
        out = tmp_path / "taken"
        out.write_text("kept")
        for target in (out, out / "sub"):
            assert self.run_cli("run", "--config", str(DEMO), "--out", str(target)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
        assert out.read_text() == "kept"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        # a directory in the place of an artifact fails its write the same way
        (tmp_path / "o" / "reports.json").mkdir(parents=True)
        assert self.run_cli("run", "--config", str(DEMO), "--out", str(tmp_path / "o")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, usage", [
        (("selfcheck", "--budget", "abc"), "usage: ergmart selfcheck "),
        (("run",), "usage: ergmart run "),
    ])
    def test_a_usage_error_exit_1(self, argv, usage):
        # exit 2 is a failed invariant or inequality, not argparse's usage error
        res = subprocess.run([sys.executable, "-m", "ergmart.cli", *argv],
                             capture_output=True, text=True)
        assert res.returncode == 1
        assert res.stdout == "" and res.stderr.startswith(usage)
        assert "Traceback" not in res.stderr
        assert subprocess.run([sys.executable, "-m", "ergmart.cli", *argv[:1], "--help"],
                              capture_output=True).returncode == 0

    def test_a_closed_output_pipe_exit_1(self):
        # the fragment is larger than a pipe buffer, so a write meets the closed pipe
        proc = subprocess.Popen([sys.executable, "-m", "ergmart.cli", "gen", "--kind",
                                 "observable", "--seed", "3", "--size", "4000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with proc:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == "error: output pipe closed\n"

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

    @pytest.mark.parametrize("kind", ["space", "map", "filtration", "observable"])
    @pytest.mark.parametrize("flags, err", [
        (("--size", "0"), "--size: must be a positive integer <= 16777216"),
        (("--size", "-4"), "--size: must be a positive integer <= 16777216"),
        (("--size", "10000000000"), "--size: must be a positive integer <= 16777216"),
        (("--seed", "-1"), "--seed: must be a nonnegative integer"),
        (("--dim", "0"), "--dim: must be a positive integer with size * dim <= 16777216"),
        (("--size", "4096", "--dim", "4097"),
         "--dim: must be a positive integer with size * dim <= 16777216"),
        (("--size", "16777216", "--dim", "1"), None),
        (("--size", "4096", "--dim", "4096"), None),
    ])
    def test_gen_checks_each_flag_by_its_config_rule(self, capsys, monkeypatch, kind, flags,
                                                      err):
        # nothing is drawn: a refusal comes first, and an accepted flag set
        # reaches this stand-in for the fragment
        import ergmart.cli as cli
        monkeypatch.setattr(cli, "_fragment", lambda *args: {"args": list(args)})
        code = self.run_cli("gen", "--kind", kind, "--seed", "1", *flags)
        out, got = capsys.readouterr()
        if err is None:
            assert code == 0 and got == "" and json.loads(out)["args"][0] == kind
        else:
            assert code == 1 and out == "" and got == f"error: {err}\n"

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
