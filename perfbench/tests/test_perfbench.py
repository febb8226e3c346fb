"""The benchmark's own tests: python3 -m pytest perfbench/tests -q (from the repo root)."""
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_prints_exactly_the_declared_metrics(workload, trace):
    res = _run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "tiny")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], float)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert {(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        (name, unit, better) for name, (unit, better) in tracer.PER_LAYER.items()}
    assert SPEC["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run_bench(tmp_path, "--workload", "wide_space", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_generator_is_seeded_and_keeps_the_order_fixed():
    for workload in ("wide_space", "long_orbit"):
        a = gen.solve_inputs(workload, 7, 3)
        assert a == gen.solve_inputs(workload, 7, 3)
        b = gen.solve_inputs(workload, 8, 3)
        assert a[0]["maps"] != b[0]["maps"]
        orders = {verify.map_order(cfg["maps"][0]["perm"]) for cfg in a + b}
        assert orders == {12 if workload == "wide_space" else 840}


def _tiny_run(tmp_path: Path, workload: str):
    from ergmart import config, runner
    inputs = gen.solve_inputs(workload, worker.COMMITTED_SEED, 0, "tiny")
    reference = worker.load_reference(workload, "tiny")
    outs = []
    for k, cfg in enumerate(inputs):
        out = tmp_path / f"{workload}{k}"
        runner.execute_plan(config.build_experiment(cfg), out)
        outs.append(out)
    return inputs, reference, outs


@pytest.mark.parametrize("workload", ["wide_space", "long_orbit"])
def test_verifier_counts_perturbed_outputs(tmp_path, workload):
    inputs, reference, outs = _tiny_run(tmp_path, workload)
    for cfg, ref, out in zip(inputs, reference, outs):
        reports, rows = verify.read_artifacts(out)
        assert verify.check_reports(reports, ref) == (len(reports), 0)
        assert verify.check_trace(rows, cfg) == (1, 0)

        scaled = copy.deepcopy(reports)
        scaled[0]["lhs"] *= 1.1
        assert verify.check_reports(scaled, ref)[1] == 1

        unsatisfied = copy.deepcopy(reports)
        unsatisfied[-1]["satisfied"] = False
        assert verify.check_reports(unsatisfied, None)[1] == 1

        n1, n2, _ = verify.oracle_point(cfg)
        bad = copy.deepcopy(rows)
        for row in bad:
            if int(row["n1"]) == n1 and int(row["n2"]) == n2:
                row["sup_error"] = "1e-06"
        assert verify.check_trace(bad, cfg) == (1, 1)
        missing = [r for r in rows if int(r["n1"]) != n1]
        assert verify.check_trace(missing, cfg) == (1, 1)


def test_verifier_counts_selfcheck_failures():
    from ergmart.selfcheck import run_selfcheck
    res = run_selfcheck(budget=2, seed=3)
    attempted, failed = verify.check_selfcheck(res)
    assert failed == 0 and attempted > 2
    k = next(i for i, line in enumerate(res.lines) if line.startswith("[PASS] norms"))
    res.lines[k] = res.lines[k].replace("[PASS]", "[FAIL]", 1)
    res.failures.append("inequality fuzz: single_me: seed 42: dominant violated")
    res.ok = False
    assert verify.check_selfcheck(res) == (attempted, 2)


def test_recorder_restores_every_binding():
    import ergmart
    from ergmart import runner, selfcheck
    modules = [m for name, m in sys.modules.items() if name.startswith("ergmart")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    with tracer.Recorder() as rec:
        assert runner.sup_field is not before[("ergmart.runner", "sup_field")]
        assert selfcheck.SECTIONS is not before[("ergmart.selfcheck", "SECTIONS")]
        selfcheck.run_selfcheck(budget=1, seed=2)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    _, _, calls = rec.self_times()
    assert calls["selfcheck.run"] == 1 and calls["inequalities.sup"] > 0
    assert ergmart.sup_field is before[("ergmart", "sup_field")]


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    rec.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0],
                 ["b", 2.0, 3.0, 1]]
    self_s, total_s, calls = rec.self_times()
    assert self_s["a"] == pytest.approx(6.0)
    assert self_s["b"] == pytest.approx(3.0)
    assert total_s["b"] == pytest.approx(4.0) and calls["b"] == 2
