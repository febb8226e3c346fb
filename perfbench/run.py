"""ergmart benchmark.

    python3 perfbench/run.py --workload selfcheck|wide_space|long_orbit \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`. Every measurement happens in a fresh worker process with a pinned
BLAS thread count. With --trace 0 the last line of standard output is a JSON
object holding the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a separate traced run. Lines before it start with '#' and record
the settings and the sample counts. Exit code 0 means the run completed;
`correct` says whether every output passed its check.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

WORKER = Path(__file__).resolve().parent / "worker.py"
BLAS_THREADS = 1        # at most nproc; one thread keeps timings steady on a shared box
SETUP_PROBES = 8        # fresh processes timed for setup_s, after one untimed warm-up
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
DEADLINE_S = 170.0      # the whole run, every worker included


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Runs one worker to completion and returns its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline reached")
    proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ergmart benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=gen.SCALES, default="full",
                    help="input size; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ergmart" / "__init__.py").is_file():
        print("perfbench: no src/ergmart here; run from the root of an ergmart "
              "source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    scratch = root / ".perfbench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    print(f"# perfbench workload={args.workload} seed={args.seed} scale={args.scale} "
          f"seconds={args.seconds:g} trace={args.trace} blas_threads={BLAS_THREADS} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]}")
    try:
        solve_argv = ["solve", *common, "--seconds", str(args.seconds), "--work", str(work)]
        if args.trace:
            spans = scratch / f"spans-{args.workload}.json"
            res = run_worker(solve_argv + ["--trace", str(spans)], env, deadline)
            metrics = res["per_layer"]
            print(f"# traced solves: {res['traced_solves']}; spans written to {spans}")
            if res["not_traced"]:
                print(f"# not in this library, so their metrics read 0: "
                      f"{', '.join(res['not_traced'])}")
        else:
            def probe() -> dict:
                return run_worker(["setup", *common], env, deadline)

            probe()  # untimed: fills the file cache and writes bytecode
            # half of the probes before the solves and half after, so that
            # setup_s is not taken from one phase of the machine's load
            setup = [probe() for _ in range(SETUP_PROBES // 2)]
            res = run_worker(solve_argv, env, deadline)
            setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            samples = res["samples"]
            if not samples:
                raise RuntimeError("no solve completed")
            tail_value, tail_pct = tail(samples)
            metrics = {
                "setup_s": {"value": statistics.median(p["setup_s"] for p in setup),
                            "unit": "s"},
                "solve_s.p50": {"value": statistics.median(samples), "unit": "s"},
                "solve_s.tail": {"value": tail_value, "unit": "s"},
                "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
                "ok_frac": {"value": 1.0 - res["failed"] / max(res["attempted"], 1),
                            "unit": "fraction"},
            }
            print(f"# solve_s: {len(samples)} samples; tail is p{tail_pct:.1f} "
                  f"({min(TAIL_BEYOND, len(samples) - 1)} samples beyond it); "
                  f"setup_s: median of {len(setup)} fresh processes")
            print(f"# times are scaled to the reference speed (speed.py); as measured: "
                  f"solve_s.p50 {statistics.median(res['wall_samples']):.4f}, "
                  f"setup_s {statistics.median(p['wall_s'] for p in setup):.4f}")
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": max(res["attempted"], 1),
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
