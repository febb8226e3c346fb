"""Benchmark worker: runs in a fresh process started by run.py.

    worker.py setup  --workload W --seed N --scale S
        imports ergmart and builds the configs of the first solve; prints
        {"setup_s": seconds}
    worker.py solve  --workload W --seed N --scale S --seconds T --work DIR [--trace FILE]
        warms up on the committed seed (checked against the frozen reference),
        then times solves for T seconds, or, with --trace, runs pairs of
        untraced and traced solves for T seconds; prints one JSON line
    worker.py freeze
        rewrites reference.json from the committed seed

A solve builds fresh plans from newly generated inputs (untimed), times the
solve phase (`runner.execute_plan` per config, or `selfcheck.run_selfcheck`)
and then checks every output (untimed). Setup and solve times are reported
both as measured ("wall") and scaled to the reference speed by the speed
probes run around them (see speed.py).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gen
import verify

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
COMMITTED_SEED = 1201
MIN_SAMPLES = 22        # with ten samples beyond the tail, the tail is above the median
MAX_STRETCH = 3.0       # never run the timed loop longer than this many --seconds


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _build(workload: str, inputs: list[dict]) -> list:
    if workload == "selfcheck":
        return inputs
    from ergmart import config
    return [config.build_experiment(cfg) for cfg in inputs]


def _solve(workload: str, built: list, out_dirs: list[Path]) -> list:
    if workload == "selfcheck":
        from ergmart import selfcheck
        return [selfcheck.run_selfcheck(budget=a["budget"], seed=a["seed"]) for a in built]
    from ergmart import runner
    return [runner.execute_plan(plan, out) for plan, out in zip(built, out_dirs)]


def _check(workload: str, inputs: list[dict], results: list, out_dirs: list[Path],
           reference: list | None) -> tuple[int, int]:
    attempted = failed = 0
    for k, (cfg, res, out) in enumerate(zip(inputs, results, out_dirs)):
        if workload == "selfcheck":
            a, f = verify.check_selfcheck(res)
        else:
            a, f = verify.check_run(cfg, out, None if reference is None else reference[k])
        attempted += a
        failed += f
    return attempted, failed


class Session:
    """One workload in this process: generates, builds, solves and checks."""

    def __init__(self, workload: str, scale: str, work: Path):
        self.workload = workload
        self.scale = scale
        self.work = work
        self.attempted = 0
        self.failed = 0

    def step(self, seed: int, index: int, reference: list | None = None) -> float | None:
        """One solve; returns its solve-phase seconds, or None when it raised."""
        inputs = gen.solve_inputs(self.workload, seed, index, self.scale)
        out_dirs = [self.work / f"out{k}" for k in range(len(inputs))]
        try:
            built = _build(self.workload, inputs)
            gc.collect()
            start = time.perf_counter()
            results = _solve(self.workload, built, out_dirs)
            elapsed = time.perf_counter() - start
            attempted, failed = _check(self.workload, inputs, results, out_dirs, reference)
        except Exception:  # a failing solve is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += attempted
        self.failed += failed
        return elapsed

    def timed(self, seed: int, seconds: float) -> tuple[list[float], list[float]]:
        """Solve samples for `seconds`: scaled by the mean of the speed probes
        run just before and just after each solve, and as measured."""
        import speed

        samples: list[float] = []
        wall: list[float] = []
        speed.probe()  # untimed: the probe's own first call is slow
        before = speed.probe()
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(samples) >= MIN_SAMPLES:
                break
            if elapsed >= MAX_STRETCH * seconds and index > 0:
                break
            dt = self.step(seed, index)
            after = speed.probe()
            index += 1
            if dt is not None:
                samples.append(speed.scaled(dt, (before + after) / 2))
                wall.append(dt)
            before = after
        return samples, wall


def load_reference(workload: str, scale: str) -> list | None:
    if workload == "selfcheck":
        return None
    return json.loads(REFERENCE.read_text())[workload][scale]


def cmd_setup(args) -> dict:
    """Times the import and the first build, then scales that by the median
    of three speed probes taken right after it (after one untimed probe)."""
    inputs = gen.solve_inputs(args.workload, args.seed, 0, args.scale)
    start = time.perf_counter()
    import ergmart  # noqa: F401  (the import is what is timed)
    _build(args.workload, inputs)
    wall = time.perf_counter() - start
    import speed  # only now: it imports numpy, whose import is part of the setup

    speed.probe()
    probe_s = statistics.median(speed.probe() for _ in range(3))
    return {"setup_s": speed.scaled(wall, probe_s), "wall_s": wall}


def cmd_solve(args) -> dict:
    import ergmart  # noqa: F401

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    sess = Session(args.workload, args.scale, work)
    # warm-up: the committed seed, checked against the frozen reference
    sess.step(COMMITTED_SEED, 0, load_reference(args.workload, args.scale))
    # the peak of fixed work on fixed inputs: with seeded inputs one rare large
    # selfcheck fuzz instance raised it by 18 MiB, and with more solves it
    # would grow with the number a fast machine fits into the run
    out: dict = {"peak_rss_mib": _peak_rss_mib()}
    if args.trace is None:
        out["samples"], out["wall_samples"] = sess.timed(args.seed, args.seconds)
    else:
        out.update(traced_run(sess, args.seed, args.seconds, args.trace))
    out["attempted"] = sess.attempted
    out["failed"] = sess.failed
    return out


def traced_run(sess: Session, seed: int, seconds: float, spans_path: str) -> dict:
    """Pairs of solves on the same inputs, one untraced and one traced, in
    alternating order so that a slow phase of the machine hits both sides;
    the overhead is the median traced/untraced ratio minus one."""
    from tracer import PER_LAYER, Recorder

    rec = Recorder()
    ratios: list[float] = []
    passes = index = 0
    start = time.perf_counter()
    while index < 2 or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= MAX_STRETCH * seconds:
            break
        times = {}
        for traced in ((True, False) if index % 2 else (False, True)):
            if traced:
                rec.next_pass()
                passes += 1
            with rec if traced else contextlib.nullcontext():
                times[traced] = sess.step(seed, index)
        if None not in times.values():
            ratios.append(times[True] / times[False])
        index += 1
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    rec.dump(spans_path)
    metrics = rec.layer_metrics(passes, overhead)
    return {"per_layer": {name: {"value": value, "unit": PER_LAYER[name][0]}
                          for name, value in metrics.items()},
            "traced_solves": passes, "not_traced": rec.missing}


def cmd_freeze(args) -> dict:
    """Rewrites the frozen lhs/rhs of the committed seed for both scales."""
    import ergmart  # noqa: F401
    doc: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in ("wide_space", "long_orbit"):
            doc[workload] = {}
            for scale in gen.SCALES:
                inputs = gen.solve_inputs(workload, COMMITTED_SEED, 0, scale)
                out_dirs = [Path(tmp) / f"out{k}" for k in range(len(inputs))]
                _solve(workload, _build(workload, inputs), out_dirs)
                doc[workload][scale] = [verify.report_values(verify.read_artifacts(d)[0])
                                        for d in out_dirs]
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return {"written": str(REFERENCE.name)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "solve", "freeze"))
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", choices=gen.SCALES, default="full")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--work")
    ap.add_argument("--trace", help="traced run; spans are written to this file")
    args = ap.parse_args(argv)
    if args.mode != "freeze" and args.workload is None:
        ap.error("--workload is required")
    out = {"setup": cmd_setup, "solve": cmd_solve, "freeze": cmd_freeze}[args.mode](args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
