"""Command line interface: run experiments, selfcheck, generate fragments.

Exit codes: 0 success, 1 validation error, 2 invariant or inequality failure.
Each command imports what only it uses: `run` loads `config` and `runner`,
`selfcheck` the selfcheck with its fuzz and invariants, `gen` the generators.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import _MAX_ENTRIES, ConfigError, _check, build_experiment
from .measure import DECREASING, MeasureSpace
from .runner import execute_plan


def _cmd_run(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        if args.seed is not None:  # a refusal names the flag, not the config's field
            _check(args.seed, "--seed", "seed")
        plan = build_experiment(config, seed_override=args.seed)
        result = execute_plan(plan, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {', '.join(result.files)} to {args.out}")
    if result.any_check_failed:
        print("error: at least one inequality check failed", file=sys.stderr)
        return 2
    return 0


def _cmd_selfcheck(args) -> int:
    from .fuzz import broken_run_arg
    from .selfcheck import run_selfcheck

    broken = broken_run_arg(args.budget, args.seed)
    if broken is not None:
        print(f"error: --{broken[0]}: {broken[1]}", file=sys.stderr)
        return 1
    result = run_selfcheck(budget=args.budget, seed=args.seed)
    print(result.render())
    if args.times:
        print(result.render_times())
    return 0 if result.ok else 2


def _fragment(kind: str, seed: int, size: int, dim: int) -> dict:
    from .generators import random_filtration, random_observable, random_permutation

    rng = np.random.default_rng(seed)
    if kind == "space":
        w = rng.uniform(0.2, 2.0, size)
        return {"weights": [float(x) for x in w / w.sum()]}
    space = MeasureSpace(np.full(size, 1.0 / size))
    if kind == "map":
        perm = random_permutation(rng, space)
        return {"kind": "explicit", "perm": [int(i) for i in perm.map]}
    if kind == "filtration":
        filt = random_filtration(rng, space, n_stages=3, direction=DECREASING)
        return {
            "kind": "explicit",
            "direction": filt.direction,
            "stages": [[int(b) for b in st.block_of] for st in filt.stages],
        }
    if kind == "observable":
        f = random_observable(rng, space, dim)
        return {"kind": "explicit", "values": [[float(v) for v in row] for row in f.values]}
    raise ValueError(f"unknown fragment kind {kind!r}")


def _cmd_gen(args) -> int:
    try:  # each flag through its config field's rule
        _check(args.seed, "--seed", "seed")
        _check(args.size, "--size", "space.size")
        _check(args.dim, "--dim", "observable.dim", high=_MAX_ENTRIES // args.size)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fragment = _fragment(args.kind, args.seed, args.size, args.dim)
    print(json.dumps(fragment, sort_keys=True, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergmart",
        description="Conditioned ergodic averaging processes on finite measure "
                    "spaces: traces, limits, and inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_self = sub.add_parser("selfcheck", help="run the invariant and inequality suite")
    p_self.add_argument("--budget", type=int, default=100,
                        help="instances per randomized section")
    p_self.add_argument("--seed", type=int, default=20240801)
    p_self.add_argument("--times", action="store_true",
                        help="after the report, print the wall time of each section")
    p_self.set_defaults(func=_cmd_selfcheck)

    p_gen = sub.add_parser("gen", help="print a seeded explicit config fragment")
    p_gen.add_argument("--kind", required=True,
                       choices=("space", "map", "filtration", "observable"))
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--size", type=int, default=8, help="space size")
    p_gen.add_argument("--dim", type=int, default=1, help="observable dimension")
    p_gen.set_defaults(func=_cmd_gen)

    args = parser.parse_args(argv)
    return args.func(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
