"""Byte-level regression guard for the three run artifacts.

`trace.csv`, `reports.json` and `manifest.json` must stay byte-identical
across refactors and speed-ups. The digests below were frozen from a run of
the unchanged library; a change that moves any of them must say so and
refreeze them on purpose.
"""
import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ergmart.runner as runner
from ergmart.cli import main
from ergmart.config import build_experiment
from ergmart.observables import linf_norm, lp_norm
from ergmart.processes import evaluate
from ergmart.runner import _json_text

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
ARTIFACTS = ("trace.csv", "reports.json", "manifest.json")


def weighted_config(process: str) -> dict:
    """N = 16, one map of cycle type (5, 4, 3, 2, 1, 1) (order 60), four
    decreasing stages, dim 2, two rational cosine weight terms whose
    denominators divide the order, and the three checks: the shape of the
    `long_orbit` benchmark workload at a size a unit test can run."""
    cycles = [[3, 9, 14, 0, 6], [11, 2, 7, 12], [5, 15, 1], [8, 13], [4], [10]]
    perm = list(range(16))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    fine = [(5 * i) % 8 for i in range(16)]
    return {
        "seed": 7,
        "space": {"size": 16, "weights": "uniform"},
        "maps": [{"kind": "explicit", "perm": perm}],
        "filtrations": [{"kind": "explicit", "direction": "decreasing",
                         "stages": [list(range(16)), fine, [b % 2 for b in fine], [0] * 16]}],
        "observable": {"kind": "explicit",
                       "values": [[(7 * i) % 5 - 2.0, ((3 * i) % 8) / 4.0] for i in range(16)]},
        "weight_seqs": [{"terms": [[0.6, [1, 12], 0.4], [0.4, [7, 20], 2.1]]}],
        "process": process,
        "norm_q": 2,
        "trace_p": 2.0,
        "grids": {"n1": "auto", "n2": "all"},
        "checks": [{"type": "dominant", "p": 2.0},
                   {"type": "maximal", "p": 2.0, "epsilons": "auto8"},
                   {"type": "orlicz", "m": 1}],
    }


def multi_chunk_config(process: str) -> dict:
    """N = 64, one map of the `long_orbit` cycle type (8, 7, 5, 3) * 2 +
    (8, 7, 3) (order 840), four decreasing stages, dim 2 and two rational
    weight terms, a constant and a cosine of period 840, so a_i =
    0.5 + 0.5 cos(2 pi i / 840 + 3) starts near 0 and every point's sup is
    reached past n = 512. The ergodic-martingale sup stacks 4 stages of
    64 x 2 floats, so its 840 rows stream in chunks of at most 2**17 floats
    (4 chunks when only the rows were counted, 5 with the gather index) and
    the sup depends on the carry across at least two chunk borders."""
    lengths = (8, 7, 5, 3) * 2 + (8, 7, 3)
    points = [(37 * i + 11) % 64 for i in range(64)]
    perm, start = list(range(64)), 0
    for length in lengths:
        cyc = points[start:start + length]
        start += length
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    labels = [(13 * i) % 64 for i in range(64)]
    stages = [labels] + [[b % blocks for b in labels] for blocks in (16, 4, 1)]
    return {
        "seed": 11,
        "space": {"size": 64, "weights": "uniform"},
        "maps": [{"kind": "explicit", "perm": perm}],
        "filtrations": [{"kind": "explicit", "direction": "decreasing", "stages": stages}],
        "observable": {"kind": "explicit",
                       "values": [[((5 * i) % 11 - 5) / 3.0, ((7 * i) % 13 - 6) / 4.0]
                                  for i in range(64)]},
        "weight_seqs": [{"terms": [[0.5, [0, 1], 0.0], [0.5, [1, 840], 3.0]]}],
        "process": process,
        "norm_q": 2,
        "trace_p": 2.0,
        "grids": {"n1": "auto", "n2": "all"},
        "checks": [{"type": "dominant", "p": 2.0},
                   {"type": "maximal", "p": 2.0, "epsilons": "auto8"},
                   {"type": "orlicz", "m": 1}],
    }


def many_terms_config(process: str) -> dict:
    """weighted_config with ten rational cosine terms (amplitudes summing to
    0.99, one denominator 7 that no cycle length has, period 420): the
    kernel sums over a terms axis of at least 8, where numpy's unrolled
    pairwise sum would reorder the additions if a table's memory layout put
    that axis innermost."""
    cfg = weighted_config(process)
    cfg["weight_seqs"] = [{"terms": [
        [0.2, [1, 12], 0.4], [0.15, [7, 20], 2.1], [0.12, [2, 5], 1.0], [0.1, [4, 15], 5.5],
        [0.1, [1, 4], 0.0], [0.09, [2, 3], 3.0], [0.08, [1, 6], 4.2], [0.07, [3, 10], 0.7],
        [0.05, [1, 2], 1.9], [0.03, [3, 7], 2.6]]}]
    return cfg


CONFIGS = {
    "demo": lambda: json.loads(DEMO.read_text()),
    "weighted_me": lambda: weighted_config("martingale_ergodic"),
    "weighted_em": lambda: weighted_config("ergodic_martingale"),
    "multi_chunk_me": lambda: multi_chunk_config("martingale_ergodic"),
    "multi_chunk_em": lambda: multi_chunk_config("ergodic_martingale"),
    "many_terms_me": lambda: many_terms_config("martingale_ergodic"),
    "many_terms_em": lambda: many_terms_config("ergodic_martingale"),
}

# sha256 of each artifact, frozen from the library before the shared-kernel
# trace (demo, weighted reports) and before the gathered sup rows
# (multi_chunk reports); the weighted traces and manifests were refrozen when
# every trace moved to the closed-form limit (test_weighted_trace_matches_the_oracle);
# many_terms before the single mass product per conditioning pass and the
# contiguous kernel tables. Every reports.json was refrozen when the maximal
# rhs became C (|f|_p / eps)^p, and multi_chunk_me's also moved when the
# weights came to read the kernel's angles; each is judged against the
# long-double oracle by test_float_oracle.test_pinned_reports_within_their_models
FROZEN = {
    "many_terms_em": {
        "trace.csv": "da7923a30d87e747ace8bee6c717f73ff81b4a667772d175483401b738be4306",
        "reports.json": "eff7e294f9fbdff4a74cda435c885e0e62c3a1d704534c0c97080fb0618a3a5b",
        "manifest.json": "bbdadfa84612d168f942df1b449399e907321b5399d5ee6298ffcf0061666fb5",
    },
    "many_terms_me": {
        "trace.csv": "56667ef36ae5a477c5b931a477d6ffa5b03d0ef2ac3e542eca47d3cb7b9f3328",
        "reports.json": "49226f192cf11c8907b5fc561adb8e9d8a9eaec6cc842191a461d39e1a26fcc5",
        "manifest.json": "54c0c9b7be0c05cbb9a866e1654b4041a9ffaf7082cf8bc77e001f71660feda6",
    },
    "multi_chunk_em": {
        "trace.csv": "417dff42ac1999ba8038ecef698e36f1e438d73ad6bcbf1262107dd576f3495f",
        "reports.json": "00555b4533f508d292105002af4c10aa2d45343a03cde5d8f5da98fc35545ed5",
        "manifest.json": "26e2c88fff0a835368c8fef12405f52f4361fbc0a932eb73492914f961c987ae",
    },
    "multi_chunk_me": {
        "trace.csv": "16a2c471555aff26b4f152e6e94a25ac14190ca15ec8d3ecffa2c2acc40af65a",
        "reports.json": "a6ceef9101df54c6942bf30ddcd6142cce85ed5f80fa90b04cbb82890d3a3a0d",
        "manifest.json": "6f3fcae1e4c9dcc5c94d88645d95f0be79ec8f957c02c142f0526080b09335ce",
    },
    "demo": {
        "trace.csv": "26b579c92378fb82a2581d6f22e965aae8cab85f0da4df41ee44765c3704ab9f",
        "reports.json": "ccdcd8daa8ef3726be7b12512556394d8657ca868a182883112628f5959a4880",
        "manifest.json": "7c9d84c3f188a9f8113da9a3ce21ef9c3757acf52d437568dc9583c7716f7a90",
    },
    "weighted_em": {
        "trace.csv": "31f83a06fc47e68938b4f5c1c455dfc0668887c49e5a745930dec0f62f56e7f7",
        "reports.json": "89e108e2d179294533802ddf8c9930c51b467dec66459a4c545483b1cc11d0d4",
        "manifest.json": "2b012f0e37a80c14c344c0e57d1d8507a6de87225f654211c0bce57f4653cadf",
    },
    "weighted_me": {
        "trace.csv": "065378c2a6dba3b954d8d5592b0200c8e78bc37f50f32d97e527eb9913c27819",
        "reports.json": "3fedf25f473a42cf8d9cada9d0a93149e74128f9a302e2ab07306ddec74263eb",
        "manifest.json": "e1405e9d261bdee9316eaee5e8dfb4b4d2ce3dcfe51d57b43795853745b1af89",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_are_byte_identical(tmp_path, name):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(CONFIGS[name]()))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS}
    assert digests == FROZEN[name]


@pytest.mark.parametrize("name", ["weighted_me", "weighted_em", "multi_chunk_me", "multi_chunk_em",
                                  "many_terms_me", "many_terms_em"])
def test_weighted_trace_matches_the_oracle(tmp_path, name):
    # the run's trace reads the closed-form limit; the oracle reads one exact
    # stabilization period of the weighted average
    cfg = CONFIGS[name]()
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    plan = build_experiment(cfg)
    spec = plan.spec
    ref = evaluate(spec, spec.periods(), spec.last_stages)
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(row["n1"]), int(row["n2"])) for row in rows] == list(
        itertools.product(plan.n1_grid, plan.n2_grid))
    for row in rows:
        errors = evaluate(spec, int(row["n1"]), int(row["n2"])) - ref
        assert abs(float(row["lp_error"]) - lp_norm(errors, plan.trace_p, spec.norm)) <= 1e-15
        assert abs(float(row["sup_error"]) - linf_norm(errors, spec.norm)) <= 1e-15
    assert json.loads((out / "manifest.json").read_text())["target"] == \
        "closed-form limit (conditioned orbit average)"


def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324]))
_INTS = st.integers() | st.sampled_from([2**63, -2**63 - 1, 2**64 + 1, 10**40])
_NUMBER = _INTS | _FINITE
# escapes, control characters, non-ASCII and astral code points
_TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\x00", "é", "\u2028", "\U0001f600", ""])
_LEAVES = (st.none() | st.booleans() | _NUMBER | _TEXT
           | st.lists(_NUMBER) | st.lists(_NUMBER).map(tuple)
           | st.lists(st.lists(_NUMBER)) | st.lists(st.lists(_NUMBER | st.booleans(), max_size=3)))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_json_text_is_json_dumps_byte_for_byte(obj):
    assert _json_text(obj) == _reference_json(obj)


@settings(max_examples=100, deadline=None)
@given(_JSON, st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from(["flat", "row", "value", "scalar", "mixed"]))
def test_json_text_refuses_non_finite_floats(obj, bad, where):
    wrapped = {"flat": [1.5, bad], "row": [[0.0, 1], [bad]], "value": {"k": obj, "x": bad},
               "scalar": bad, "mixed": [obj, "a", bad]}[where]
    with pytest.raises(ValueError):
        _reference_json(wrapped)
    with pytest.raises(ValueError):
        _json_text(wrapped)


@pytest.mark.parametrize("name", ["demo", "many_terms_me"])
def test_reports_are_written_without_json_dumps(name, monkeypatch):
    # every key and scalar of a reports.json (str, int, float, bool, None)
    # and its number lists are written directly, with no encoder per value
    reports = runner._run_checks(build_experiment(CONFIGS[name]()))
    want = _reference_json(reports)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(runner.json, "dumps", refuse)
    for _ in range(2):
        assert _json_text(reports) == want
