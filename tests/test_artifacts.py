"""Byte-level regression guard for the three run artifacts.

`trace.csv`, `reports.json` and `manifest.json` must stay byte-identical
across refactors and speed-ups. The digests below were frozen from a run of
the unchanged library; a change that moves any of them must say so and
refreeze them on purpose.
"""
import hashlib
import json
from pathlib import Path

import pytest

from ergmart.cli import main

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


CONFIGS = {
    "demo": lambda: json.loads(DEMO.read_text()),
    "weighted_me": lambda: weighted_config("martingale_ergodic"),
    "weighted_em": lambda: weighted_config("ergodic_martingale"),
}

# sha256 of each artifact, frozen from the library before the shared-kernel trace
FROZEN = {
    "demo": {
        "trace.csv": "26b579c92378fb82a2581d6f22e965aae8cab85f0da4df41ee44765c3704ab9f",
        "reports.json": "9e7ec0e19cf5788e3610c3e4ee5f5acb8ddcde448dfe9383db127e8a82ce5079",
        "manifest.json": "7c9d84c3f188a9f8113da9a3ce21ef9c3757acf52d437568dc9583c7716f7a90",
    },
    "weighted_em": {
        "trace.csv": "b53f329f2f66cda274c4f2dad75899cffc869736df2e0a7c5f33a0a66d3189fe",
        "reports.json": "782526f30787920f709677698034f7332e313e5c793904daf1a79cfcfd4c47ad",
        "manifest.json": "6c6fe6a1c19954b4d382560b3523f68f84a8bd6e4c1e1a894819a57a22142276",
    },
    "weighted_me": {
        "trace.csv": "750d9d01a211403fec656566bea46b20fc94492ad11c531cf9a61a31caca2b8a",
        "reports.json": "551d0993ac9e406c4657f4360b238e7be5b4157d7a504d6fa5f9d82664a5271d",
        "manifest.json": "178e0e007cb2a05aee0c9256521d8e3e2c033a21d689e38d4d606c3173d986b1",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_are_byte_identical(tmp_path, name):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(CONFIGS[name]()))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS}
    assert digests == FROZEN[name]
