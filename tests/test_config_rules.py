"""The config rule table: every FIELDS row is documented, reachable from a
valid config, and every value it refuses ends the CLI in exit 1 at the row's
own path."""
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmart.cli import main
from ergmart.config import _REQUIRED, FIELDS, build_experiment

ROOT = Path(__file__).resolve().parent.parent
DEMO = json.loads((ROOT / "configs" / "demo.json").read_text())


def _random_space(cfg):
    # only the identity preserves masses that differ
    cfg.update(space={"kind": "random", "max_size": 4}, maps=[{"kind": "identity"}])


def _power_map(cfg):
    cfg["maps"].append({"kind": "power", "of": 0, "exponent": 2})


def _explicit_map(cfg):
    cfg["maps"] = [{"kind": "explicit", "perm": [1, 2, 3, 0]}]


def _random_filtration(cfg):
    cfg["filtrations"] = [{"kind": "random", "stages": 3}]


def _random_observable(cfg):
    cfg["observable"] = {"kind": "random", "dim": 2, "style": "normal", "scale": 1.0}


def _terms(cfg):
    cfg["weight_seqs"] = [{"kind": "explicit", "terms": [[0.5, [1, 3], 0.0]]}]


def _envelope(cfg):
    cfg["weight_seqs"] = [{"kind": "random", "envelope": 0.5}]


# per FIELDS row: the demo edit after which build_experiment reads the field,
# and the field's path in the edited config
CONTEXTS = {
    "seed": (None, "seed"),
    "space": (None, "space"),
    "space.kind": (None, "space.kind"),
    "space.max_size": (_random_space, "space.max_size"),
    "space.weights": (None, "space.weights"),
    "space.size": (None, "space.size"),
    "maps": (None, "maps"),
    "maps[k]": (None, "maps[0]"),
    "maps[k].kind": (None, "maps[0].kind"),
    "maps[k].of": (_power_map, "maps[1].of"),
    "maps[k].exponent": (_power_map, "maps[1].exponent"),
    "maps[k].perm": (_explicit_map, "maps[0].perm"),
    "filtrations": (None, "filtrations"),
    "filtrations[k]": (None, "filtrations[0]"),
    "filtrations[k].direction": (None, "filtrations[0].direction"),
    "filtrations[k].kind": (None, "filtrations[0].kind"),
    "filtrations[k].stages": (None, "filtrations[0].stages"),
    "filtrations[k].stages (random)": (_random_filtration, "filtrations[0].stages"),
    "observable": (None, "observable"),
    "observable.kind": (None, "observable.kind"),
    "observable.dim": (_random_observable, "observable.dim"),
    "observable.style": (_random_observable, "observable.style"),
    "observable.scale": (_random_observable, "observable.scale"),
    "observable.values": (None, "observable.values"),
    "weight_seqs": (None, "weight_seqs"),
    "weight_seqs[k]": (_terms, "weight_seqs[0]"),
    "weight_seqs[k].kind": (_terms, "weight_seqs[0].kind"),
    "weight_seqs[k].envelope": (_envelope, "weight_seqs[0].envelope"),
    "weight_seqs[k].terms": (_terms, "weight_seqs[0].terms"),
    "process": (None, "process"),
    "norm_q": (None, "norm_q"),
    "trace_p": (None, "trace_p"),
    "grids": (None, "grids"),
    "grids.n1": (None, "grids.n1"),
    "grids.n2": (None, "grids.n2"),
    "checks": (None, "checks"),
    "checks[k]": (None, "checks[0]"),
    "checks[k].type": (None, "checks[0].type"),
    "checks[k].box_factor": (None, "checks[0].box_factor"),
    "checks[k].p": (None, "checks[0].p"),
    "checks[k].epsilons": (None, "checks[1].epsilons"),
    "checks[k].m": (None, "checks[2].m"),
}
_DELETE = object()


def _config(name):
    cfg = copy.deepcopy(DEMO)
    edit, _ = CONTEXTS[name]
    if edit is not None:
        edit(cfg)
    return cfg


def _slot(cfg, path):
    """The object or list that holds the field at path, and its key there."""
    keys = [int(t[1:-1]) if t.startswith("[") else t
            for t in re.findall(r"\[\d+\]|[^.\[]+", path)]
    for key in keys[:-1]:
        cfg = cfg[key]
    return cfg, keys[-1]


def _refused(name):
    """Values that the row refuses by its kind and bounds, whatever the context."""
    rule = FIELDS[name]
    out = ["bogus", math.nan, math.inf, -math.inf, True, False, [[None]], [{"junk": 1}]]
    if rule.kind != "object":
        out.append({"junk": [None]})
    if None not in rule.values:
        out.append(None)
    if rule.kind == "int":
        out += [1.5, -1] + ([0] if rule.low >= 1 else [])
        if rule.high < math.inf:
            out += [rule.high + 1, 10**400]
    elif rule.kind == "number":
        out += [10**400, -10**400, rule.low - 1] + ([rule.low] if rule.open else [])
        if rule.high < math.inf:
            out += [2 * rule.high, sys.float_info.max]
    else:
        out += [-1, 0, 10**400]
    if rule.default is _REQUIRED and not name.endswith("]"):
        out.append(_DELETE)
    return out


# lists and objects nested to any depth around nulls and empty objects: no
# field takes a list whose entries are lists of these, or an object of them
# where a scalar or a list belongs
_JUNK = st.recursive(st.none() | st.dictionaries(st.text(max_size=2), st.none(), max_size=2),
                     lambda inner: st.lists(inner, min_size=1, max_size=3), max_leaves=6)


def test_contexts_cover_the_table():
    assert set(CONTEXTS) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_context_reads_the_field(name):
    # each context is a valid config that holds the row's field (or would
    # take its default there), so a refusal after one edit is that field's
    cfg = _config(name)
    build_experiment(cfg)
    _slot(cfg, CONTEXTS[name][1])  # the path leads into the config


def _run(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "bad.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(path), "--out", str(out)])
        return code, err.getvalue(), out.exists()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_every_refused_value_exits_1_at_its_path(data):
    name = data.draw(st.sampled_from(sorted(FIELDS)), label="row")
    bad = data.draw(st.sampled_from(_refused(name))
                    | _JUNK.map(lambda x: [[x]])
                    | (_JUNK.map(lambda x: {"junk": x}) if FIELDS[name].kind != "object"
                       else st.nothing()), label="value")
    cfg = _config(name)
    path = CONTEXTS[name][1]
    holder, key = _slot(cfg, path)
    if bad is _DELETE:
        del holder[key]
    else:
        holder[key] = bad
    code, err, wrote = _run(cfg)
    assert code == 1
    assert err.startswith(f"error: {path}"), err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not wrote


@pytest.mark.parametrize("name", [""] + sorted(n for n in FIELDS if FIELDS[n].kind == "object"))
def test_unknown_key_exits_1_at_its_path(name):
    # every object of the config, the config itself included, knows its keys
    cfg = _config(name) if name else copy.deepcopy(DEMO)
    path = CONTEXTS[name][1] if name else ""
    holder, key = _slot(cfg, path) if name else ({"": cfg}, "")
    holder[key]["bogus"] = 1
    code, err, wrote = _run(cfg)
    assert code == 1 and not wrote
    assert err == f"error: {path + '.' if path else ''}bogus: unknown field\n", err


def test_readme_table_names_every_row():
    readme = (ROOT / "README.md").read_text()
    schema = readme[readme.index("## Config schema"):readme.index("## Library layout")]
    rows = [line for line in schema.splitlines() if line.startswith("| `")]
    assert len(rows) == len(FIELDS)
    for name in FIELDS:
        assert any(row.startswith(f"| `{name.split()[0]}`") for row in rows), name


# each size field past its bound; the child that runs them has its address
# space capped, so a bound that is missed fails there instead of allocating
SIZE_BOUNDS = [
    ({"space": {"size": 10**13, "weights": "uniform"}}, "space.size"),
    ({"space": {"kind": "random", "max_size": 10**13}}, "space.max_size"),
    ({"observable": {"kind": "random", "dim": 10**13}}, "observable.dim"),
    ({"checks": [{"type": "maximal", "p": 2.0, "epsilons": "auto99999999999999"}]},
     "checks[0].epsilons"),
]

# the child reports its peak resident set (ru_maxrss, KiB on Linux) before
# the first run and after the last, so what a missed bound allocates shows
_CHILD = """
import contextlib, io, json, resource, sys
from ergmart.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out = []
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", path, "--out", path + ".out"])
    out.append([code, err.getvalue()])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"runs": out, "grown_kib": after - before}))
"""


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


def test_size_bounds_refused_before_allocating(tmp_path):
    paths = []
    for k, (edit, _) in enumerate(SIZE_BOUNDS):
        cfg = dict(copy.deepcopy(DEMO), **edit)
        paths.append(tmp_path / f"size{k}.json")
        paths[-1].write_text(json.dumps(cfg))
    # one BLAS thread: each further one reserves address space of its own
    res = subprocess.run([sys.executable, "-c", _CHILD, *map(str, paths)],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
                         preexec_fn=_cap_address_space)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    for (code, err), (_, field), path in zip(report["runs"], SIZE_BOUNDS, paths):
        assert code == 1 and err.startswith(f"error: {field}: "), err
        assert not Path(str(path) + ".out").exists()
    assert report["grown_kib"] < 64 * 1024
