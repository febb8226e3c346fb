"""Experiment configuration: validation with path-addressed messages and
construction of library objects from JSON-friendly dictionaries.

Every config field has one rule in FIELDS, read by `_field` (`_check` for a
list entry), so a refused value is named by its own config path. Checks that
need built objects follow the build; each library constructor keeps its own,
reported at the path of the value it was given.

Every random fragment draws from one seeded generator in a fixed order
(space, maps, filtrations, observable, weight sequences), so a config plus a
seed pins the whole experiment. The generator is made at the first random
fragment, and the random builders of `generators` are imported there too: an
explicit config loads neither them nor numpy.random.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .averages import BesicovitchWeights
from .inequalities import broken_rule
from .measure import DECREASING, INCREASING, Filtration, MeasureSpace, Partition
from .observables import NormSpec, VectorObservable
from .operators import Endomorphism, cycle_map, identity_map, power
from .processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ProcessSpec,
    default_n1_grid,
)

__all__ = ["ConfigError", "ExperimentPlan", "CheckSpec", "build_experiment"]

# averaging lengths are int64 in the cycle kernel
_MAX_LENGTH = 2**62
# below this bound on max |f| times the weight amplitude sums (1 unweighted),
# a weighted sum of up to _MAX_LENGTH terms stays finite
_MAX_WEIGHTED_SCALE = sys.float_info.max / 2**63
# the most entries a size field may ask of one array: space.size,
# space.max_size, and size * dim of a random observable
_MAX_ENTRIES = 2**24
# the most levels of an "auto<count>" epsilon grid
_MAX_LEVELS = 2**12
# stage labels are int64 in a partition
_MAX_LABEL = 2**63 - 1
_REQUIRED = object()  # the default of a field that must be given


class ConfigError(ValueError):
    """Validation failure addressed by the config path that caused it."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class CheckSpec:
    type: str               # "dominant" | "maximal" | "orlicz"
    p: float | None = None
    epsilons: tuple[float, ...] | str | None = None
    m: int | None = None
    box_factor: int = 4


@dataclass(frozen=True)
class ExperimentPlan:
    spec: ProcessSpec
    checks: tuple[CheckSpec, ...]
    n1_grid: tuple[int, ...]
    n2_grid: tuple[int, ...]
    trace_p: float
    seed: int
    config_echo: dict


def _is_finite_number(value) -> bool:
    # the bound rejects NaN, infinities and integers too large for a float
    return (isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    # JSON true and false are Python ints; they are not integers here
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class _Rule:
    """One row of FIELDS. A value passes when it equals one of the literal
    `values`, or by `kind`: "int", an integer in [low, high]; "number", a
    number in [low, high] (low excluded when `open`); "list", a nonempty
    list whose entries pass `item` (entries None: a bulk array that its
    builder converts whole), strictly ascending when `ascending`, or a
    string "auto<count>" with 1 <= count <= `auto`; "object", a JSON
    object; "enum", the literals alone."""

    message: str
    default: Any = _REQUIRED
    kind: str = "enum"
    values: tuple = ()
    low: float = -math.inf
    high: float = math.inf
    open: bool = False
    item: _Rule | None = None
    ascending: bool = False
    auto: int = 0

    def accepts(self, value, high: float | None = None) -> bool:
        """`high`, when given, is the upper bound of an int or of a list's
        entries that depends on built objects; a list hands it on to its
        entries, which otherwise keep their own."""
        top = self.high if high is None else high
        if value in self.values:
            return True
        if self.kind == "int":
            return _is_int(value) and self.low <= value <= top
        if self.kind == "number":
            return _is_finite_number(value) and value <= top and (
                value > self.low if self.open else value >= self.low)
        if self.kind == "object":
            return isinstance(value, dict)
        if self.auto and isinstance(value, str) and value.startswith("auto"):
            count = value[4:]
            return (count.isascii() and count.isdigit() and len(count) < 20
                    and 1 <= int(count) <= self.auto)
        return (self.kind == "list" and isinstance(value, list) and value != []
                and (self.item is None or self.item.accepts_all(value, high))
                and not (self.ascending and any(b <= a for a, b in zip(value, value[1:]))))

    def accepts_all(self, values: list, high: float | None) -> bool:
        """Whether every entry of a list passes. Integer entries are read in
        one pass of builtins, as the maps' and labelings' long lists need:
        JSON gives exact ints, and a bool's type is not int."""
        if self.kind == "int" and not self.values:
            top = self.high if high is None else high
            return set(map(type, values)) == {int} and self.low <= min(values) and max(
                values) <= top
        return all(self.accepts(v, high) for v in values)


def _one_of(*values: str, default: Any = _REQUIRED) -> _Rule:
    names = [repr(v) for v in values]
    return _Rule(f"must be {', '.join(names[:-1])} or {names[-1]}", default, values=values)


_OBJECT = _Rule("must be an object", kind="object")
_POSITIVE = "must be a positive integer"
_SIZE = f"{_POSITIVE} <= {_MAX_ENTRIES}"
_SCALE = "must be a number > 0 and <= sys.float_info.max / 2**63"
_KIND = _one_of("explicit", "random", default="explicit")

# Every config field by its path, list indices written [k]; README's
# "Config schema" table has one row per entry. The random filtration's
# stage count shares its path with the explicit labelings.
FIELDS: dict[str, _Rule] = {
    "seed": _Rule("must be a nonnegative integer", 0, "int", low=0),
    "space": _OBJECT,
    "space.kind": _KIND,
    "space.max_size": _Rule(_SIZE, 32, "int", low=1, high=_MAX_ENTRIES),
    "space.weights": _Rule("must be 'uniform' or a nonempty list", kind="list",
                           values=("uniform",)),
    "space.size": _Rule(_SIZE, kind="int", low=1, high=_MAX_ENTRIES),
    "maps": _Rule("must be a nonempty list", kind="list"),
    "maps[k]": _OBJECT,
    "maps[k].kind": _one_of("explicit", "identity", "cycle", "power", "random",
                            default="explicit"),
    "maps[k].of": _Rule("must index an earlier map", 0, "int", low=0),
    "maps[k].exponent": _Rule(_POSITIVE, 2, "int", low=1),
    "maps[k].perm": _Rule("must be a nonempty list of integers in [0, size - 1]", kind="list",
                          item=_Rule("", kind="int", low=0)),
    "filtrations": _Rule("must be a nonempty list", kind="list"),
    "filtrations[k]": _OBJECT,
    "filtrations[k].direction": _one_of(INCREASING, DECREASING, default=DECREASING),
    "filtrations[k].kind": _KIND,
    "filtrations[k].stages": _Rule("must be a nonempty list of labelings, nonempty lists of "
                                   "integers in [0, 2**63 - 1]", kind="list",
                                   item=_Rule("", kind="list", item=_Rule(
                                       "", kind="int", low=0, high=_MAX_LABEL))),
    "filtrations[k].stages (random)": _Rule(_POSITIVE, 3, "int", low=1),
    "observable": _OBJECT,
    "observable.kind": _KIND,
    "observable.dim": _Rule(f"{_POSITIVE} with size * dim <= {_MAX_ENTRIES}", 1, "int", low=1,
                            high=_MAX_ENTRIES),
    "observable.style": _one_of("normal", "spiky", "mixed", default="normal"),
    # a larger scale or envelope draws values or amplitudes past the float range
    "observable.scale": _Rule(_SCALE, 1.0, "number", low=0, open=True,
                              high=_MAX_WEIGHTED_SCALE),
    "observable.values": _Rule("must be a nonempty list", kind="list"),
    "weight_seqs": _Rule("must be null or one entry (object or null) per map", None,
                         "list", values=(None,)),
    "weight_seqs[k]": _Rule("must be null or an object", kind="object", values=(None,)),
    "weight_seqs[k].kind": _KIND,
    "weight_seqs[k].envelope": _Rule(_SCALE, 1.0, "number", low=0, open=True,
                                     high=_MAX_WEIGHTED_SCALE),
    "weight_seqs[k].terms": _Rule("must be a nonempty list of [amplitude, frequency, "
                                  "phase] triples", kind="list"),
    "process": _one_of(MARTINGALE_ERGODIC, ERGODIC_MARTINGALE, default=MARTINGALE_ERGODIC),
    # a JSON Infinity would not survive the manifest's strict JSON echo
    "norm_q": _Rule("must be a finite number >= 1 or 'inf'", 2, "number", values=("inf",),
                    low=1),
    "trace_p": _Rule("must be a finite number >= 1", 2.0, "number", low=1),
    "grids": _Rule("must be an object", {}, "object"),
    "grids.n1": _Rule("must be 'auto' or a strictly ascending list of positive integers",
                      "auto", "list", values=("auto",), item=_Rule("", kind="int", low=1),
                      ascending=True),
    "grids.n2": _Rule("must be 'all' or a strictly ascending list of valid stage indices",
                      "all", "list", values=("all",), item=_Rule("", kind="int", low=0),
                      ascending=True),
    "checks": _Rule("must be null or a list", None, "list", values=(None, [])),
    "checks[k]": _OBJECT,
    "checks[k].type": _one_of("dominant", "maximal", "orlicz"),
    "checks[k].box_factor": _Rule(_POSITIVE, 4, "int", low=1),
    "checks[k].p": _Rule("must be a finite number > 1", kind="number", low=1, open=True),
    "checks[k].epsilons": _Rule(f"must be 'auto<count>' with 1 <= count <= {_MAX_LEVELS} "
                                "or an ascending list of finite numbers > 0", "auto8",
                                "list", item=_Rule("", kind="number", low=0, open=True),
                                ascending=True, auto=_MAX_LEVELS),
    "checks[k].m": _Rule("must be a nonnegative integer", 0, "int", low=0),
}


def _object_keys() -> dict[str, frozenset]:
    """The keys each object may hold, by the FIELDS row of the object ("" for
    the whole config)."""
    keys: dict[str, set] = {}
    for name in FIELDS:
        parent, _, key = name.split()[0].rpartition(".")
        if not key.endswith("]"):
            keys.setdefault(parent, set()).add(key)
    return {parent: frozenset(names) for parent, names in keys.items()}


_KEYS = _object_keys()


def _check(value, path: str, name: str, high: float | None = None):
    """value, if the FIELDS row `name` accepts it and, for an object, knows
    each of its keys; else a ConfigError at path, or at the unknown key."""
    if not FIELDS[name].accepts(value, high):
        raise ConfigError(path, FIELDS[name].message)
    if isinstance(value, dict):
        _known_keys(value, path, name)
    return value


def _known_keys(cfg: dict, path: str, name: str):
    for key in cfg:
        if key not in _KEYS[name]:
            raise ConfigError(f"{path}.{key}" if path else str(key), "unknown field")


def _field(cfg: dict, path: str, name: str, high: float | None = None):
    """The field of the object cfg at `path` ("" at the top level) that the
    FIELDS row `name` describes; its default when absent."""
    key = name.split()[0].rpartition(".")[2]
    where = f"{path}.{key}" if path else key
    if key in cfg:
        return _check(cfg[key], where, name, high)
    if FIELDS[name].default is _REQUIRED:
        raise ConfigError(where, "missing required field")
    return FIELDS[name].default


def _make(path: str, build, *args):
    """build(*args); the error of a library constructor or of a bulk list's
    conversion (one np.fromiter, which takes flat lists only) becomes a
    ConfigError at path."""
    try:
        return build(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from None


# each builder below takes `rng`, a call that returns the config's one seeded
# generator, made on its first call


def _build_space(cfg: dict, rng) -> MeasureSpace:
    if _field(cfg, "space", "space.kind") == "random":
        weights = rng().uniform(0.2, 2.0, _field(cfg, "space", "space.max_size"))
        return MeasureSpace(weights / weights.sum())
    weights = _field(cfg, "space", "space.weights")
    if weights == "uniform":
        size = _field(cfg, "space", "space.size")
        return MeasureSpace(np.full(size, 1.0 / size))
    return _make("space.weights", lambda: MeasureSpace(np.fromiter(weights, float)))


def _build_map(cfg, path: str, space: MeasureSpace, built: list[Endomorphism],
               rng) -> Endomorphism:
    kind = _field(_check(cfg, path, "maps[k]"), path, "maps[k].kind")
    if kind == "power":
        of = _field(cfg, path, "maps[k].of", high=len(built) - 1)
        return power(built[of], _field(cfg, path, "maps[k].exponent"))
    if kind == "explicit":
        perm = _field(cfg, path, "maps[k].perm", high=space.size - 1)
        return _make(path, lambda: Endomorphism(space, np.fromiter(perm, np.int64)))
    # a cycle or a random permutation preserves only orbit-constant masses
    if kind == "random":
        from .generators import random_permutation
        return _make(path, random_permutation, rng(), space)
    return _make(path, cycle_map if kind == "cycle" else identity_map, space)


def _build_filtration(cfg, path: str, space: MeasureSpace, rng) -> Filtration:
    direction = _field(_check(cfg, path, "filtrations[k]"), path, "filtrations[k].direction")
    if _field(cfg, path, "filtrations[k].kind") == "random":
        n_stages = _field(cfg, path, "filtrations[k].stages (random)")
        from .generators import random_filtration
        return random_filtration(rng(), space, n_stages, direction)
    stages = []
    for j, labels in enumerate(_field(cfg, path, "filtrations[k].stages")):
        stages.append(_make(f"{path}.stages[{j}]",
                            lambda: Partition(space, np.fromiter(labels, np.int64))))
    return _make(f"{path}.stages", Filtration, space, direction, tuple(stages))


def _build_observable(cfg: dict, space: MeasureSpace, rng) -> VectorObservable:
    path = "observable"
    if _field(cfg, path, "observable.kind") == "random":
        dim = _field(cfg, path, "observable.dim", high=_MAX_ENTRIES // space.size)
        style = _field(cfg, path, "observable.style")
        scale = float(_field(cfg, path, "observable.scale"))
        from .generators import random_observable
        return random_observable(rng(), space, dim, style=style, scale=scale)
    # one value or one row per point, converted by the observable itself
    return _make("observable.values", VectorObservable, space,
                 _field(cfg, path, "observable.values"))


def _term(term, path: str) -> tuple:
    """An [amplitude, frequency, phase] triple; a frequency pair [numer,
    denom] is kept exact, whatever the denominator."""
    if isinstance(term, list) and len(term) == 3:
        amp, freq, phase = term
        if (isinstance(freq, list) and len(freq) == 2 and all(map(_is_int, freq))
                and 0 <= freq[0] < freq[1]):
            freq = Fraction(*freq)
        if all(map(_is_finite_number, (amp, freq, phase))):
            return float(amp), freq, float(phase)
    raise ConfigError(path, "must be [amplitude, frequency, phase] of finite numbers, "
                      "the frequency possibly an integer pair [numer, denom] with "
                      "0 <= numer < denom")


def _build_weights(cfg, path: str, rng) -> BesicovitchWeights | None:
    if _check(cfg, path, "weight_seqs[k]") is None:
        return None
    if _field(cfg, path, "weight_seqs[k].kind") == "random":
        from .generators import random_weights
        return random_weights(rng(), float(_field(cfg, path, "weight_seqs[k].envelope")))
    terms = tuple(_term(term, f"{path}.terms[{j}]")
                  for j, term in enumerate(_field(cfg, path, "weight_seqs[k].terms")))
    return _make(f"{path}.terms", BesicovitchWeights, terms)


def _build_check(cfg, path: str, spec: ProcessSpec) -> CheckSpec:
    ctype = _field(_check(cfg, path, "checks[k]"), path, "checks[k].type")
    box_factor = _field(cfg, path, "checks[k].box_factor")
    if ctype == "orlicz":
        return CheckSpec(type=ctype, m=_field(cfg, path, "checks[k].m"), box_factor=box_factor)
    p = float(_field(cfg, path, "checks[k].p"))
    eps = _field(cfg, path, "checks[k].epsilons") if ctype == "maximal" else None
    if isinstance(eps, list):
        eps = tuple(float(e) for e in eps)
    broken = broken_rule(spec, ctype, p)
    if broken is not None:
        raise ConfigError(path + broken[0], broken[1])
    return CheckSpec(type=ctype, p=p, epsilons=eps, box_factor=box_factor)


def build_experiment(config: dict, seed_override: int | None = None) -> ExperimentPlan:
    """Validates the config dict and constructs every object it describes."""
    if not isinstance(config, dict):
        raise ConfigError("config", "must be a JSON object")
    _known_keys(config, "", "")
    seed = (_field(config, "", "seed") if seed_override is None
            else _check(seed_override, "seed", "seed"))
    rng = functools.cache(lambda: np.random.default_rng(seed))

    space = _build_space(_field(config, "", "space"), rng)
    maps: list[Endomorphism] = []
    for k, mc in enumerate(_field(config, "", "maps")):
        maps.append(_build_map(mc, f"maps[{k}]", space, maps, rng))
    filts = [_build_filtration(fc, f"filtrations[{k}]", space, rng)
             for k, fc in enumerate(_field(config, "", "filtrations"))]
    f = _build_observable(_field(config, "", "observable"), space, rng)

    weights_cfg = _field(config, "", "weight_seqs")
    if weights_cfg is not None and len(weights_cfg) != len(maps):
        raise ConfigError("weight_seqs", FIELDS["weight_seqs"].message)
    weights = None if weights_cfg is None else tuple(
        _build_weights(wc, f"weight_seqs[{k}]", rng) for k, wc in enumerate(weights_cfg))

    kind = _field(config, "", "process")
    norm_q = NormSpec(float(_field(config, "", "norm_q")))  # float("inf") is math.inf
    spec = _make("config", ProcessSpec, kind, f, tuple(maps), tuple(filts), weights, norm_q)

    scale = float(np.abs(f.values).max())
    if not scale < _MAX_WEIGHTED_SCALE:
        field = "scale" if config["observable"].get("kind") == "random" else "values"
        raise ConfigError(f"observable.{field}", "the largest absolute entry must be "
                          "below sys.float_info.max / 2**63, so every average stays finite")
    if spec.is_weighted:
        periods = spec.periods()
        for k, w in enumerate(spec.weights):
            # nested averages multiply the amplitude sums of all maps
            scale *= w.amplitude_bound
            if not scale < _MAX_WEIGHTED_SCALE:
                field = "envelope" if (weights_cfg[k] or {}).get("kind") == "random" else "terms"
                raise ConfigError(f"weight_seqs[{k}].{field}",
                                  "the amplitude sums up to this map times the largest "
                                  "absolute observable entry must be below "
                                  "sys.float_info.max / 2**63")
            if w.period is None:
                raise ConfigError(f"weight_seqs[{k}]",
                                  "frequencies must be rational so the trace "
                                  "has an exact stabilization period")
            if periods[k] >= _MAX_LENGTH:
                raise ConfigError(f"weight_seqs[{k}]",
                                  "the stabilization period (lcm of the map order "
                                  "and the frequency denominators) must be below 2**62")
    # a point mass times a value, summed over a block, stays below the total mass times scale
    if not space.total_mass * scale < sys.float_info.max:
        raise ConfigError("space.weights", "the total mass times the largest absolute "
                          "observable entry and the weights' amplitude sums must be below "
                          "sys.float_info.max")

    trace_p = float(_field(config, "", "trace_p"))
    grids = _field(config, "", "grids")
    n1_cfg = _field(grids, "grids", "grids.n1")
    # common multiple of every map's stabilization period so the final grid point is exact
    n1_grid = (default_n1_grid(math.lcm(*spec.periods())) if n1_cfg == "auto"
               else tuple(n1_cfg))
    if n1_grid[-1] >= _MAX_LENGTH:
        raise ConfigError("grids.n1", "averaging lengths (up to 4 times the stabilization "
                          "period for 'auto') must be below 2**62")
    n_stages = min(len(fl.stages) for fl in spec.filtrations)
    n2_cfg = _field(grids, "grids", "grids.n2", high=n_stages - 1)
    n2_grid = tuple(range(n_stages)) if n2_cfg == "all" else tuple(n2_cfg)

    checks = tuple(_build_check(chk, f"checks[{k}]", spec)
                   for k, chk in enumerate(_field(config, "", "checks") or ()))
    return ExperimentPlan(spec=spec, checks=checks, n1_grid=n1_grid,
                          n2_grid=n2_grid, trace_p=trace_p, seed=seed,
                          config_echo=dict(config, seed=seed))
