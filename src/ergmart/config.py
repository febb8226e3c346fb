"""Experiment configuration: validation with path-addressed messages and
construction of library objects from JSON-friendly dictionaries.

Every random fragment draws from one seeded generator in a fixed order
(space, maps, filtrations, observable, weight sequences), so a config plus a
seed pins the whole experiment.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .averages import BesicovitchWeights
from .generators import (
    random_filtration,
    random_observable,
    random_permutation,
    random_weights,
)
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


def _need(cfg: dict, key: str, path: str) -> Any:
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return cfg[key]


def _is_finite_number(value) -> bool:
    # the bound rejects NaN, infinities and integers too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    # JSON true and false are Python ints; they are not integers here
    return isinstance(value, int) and not isinstance(value, bool)


def _as_positive_int(value, path: str) -> int:
    if not _is_int(value) or value < 1:
        raise ConfigError(path, "must be a positive integer")
    return value


def _build_space(cfg, path: str, rng) -> MeasureSpace:
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be an object")
    kind = cfg.get("kind", "explicit")
    if kind == "random":
        size = _as_positive_int(cfg.get("max_size", 32), f"{path}.max_size")
        weights = rng.uniform(0.2, 2.0, size)
        return MeasureSpace(weights / weights.sum())
    weights = _need(cfg, "weights", path)
    if weights == "uniform":
        size = _as_positive_int(_need(cfg, "size", path), f"{path}.size")
        return MeasureSpace(np.full(size, 1.0 / size))
    if not isinstance(weights, list) or not weights:
        raise ConfigError(f"{path}.weights", "must be 'uniform' or a nonempty list")
    try:
        return MeasureSpace(np.asarray(weights, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{path}.weights", str(exc)) from None


def _build_map(cfg, path: str, space: MeasureSpace, built: list[Endomorphism],
               rng) -> Endomorphism:
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be an object")
    kind = cfg.get("kind", "explicit")
    try:
        if kind == "identity":
            return identity_map(space)
        if kind == "cycle":
            return cycle_map(space)
        if kind == "power":
            of = cfg.get("of", 0)
            if not _is_int(of) or not 0 <= of < len(built):
                raise ConfigError(f"{path}.of", "must index an earlier map")
            return power(built[of], _as_positive_int(cfg.get("exponent", 2),
                                                     f"{path}.exponent"))
        if kind == "random":
            return random_permutation(rng, space)
        if kind == "explicit":
            perm = _need(cfg, "perm", path)
            return Endomorphism(space, np.asarray(perm, dtype=np.int64))
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        # a null, an infinite or a huge entry of an explicit perm
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}.kind", f"unknown map kind {kind!r}")


def _build_filtration(cfg, path: str, space: MeasureSpace, rng) -> Filtration:
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be an object")
    direction = cfg.get("direction", DECREASING)
    if direction not in (INCREASING, DECREASING):
        raise ConfigError(f"{path}.direction",
                          f"must be '{INCREASING}' or '{DECREASING}'")
    kind = cfg.get("kind", "explicit")
    if kind == "random":
        n_stages = _as_positive_int(cfg.get("stages", 3), f"{path}.stages")
        return random_filtration(rng, space, n_stages, direction)
    if kind != "explicit":
        raise ConfigError(f"{path}.kind", f"unknown filtration kind {kind!r}")
    stages_cfg = _need(cfg, "stages", path)
    if not isinstance(stages_cfg, list) or not stages_cfg:
        raise ConfigError(f"{path}.stages", "must be a nonempty list of labelings")
    stages = []
    for k, labels in enumerate(stages_cfg):
        try:
            stages.append(Partition(space, np.asarray(labels, dtype=np.int64)))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}.stages[{k}]", str(exc)) from None
    try:
        return Filtration(space, direction, tuple(stages))
    except ValueError as exc:
        raise ConfigError(f"{path}.stages", str(exc)) from None


def _build_observable(cfg, path: str, space: MeasureSpace, rng) -> VectorObservable:
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be an object")
    kind = cfg.get("kind", "explicit")
    if kind == "random":
        dim = _as_positive_int(cfg.get("dim", 1), f"{path}.dim")
        style = cfg.get("style", "normal")
        scale = cfg.get("scale", 1.0)
        if not _is_finite_number(scale) or scale <= 0:
            raise ConfigError(f"{path}.scale", "must be a positive number")
        try:
            return random_observable(rng, space, dim, style=style, scale=float(scale))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    if kind != "explicit":
        raise ConfigError(f"{path}.kind", f"unknown observable kind {kind!r}")
    values = _need(cfg, "values", path)
    try:
        return VectorObservable(space, np.asarray(values, dtype=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.values", str(exc)) from None


def _build_weights(cfg, path: str, rng) -> BesicovitchWeights | None:
    if cfg is None:
        return None
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be null or an object")
    if cfg.get("kind") == "random":
        envelope = cfg.get("envelope", 1.0)
        if not _is_finite_number(envelope) or not envelope > 0:
            raise ConfigError(f"{path}.envelope", "must be a finite number > 0")
        return random_weights(rng, envelope=float(envelope))
    terms_cfg = _need(cfg, "terms", path)
    if not isinstance(terms_cfg, list) or not terms_cfg:
        raise ConfigError(f"{path}.terms", "must be a nonempty list of "
                          "[amplitude, frequency, phase] triples")
    terms = []
    for k, term in enumerate(terms_cfg):
        if not isinstance(term, list) or len(term) != 3:
            raise ConfigError(f"{path}.terms[{k}]",
                              "must be [amplitude, frequency, phase]")
        amp, freq, phase = term
        if isinstance(freq, list):
            if len(freq) != 2:
                raise ConfigError(f"{path}.terms[{k}]",
                                  "frequency pair must be [numer, denom]")
            num, den = freq
            if not (_is_int(num) and _is_int(den) and 0 <= num < den):
                raise ConfigError(f"{path}.terms[{k}]",
                                  "frequency pair needs integers 0 <= numer < denom")
            freq = Fraction(num, den)  # kept exact, whatever the denominator
        if not all(isinstance(v, Fraction) or _is_finite_number(v)
                   for v in (amp, freq, phase)):
            raise ConfigError(f"{path}.terms[{k}]",
                              "amplitude, frequency and phase must be finite numbers")
        terms.append((float(amp), freq, float(phase)))
    try:
        return BesicovitchWeights(tuple(terms))
    except ValueError as exc:
        raise ConfigError(f"{path}.terms", str(exc)) from None


def _build_checks(cfg, path: str) -> tuple[CheckSpec, ...]:
    if cfg is None:
        return ()
    if not isinstance(cfg, list):
        raise ConfigError(path, "must be a list")
    out = []
    for k, chk in enumerate(cfg):
        cpath = f"{path}[{k}]"
        if not isinstance(chk, dict):
            raise ConfigError(cpath, "must be an object")
        ctype = _need(chk, "type", cpath)
        box_factor = chk.get("box_factor", 4)
        if not _is_int(box_factor) or box_factor < 1:
            raise ConfigError(f"{cpath}.box_factor", "must be a positive integer")
        if ctype in ("dominant", "maximal"):
            p = _need(chk, "p", cpath)
            if not _is_finite_number(p) or not p > 1:
                raise ConfigError(f"{cpath}.p", "must be a finite number > 1")
            eps = None
            if ctype == "maximal":
                eps = chk.get("epsilons", "auto8")
                if isinstance(eps, str):
                    if not (eps.startswith("auto") and eps[4:].isdigit()
                            and int(eps[4:]) >= 1):
                        raise ConfigError(f"{cpath}.epsilons", "must be 'auto<count>' "
                                          "with count >= 1 or an ascending list")
                elif isinstance(eps, list):
                    if not eps or any(not _is_finite_number(e) or e <= 0 for e in eps):
                        raise ConfigError(f"{cpath}.epsilons",
                                          "must be finite positive numbers")
                    if any(b <= a for a, b in zip(eps, eps[1:])):
                        raise ConfigError(f"{cpath}.epsilons", "must be ascending")
                    eps = tuple(float(e) for e in eps)
                else:
                    raise ConfigError(f"{cpath}.epsilons",
                                      "must be 'auto<count>' or an ascending list")
            out.append(CheckSpec(type=ctype, p=float(p), epsilons=eps,
                                 box_factor=box_factor))
        elif ctype == "orlicz":
            m = chk.get("m", 0)
            if not _is_int(m) or m < 0:
                raise ConfigError(f"{cpath}.m", "must be a nonnegative integer")
            out.append(CheckSpec(type="orlicz", m=m, box_factor=box_factor))
        else:
            raise ConfigError(f"{cpath}.type", f"unknown check type {ctype!r}")
    return tuple(out)


def build_experiment(config: dict, seed_override: int | None = None) -> ExperimentPlan:
    """Validates the config dict and constructs every object it describes."""
    if not isinstance(config, dict):
        raise ConfigError("config", "must be a JSON object")
    seed = config.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed", "must be a nonnegative integer")
    rng = np.random.default_rng(seed)

    space = _build_space(_need(config, "space", "config"), "space", rng)

    maps_cfg = _need(config, "maps", "config")
    if not isinstance(maps_cfg, list) or not maps_cfg:
        raise ConfigError("maps", "must be a nonempty list")
    maps: list[Endomorphism] = []
    for k, mc in enumerate(maps_cfg):
        maps.append(_build_map(mc, f"maps[{k}]", space, maps, rng))

    filts_cfg = _need(config, "filtrations", "config")
    if not isinstance(filts_cfg, list) or not filts_cfg:
        raise ConfigError("filtrations", "must be a nonempty list")
    filts = [_build_filtration(fc, f"filtrations[{k}]", space, rng)
             for k, fc in enumerate(filts_cfg)]

    f = _build_observable(_need(config, "observable", "config"), "observable",
                          space, rng)

    weights_cfg = config.get("weight_seqs")
    weights = None
    if weights_cfg is not None:
        if not isinstance(weights_cfg, list) or len(weights_cfg) != len(maps):
            raise ConfigError("weight_seqs",
                              "must be null or one entry (object or null) per map")
        weights = tuple(_build_weights(wc, f"weight_seqs[{k}]", rng)
                        for k, wc in enumerate(weights_cfg))

    kind = config.get("process", MARTINGALE_ERGODIC)
    if kind not in (MARTINGALE_ERGODIC, ERGODIC_MARTINGALE):
        raise ConfigError("process",
                          f"must be '{MARTINGALE_ERGODIC}' or '{ERGODIC_MARTINGALE}'")

    norm_q = config.get("norm_q", 2)
    if norm_q == "inf":
        norm_q = math.inf
    elif not _is_finite_number(norm_q) or not norm_q >= 1:
        # a JSON Infinity would not survive the manifest's strict JSON echo
        raise ConfigError("norm_q", "must be a finite number >= 1 or 'inf'")

    try:
        spec = ProcessSpec(kind, f, tuple(maps), tuple(filts), weights,
                           NormSpec(float(norm_q)))
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None

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

    trace_p = config.get("trace_p", 2.0)
    if not _is_finite_number(trace_p) or not trace_p >= 1:
        raise ConfigError("trace_p", "must be a finite number >= 1")

    grids = config.get("grids", {})
    if not isinstance(grids, dict):
        raise ConfigError("grids", "must be an object")
    n1_cfg = grids.get("n1", "auto")
    # common multiple of every map's order so the final grid point is exact
    order = math.lcm(*spec.orbit_lcms())
    if n1_cfg == "auto":
        n1_grid = default_n1_grid(order)
    elif (isinstance(n1_cfg, list) and n1_cfg
          and all(_is_int(v) and v >= 1 for v in n1_cfg)
          and all(b > a for a, b in zip(n1_cfg, n1_cfg[1:]))):
        n1_grid = tuple(n1_cfg)
    else:
        raise ConfigError("grids.n1",
                          "must be 'auto' or a strictly ascending list of "
                          "positive integers")
    if n1_grid[-1] >= _MAX_LENGTH:
        raise ConfigError("grids.n1", "averaging lengths (up to 4 times the map "
                          "order for 'auto') must be below 2**62")
    n_stages = min(len(fl.stages) for fl in spec.filtrations)
    n2_cfg = grids.get("n2", "all")
    if n2_cfg == "all":
        n2_grid = tuple(range(n_stages))
    elif (isinstance(n2_cfg, list) and n2_cfg
          and all(_is_int(v) and 0 <= v < n_stages for v in n2_cfg)
          and all(b > a for a, b in zip(n2_cfg, n2_cfg[1:]))):
        n2_grid = tuple(n2_cfg)
    else:
        raise ConfigError("grids.n2",
                          "must be 'all' or a strictly ascending list of valid "
                          "stage indices")

    checks = _build_checks(config.get("checks"), "checks")
    for k, chk in enumerate(checks):
        if chk.type in ("dominant", "maximal"):
            broken = broken_rule(spec, chk.type, chk.p)
            if broken is not None:
                raise ConfigError(f"checks[{k}]{broken[0]}", broken[1])

    echo = dict(config)
    echo["seed"] = seed
    return ExperimentPlan(spec=spec, checks=checks, n1_grid=n1_grid,
                          n2_grid=n2_grid, trace_p=float(trace_p), seed=seed,
                          config_echo=echo)
