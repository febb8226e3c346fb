"""Brute-force reference implementations used to freeze expected values.

Everything here is plain Python over lists: no shared code with the library
paths under test beyond numpy array inputs being tolerated. The two
`*_steps` oracles and the two `*_bincount` oracles at the end are the
exception: they replay, one numpy operation at a time, the float order the
library's fast paths must keep, so the tests can compare them bit for bit.
`oracle_sup_field_full_period` is the other exception: the sup pass before
the per-point cut of the outermost axis, over the library's own kernels, so
it judges that cut alone.

The `ld_*` oracles at the end judge the library's floats: each evaluates a
quantity from its plain definition (step sums along the orbit, block sums
for each conditioning, one stage at a time) in `np.longdouble`, which has a
64-bit significand on x86 (its unit roundoff is 2**-11 of a float's), so
their own rounding is far below the error models the tests state. They read
a spec's raw data only: the values, the masses, the permutations, the block
labels, the weights' terms and the exact rationals their frequencies stand
for. `fraction_process` checks them in exact
arithmetic on small unweighted instances.
"""
import math
from fractions import Fraction

import numpy as np


def blocks_from_labels(labels):
    out = {}
    for i, b in enumerate(labels):
        out.setdefault(int(b), []).append(i)
    return list(out.values())


def oracle_refines(fine_labels, coarse_labels):
    for block in blocks_from_labels(fine_labels):
        targets = {int(coarse_labels[i]) for i in block}
        if len(targets) != 1:
            return False
    return True


def oracle_join_blocks(a_labels, b_labels):
    seen = {}
    for i, (a, b) in enumerate(zip(a_labels, b_labels)):
        seen.setdefault((int(a), int(b)), []).append(i)
    return sorted(sorted(v) for v in seen.values())


def oracle_meet_blocks(a_labels, b_labels):
    n = len(a_labels)
    adj = {i: set() for i in range(n)}
    for labels in (a_labels, b_labels):
        for block in blocks_from_labels(labels):
            for i in block:
                adj[i].update(block)
    unvisited = set(range(n))
    comps = []
    while unvisited:
        start = unvisited.pop()
        comp, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in unvisited:
                    unvisited.remove(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return sorted(comps)


def canonical_blocks(labels):
    return sorted(sorted(b) for b in blocks_from_labels(labels))


def oracle_cond_expect(weights, labels, values):
    """values: list of rows (lists); returns the block-averaged rows."""
    n, d = len(values), len(values[0])
    out = [[0.0] * d for _ in range(n)]
    for block in blocks_from_labels(labels):
        mass = sum(weights[i] for i in block)
        avg = [sum(weights[i] * values[i][k] for i in block) / mass for k in range(d)]
        for i in block:
            out[i] = list(avg)
    return out


def oracle_koopman(values, perm):
    return [list(values[perm[i]]) for i in range(len(values))]


def oracle_ergodic_average(values, perm, n):
    rows, d = len(values), len(values[0])
    out = [[0.0] * d for _ in range(rows)]
    cur = [list(r) for r in values]
    for _ in range(n):
        for i in range(rows):
            for k in range(d):
                out[i][k] += cur[i][k]
        cur = oracle_koopman(cur, perm)
    return [[v / n for v in row] for row in out]


def oracle_weighted_average(values, perm, alphas, n):
    rows, d = len(values), len(values[0])
    out = [[0.0] * d for _ in range(rows)]
    cur = [list(r) for r in values]
    for step in range(n):
        for i in range(rows):
            for k in range(d):
                out[i][k] += alphas[step] * cur[i][k]
        cur = oracle_koopman(cur, perm)
    return [[v / n for v in row] for row in out]


def oracle_cycles(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        nxt = perm[s]
        while nxt != s:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append(cyc)
    return out


def oracle_ergodic_limit(values, weights, perm):
    out = [None] * len(values)
    d = len(values[0])
    for cyc in oracle_cycles(perm):
        mass = sum(weights[i] for i in cyc)
        avg = [sum(weights[i] * values[i][k] for i in cyc) / mass for k in range(d)]
        for i in cyc:
            out[i] = list(avg)
    return out


def _apply_power(values, perm, k):
    cur = [list(r) for r in values]
    for _ in range(k):
        cur = oracle_koopman(cur, perm)
    return cur


def oracle_multi_average(values, perms, alphas_list, n_vec):
    """Direct sum over the full product index box, operators applied last
    axis first (T_1^{k_1} ... T_d^{k_d} f)."""
    rows, d = len(values), len(values[0])
    out = [[0.0] * d for _ in range(rows)]

    def rec(axis, current, coeff):
        if axis < 0:
            for i in range(rows):
                for k in range(d):
                    out[i][k] += coeff * current[i][k]
            return
        for kk in range(n_vec[axis]):
            rec(axis - 1, _apply_power(current, perms[axis], kk),
                coeff * alphas_list[axis][kk])

    rec(len(perms) - 1, values, 1.0)
    total = 1
    for n in n_vec:
        total *= n
    return [[v / total for v in row] for row in out]


def oracle_composite(weights, stage_labels, values):
    """Sequential block averages, last listed labeling applied first."""
    cur = [list(r) for r in values]
    for labels in reversed(stage_labels):
        cur = oracle_cond_expect(weights, labels, cur)
    return cur


def oracle_point_norm(row, q):
    if math.isinf(q):
        return max(abs(v) for v in row)
    return sum(abs(v) ** q for v in row) ** (1.0 / q)


def oracle_lp_norm(weights, values, p, q):
    return sum(w * oracle_point_norm(row, q) ** p
               for w, row in zip(weights, values)) ** (1.0 / p)


def oracle_llog(weights, values, m, q):
    total = 0.0
    for w, row in zip(weights, values):
        norm = oracle_point_norm(row, q)
        total += w * norm * (math.log(max(1.0, norm)) ** m)
    return total


def oracle_running_averages_steps(arr, perm, alphas, n):
    """Rows 0..n-1 of the running weighted averages by the step recurrence,
    one gather per averaging length: T^i arr = (T^(i-1) arr) gathered
    through `perm` on axis -2, acc = acc + a_i T^i arr, row k divided by
    k + 1."""
    out = np.empty((n,) + np.shape(arr))
    cur = np.asarray(arr, dtype=float)
    acc = cur * alphas[0] if alphas is not None else cur.copy()
    out[0] = acc
    for i in range(1, n):
        cur = np.take(cur, perm, axis=-2)
        acc = acc + (cur * alphas[i] if alphas is not None else cur)
        out[i] = acc
    out /= np.arange(1, n + 1, dtype=float).reshape((n,) + (1,) * cur.ndim)
    return out


def oracle_row_norms_steps(values, q):
    """l^q norms over the last axis as numpy reductions over that axis: |v|
    for one component, sqrt of the summed squares for q = 2, the max for
    q = inf, (sum |v|^q)^(1/q) otherwise."""
    if values.shape[-1] == 1:
        return np.abs(values[..., 0])
    a = np.abs(values)
    if math.isinf(q):
        return a.max(axis=-1)
    if q == 1.0:
        return a.sum(axis=-1)
    if q == 2.0:
        return np.sqrt((values * values).sum(axis=-1))
    return (a**q).sum(axis=-1) ** (1.0 / q)


def oracle_block_means_bincount(values, part):
    """Block means as one bincount per call: the stack (..., N, dim) times
    the point masses repeated dim times, every slice's bins offset by its
    row, one bincount over the whole stack, then divided by the block
    masses. Nothing is skipped on single points."""
    vals = np.asarray(values, dtype=float)
    *lead, n, dim = vals.shape
    rows = math.prod(lead)
    width = part.block_count * dim
    bins = ((part.block_of * dim)[:, None] + np.arange(dim)).reshape(-1)
    masses = np.repeat(part.space.weights, dim)
    if rows > 1:
        bins = np.add.outer(np.arange(0, rows * width, width), bins).reshape(-1)
    weighted = vals.reshape(rows, n * dim) * masses
    sums = np.bincount(bins, weights=weighted.reshape(-1), minlength=rows * width)
    block_masses = np.bincount(part.block_of, weights=part.space.weights,
                               minlength=part.block_count)
    return sums.reshape(*lead, part.block_count, dim) / block_masses[:, None]


def oracle_composite_block_means_bincount(values, filtrations, stage_sets):
    """[(partition, block means)] per stage of the first filtration, each
    stage of every filtration conditioned by oracle_block_means_bincount on
    its own, the last filtration first, its stage axis after the stack's."""
    lead = values.ndim - 2
    for fl, ss in zip(filtrations[:0:-1], stage_sets[:0:-1]):
        values = np.stack([np.take(oracle_block_means_bincount(values, fl.stages[s]),
                                   fl.stages[s].block_of, axis=-2) for s in ss], axis=lead)
    return [(filtrations[0].stages[s], oracle_block_means_bincount(values, filtrations[0].stages[s]))
            for s in stage_sets[0]]


def oracle_sup_field_full_period(spec, box, chunk_floats=2**17):
    """The pointwise sup of the process norms over `box` (already cut to the
    periods), every point averaged up to n_max_1 on the outermost axis: the
    sup pass as it was built before each point stopped at its own cycle
    period. Inner axes whole, the outermost one streamed in chunks of about
    `chunk_floats` floats; martingale-ergodic chunks are conditioned after
    the averaging and maxed per block."""
    from ergmart.averages import composite_block_means, running_rows
    from ergmart.observables import point_norms
    from ergmart.processes import MARTINGALE_ERGODIC

    me = spec.kind == MARTINGALE_ERGODIC
    alphas = ([None] * spec.d_maps if spec.weights is None
              else [w.values(k) for w, k in zip(spec.weights, box.n_max)])
    if me:
        inner = spec.f.values
    else:
        inner = np.stack([np.take(means, part.block_of, axis=-2) for part, means in
                          composite_block_means(spec.f.values, spec.filtrations,
                                                box.stage_sets)])
    for j in reversed(range(1, spec.d_maps)):
        n = box.n_max[j]
        _, inner = next(running_rows(inner, spec.maps[j], alphas[j], (n,), n))
    rows = max(1, chunk_floats // inner.size)
    field = np.zeros(spec.space.size)
    for _, chunk in running_rows(inner, spec.maps[0], alphas[0], (box.n_max[0],), rows):
        if me:
            for part, means in composite_block_means(chunk, spec.filtrations, box.stage_sets):
                norms = point_norms(means, spec.norm.q)
                top = norms.reshape(-1, norms.shape[-1]).max(axis=0)[part.block_of]
                np.maximum(field, top, out=field)
        else:
            norms = point_norms(chunk, spec.norm.q)
            np.maximum(field, norms.reshape(-1, norms.shape[-1]).max(axis=0), out=field)
    return field


LD = np.longdouble
_TWO_PI = 8 * np.arctan(LD(1))
U = np.finfo(float).eps / 2  # a float's unit roundoff


def error_scale(spec):
    """u T K F d: the unit roundoff u of a float, the most terms T of a
    weight sequence, K the product over the maps of their sums of |amp|
    (T = K = 1 unweighted), F = max |f| and d the dimension. An error model
    of the tests is c times this times the count of terms summed."""
    weights = spec.weights or ()
    terms = max((len(w.terms) for w in weights), default=1)
    bound = math.prod(w.amplitude_bound for w in weights)
    return U * terms * bound * float(np.abs(spec.f.values).max()) * spec.f.dim


def summed_terms(spec, steps):
    """steps + 2 N d_maps + d + 8: the averaging steps, the doubled cycles
    that a Cesaro kernel's prefix sums run over (N points per map) or the
    point sums of the conditioning, the components of a norm, and a few
    roundings of the products and divisions after them."""
    return steps + 2 * spec.space.size * spec.d_maps + spec.f.dim + 8


def ld_weights(w, n):
    """a_i = sum_k amp_k cos(2 pi freq_k i + phase_k) for i < n, in long
    double, the terms added in their order. A rational frequency num/den (as
    the weights hold it) turns through (num i mod den) / den of a circle,
    reduced in integers; any other frequency through the float times i."""
    i = np.arange(n, dtype=np.int64)
    out = np.zeros(n, dtype=LD)
    for (amp, freq, phase), exact, num, den in zip(w.terms, w._exact[:, 0], w._num[:, 0],
                                                   w._den[:, 0]):
        turns = ((num * (i % den) % den).astype(LD) / LD(den) if exact
                 else LD(freq) * i.astype(LD))
        out += LD(amp) * np.cos(_TWO_PI * turns + LD(phase))
    return out


def ld_periods(spec):
    """Per map, the lcm of its cycle lengths and of its weights' frequency
    denominators: past it both the orbit and the weights repeat, so the
    weighted Cesaro average there is the limit. Raises for an irrational
    frequency."""
    out = []
    for j, t in enumerate(spec.maps):
        period = math.lcm(*(len(cyc) for cyc in oracle_cycles([int(y) for y in t.map])))
        if spec.weights is not None:
            w = spec.weights[j]
            if not w._exact.all():
                raise ValueError("an irrational frequency has no period")
            period = math.lcm(period, *(int(den) for den in w._den[:, 0]))
        out.append(period)
    return tuple(out)


def _ld_alphas(spec, j, n):
    return None if spec.weights is None else ld_weights(spec.weights[j], n)


def _ld_rows(values, perm, alphas, n):
    """Rows m = 1..n of (1/m) sum_{i<m} a_i v(T^i x) of point values (N,
    dim), shape (n, N, dim): the orbit T^i x stepped one application of the
    permutation at a time, the step sums accumulated in order."""
    index = np.empty((n, len(perm)), dtype=np.int64)
    index[0] = np.arange(len(perm))
    for i in range(1, n):
        index[i] = perm[index[i - 1]]
    terms = values[index]
    if alphas is not None:
        terms = terms * alphas[:n, None, None]
    return np.cumsum(terms, axis=0) / np.arange(1, n + 1).astype(LD)[:, None, None]


def _ld_condition(values, masses, labels):
    """E[v | block] over the point axis (-2): each block's mass-weighted sum
    over its points divided by its mass, spread back to its points."""
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    sums = np.add.reduceat(values[..., order, :] * masses[order, None], starts, axis=-2)
    means = sums / np.add.reduceat(masses[order], starts)[:, None]
    block = np.cumsum(np.diff(labels[order], prepend=-1) != 0) - 1
    out = np.empty_like(values)
    out[..., order, :] = means[..., block, :]
    return out


def _ld_composites(spec, values, stage_sets):
    """{s_vec: E_1[... E_m[v | s_m] ... | s_1]} over the product of the
    stage sets, the last filtration conditioning first; each partial
    composition is taken once for all the s_vecs that share it."""
    masses = spec.space.weights.astype(LD)
    out = {(): values}
    for fl, stages in reversed(list(zip(spec.filtrations, stage_sets))):
        out = {(s,) + rest: _ld_condition(v, masses, fl.stages[s].block_of)
               for rest, v in out.items() for s in stages}
    return out


def ld_process(spec, n_vec, s_vec):
    """The process at (n_vec, s_vec) in long double, shape (N, dim):
    martingale-ergodic E_1 ... E_m A^1 ... A^d f, ergodic-martingale
    A^1 ... A^d E_1 ... E_m f, with A^j the weighted average of length n_j
    along map j and E_k the conditioning on stage s_k of filtration k; the
    last operator of each product acts first."""
    me = spec.kind == "martingale_ergodic"
    values = spec.f.values.astype(LD)
    if not me:
        values = _ld_composites(spec, values, [(s,) for s in s_vec])[tuple(s_vec)]
    for j in reversed(range(spec.d_maps)):
        n = n_vec[j]
        values = _ld_rows(values, spec.maps[j].map, _ld_alphas(spec, j, n), n)[-1]
    if me:
        values = _ld_composites(spec, values, [(s,) for s in s_vec])[tuple(s_vec)]
    return values


def ld_limit(spec):
    """The limit of the process in long double: the process at the periods
    (ld_periods) and the last stages, where every average equals its limit."""
    return ld_process(spec, ld_periods(spec), spec.last_stages)


def ld_point_norms(values, q):
    """l^q norms over the last axis in long double."""
    a = np.abs(values)
    if math.isinf(q):
        return a.max(axis=-1)
    if q == 1.0:
        return a.sum(axis=-1)
    if q == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    return (a ** LD(q)).sum(axis=-1) ** (1 / LD(q))


def ld_powered_norm(masses, norms, p):
    """sum_x mu(x) norms(x)^p in long double, the p-th power of the L_p norm."""
    return (masses.astype(LD) * norms.astype(LD) ** LD(p)).sum()


def ld_lp_norm(masses, norms, p):
    """(sum_x mu(x) norms(x)^p)^(1/p) in long double."""
    return ld_powered_norm(masses, norms, p) ** (1 / LD(p))


def ld_period_box(spec, n_max):
    """Each averaging length of the box cut to its map's period."""
    return tuple(min(n, period) for n, period in zip(n_max, ld_periods(spec)))


def ld_sup_field(spec, box):
    """max over the box cut to the periods (n_j <= min(n_max_j, P_j), s_k
    in the box's stage sets) of the point norms of ld_process, per point:
    by the segment argument of the inequalities module, the sup over every
    averaging length. Every cell is a row of its own step sums."""
    me = spec.kind == "martingale_ergodic"
    n_max = ld_period_box(spec, box.n_max)
    stacks = [spec.f.values.astype(LD)]
    if not me:
        stacks = list(_ld_composites(spec, stacks[0], box.stage_sets).values())
    for j in reversed(range(1, spec.d_maps)):
        stacks = [row for v in stacks
                  for row in _ld_rows(v, spec.maps[j].map, _ld_alphas(spec, j, n_max[j]), n_max[j])]
    alphas = _ld_alphas(spec, 0, n_max[0])
    field = np.zeros(spec.space.size, dtype=LD)
    for v in stacks:
        rows = _ld_rows(v, spec.maps[0].map, alphas, n_max[0])
        for cell in (_ld_composites(spec, rows, box.stage_sets).values() if me else [rows]):
            field = np.maximum(field, ld_point_norms(cell, spec.norm.q).max(axis=0))
    return field


def ld_alpha(spec, n_max):
    """The weight bound of the constants: per map the larger of sup |a_i|
    over its box axis cut to the period and sum_k |amp_k|, the largest over
    the maps; 1 unweighted."""
    if spec.weights is None:
        return LD(1)
    n_max = ld_period_box(spec, n_max)
    return max(max(np.abs(ld_weights(w, n)).max(), sum(abs(LD(a)) for a, _, _ in w.terms))
               for w, n in zip(spec.weights, n_max))


def ld_maximal_rhs(spec, p, eps, n_max):
    """C |f|_p^p / eps^p in long double, C the catalog's maximal constant
    (the README table): (p/(p-1))^p, alpha (p/(p-1))^p weighted, alpha^p
    (p/(p-1))^(p d) multiparameter."""
    p, base, alpha = LD(p), LD(p) / (LD(p) - 1), ld_alpha(spec, n_max)
    if spec.d_maps > 1 or len(spec.filtrations) > 1:
        const = alpha ** p * base ** (p * spec.d_maps)
    else:
        const = (alpha if spec.weights is not None else 1) * base ** p
    norms = ld_point_norms(spec.f.values.astype(LD), spec.norm.q)
    return const * ld_powered_norm(spec.space.weights, norms, p) / LD(eps) ** p


def fraction_process(spec, n_vec, s_vec):
    """The unweighted process at (n_vec, s_vec) in exact rational
    arithmetic on the float inputs, as lists of Fraction rows."""
    if spec.weights is not None:
        raise ValueError("exact arithmetic needs unweighted averages")
    masses = [Fraction(float(m)) for m in spec.space.weights]
    values = [[Fraction(float(v)) for v in row] for row in spec.f.values]
    labels = [fl.stages[s].block_of for fl, s in zip(spec.filtrations, s_vec)]

    def condition(rows):
        return oracle_composite(masses, labels, rows)

    me = spec.kind == "martingale_ergodic"
    if not me:
        values = condition(values)
    for j in reversed(range(spec.d_maps)):
        perm, n = [int(y) for y in spec.maps[j].map], n_vec[j]
        total, cur = [[Fraction(0)] * len(row) for row in values], values
        for _ in range(n):
            total = [[a + b for a, b in zip(t, c)] for t, c in zip(total, cur)]
            cur = oracle_koopman(cur, perm)
        values = [[v / n for v in row] for row in total]
    return condition(values) if me else values
