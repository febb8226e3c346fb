"""Brute-force reference implementations used to freeze expected values.

Everything here is plain Python over lists: no shared code with the library
paths under test beyond numpy array inputs being tolerated. The two
`*_steps` oracles and the two `*_bincount` oracles at the end are the
exception: they replay, one numpy operation at a time, the float order the
library's fast paths must keep, so the tests can compare them bit for bit.
`oracle_sup_field_full_period` is the other exception: the sup pass before
the per-point cut of the outermost axis, over the library's own kernels, so
it judges that cut alone.
"""
import math

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
