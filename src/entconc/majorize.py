"""Majorization machinery for LOCC convertibility.

Schmidt vectors are numpy arrays of nonnegative reals sorted descending and
summing to 1. Conversion feasibility, the conclusive-conversion probability,
the intermediate vector for the two-phase protocol, and the decompositions
used to compile measurement rounds (T-transform chains, their groupings, and
Birkhoff convex decompositions of doubly-stochastic matrices) all live here.

T-transform coordinate indices are 0-based.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qmath import (
    _MEMO_SIZE, INPUT_TOL, RESIDUAL_TOL, STRUCTURAL_TOL, UNIT_TOL, WEIGHT_TOL, ZERO_TOL, clip_unit,
)


class TTransform(NamedTuple):
    """Doubly-stochastic mix of identity and the (j, k) swap.

    Acts on coordinates j < k as [[t, 1-t], [1-t, t]] and as identity
    elsewhere.
    """

    j: int
    k: int
    t: float


def _as_schmidt(v) -> np.ndarray:
    """Schmidt vectors along the last axis, each checked; leading axes batch.

    Entries down to -UNIT_TOL count as nonnegative; the sum and the
    descending order are held to INPUT_TOL.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.isfinite(v).all():
        raise ValueError("Schmidt vector has a non-finite entry")
    if (v.min(axis=-1) < -UNIT_TOL).any():
        raise ValueError("Schmidt vector has a negative entry")
    if (abs(v.sum(axis=-1) - 1.0) > INPUT_TOL).any():
        raise ValueError("Schmidt vector does not sum to 1")
    if (v[..., :-1] < v[..., 1:] - INPUT_TOL).any():
        raise ValueError("Schmidt vector is not sorted descending")
    return v


def _pad_pair(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    a = _as_schmidt(alpha)
    b = _as_schmidt(beta)
    if a.size == b.size:
        return a, b
    d = max(a.size, b.size)
    a = np.concatenate([a, np.zeros(d - a.size)])
    b = np.concatenate([b, np.zeros(d - b.size)])
    return a, b


def is_majorized(alpha, beta) -> bool:
    """True iff every prefix sum of alpha is at most that of beta.

    The majorized (more mixed) vector is the first argument; True means a
    deterministic LOCC conversion from a state with Schmidt vector ``alpha``
    to one with ``beta`` exists. Sums are compared within UNIT_TOL.
    """
    return _majorized(*_pad_pair(alpha, beta))


def _majorized(a: np.ndarray, b: np.ndarray) -> bool:
    """``is_majorized`` of checked, equal-length a and b."""
    ca, cb = np.cumsum(a), np.cumsum(b)
    if abs(ca[-1] - cb[-1]) > UNIT_TOL:
        return False
    return bool(np.all(ca <= cb + UNIT_TOL))


def _tails(v: np.ndarray) -> np.ndarray:
    """Suffix sums E_l = sum_{i >= l} along the last axis, for l = 0..d-1."""
    return v[..., ::-1].cumsum(axis=-1)[..., ::-1]


def vidal_probability(alpha, beta):
    """Maximal conversion probability min_l E_l(alpha)/E_l(beta).

    E_l is the suffix sum from position l; positions past the target's
    rank impose nothing and are skipped. Returns a value in (0, 1], equal
    to 1 exactly when alpha is majorized by beta: the ratios are capped at
    1, so the l = 0 ratio of two sums that differ within INPUT_TOL reads 1,
    and one below 0 beyond UNIT_TOL raises in ``clip_unit``. A target of
    larger Schmidt rank than the source is unreachable and yields 0.0. This
    is the package's one rank rule, which ``compile_schedule`` uses too: the
    target's rank counts its coefficients above WEIGHT_TOL, every weight
    the final filter must deliver, and the source's counts those above
    UNIT_TOL, the cut of the compile's supports, so every ratio taken has
    a numerator above UNIT_TOL. Leading axes batch and broadcast: each
    entry equals, bit for bit, the call on its pair of 1-D vectors alone,
    which gives a float.
    """
    a, b = _as_schmidt(alpha), _as_schmidt(beta)
    ranked = b > WEIGHT_TOL
    unreachable = ranked.sum(axis=-1) > (a > UNIT_TOL).sum(axis=-1)
    ta, tb = _tails(a), _tails(b)
    # suffix sums past a vector's end are 0: past alpha's the ratio is 0,
    # past beta's the position imposes nothing
    d = tb.shape[-1]
    if ta.shape[-1] < d:
        ta = np.concatenate([ta, np.zeros(ta.shape[:-1] + (d - ta.shape[-1],))], axis=-1)
    ta = ta[..., :d]
    ratio = np.full(np.broadcast(ta, tb).shape, np.inf)
    np.divide(ta, tb, out=ratio, where=ranked)
    p = np.where(unreachable, 0.0, ratio.min(axis=-1, initial=1.0))
    return clip_unit(p, "conversion probability")


def vidal_intermediate(alpha, beta) -> np.ndarray:
    """Intermediate Schmidt vector gamma of the two-phase conversion.

    The conversion alpha -> beta splits into a deterministic phase
    alpha -> gamma (requires is_majorized(alpha, gamma)) followed by a
    single local filter gamma -> beta succeeding with probability
    r = vidal_probability(alpha, beta) = min_i gamma_i / beta_i.
    See ``_vidal_gamma`` for the construction.
    """
    a, b = _pad_pair(alpha, beta)
    return _vidal_gamma(a, b, vidal_probability(a, b))


def _vidal_gamma(a: np.ndarray, b: np.ndarray, r) -> np.ndarray:
    """``vidal_intermediate`` of checked, equal-length a and b at r.

    r must be vidal_probability(a, b). Built from the running minimum of
    f_l = E_l(a) - r E_l(b): gamma_l = h_l - h_{l+1} + r b_l with h the
    running minimum of f. The result is sorted descending; when a is
    already majorized by b it equals b exactly. An r of 0, the unreachable
    target of ``vidal_probability``'s rank rule, raises ValueError.
    """
    if r == 0.0:
        raise ValueError("target Schmidt rank exceeds the source rank")
    d = a.size
    f = np.empty(d + 1)
    f[:d] = _tails(a) - r * _tails(b)
    f[d] = 0.0
    h = np.minimum.accumulate(f)
    gamma = h[:d] - h[1:] + r * b
    gamma = np.sort(gamma)[::-1]
    gamma[gamma < 0] = 0.0
    return gamma / gamma.sum()


def t_transform_decompose(alpha, beta) -> list[TTransform]:
    """Greedy chain of at most d-1 T-transforms carrying beta to alpha.

    Repeatedly picks the smallest index j where the current vector exceeds
    the target alpha and the next index k > j where it falls short, then
    levels whichever gap is smaller. Entries within RESIDUAL_TOL of the
    target count as reached, and the chain stops when no such j and k
    remain; a vector then off the target by more than STRUCTURAL_TOL
    raises ArithmeticError. Requires is_majorized(alpha, beta).
    """
    a, b = _pad_pair(alpha, beta)
    if not _majorized(a, b):
        raise ValueError("alpha is not majorized by beta")
    out: list[TTransform] = []
    cur = b.copy()
    above, below = a + RESIDUAL_TOL, a - RESIDUAL_TOL
    for _ in range(a.size - 1):
        over = cur > above
        j = int(over.argmax())
        short = cur[j + 1 :] < below[j + 1 :]
        if not (over[j] and short.any()):
            break
        k = j + 1 + int(short.argmax())
        cj, ck = cur.item(j), cur.item(k)
        delta = min(cj - a.item(j), a.item(k) - ck)
        t = 1.0 - delta / (cj - ck)
        out.append(TTransform(j, k, t))
        cur[j] = t * cj + (1 - t) * ck
        cur[k] = (1 - t) * cj + t * ck
    if abs(cur - a).max() > STRUCTURAL_TOL:
        raise ArithmeticError("T-transform chain failed to reach the target")
    return out


def build_doubly_stochastic(alpha, beta) -> np.ndarray:
    """Doubly-stochastic D with D @ beta = alpha, as a T-transform product."""
    a, b = _pad_pair(alpha, beta)
    d = a.size
    mat = np.eye(d)
    for tt in t_transform_decompose(a, b):
        mat = expand_step((tt,), d) @ mat
    return mat


def fold_ttransforms(ts: list[TTransform]) -> list[tuple]:
    """Merge runs of commuting equal-weight T-transforms into steps.

    Consecutive transforms on pairwise disjoint coordinate pairs whose t
    agrees within UNIT_TOL form one step: one two-outcome measurement, not
    several weaker ones. Returns the chain as a list of steps, each a tuple
    of T-transforms; ``expand_step`` gives a step's matrix.
    """
    steps: list[list[TTransform]] = []
    for tt in ts:
        step = steps[-1] if steps else None
        if (
            step is not None
            and abs(step[0].t - tt.t) <= UNIT_TOL
            and all({tt.j, tt.k}.isdisjoint((p.j, p.k)) for p in step)
        ):
            step.append(tt)
        else:
            steps.append([tt])
    return [tuple(step) for step in steps]


def expand_step(step: tuple, d: int) -> np.ndarray:
    """Matrix t I + (1-t) P of a step from ``fold_ttransforms``.

    P swaps every pair of the step and t is the first transform's weight,
    shared by the whole step, so the matrix has exactly two Birkhoff terms.
    """
    t = step[0].t
    m = np.eye(d)
    for j, k, _ in step:
        m[j, j] = m[k, k] = t
        m[j, k] = m[k, j] = 1.0 - t
    return m


def step_terms(step: tuple, d: int) -> list[tuple[float, np.ndarray]]:
    """Birkhoff terms of a step's matrix t I + (1-t) P.

    ``birkhoff_decompose(expand_step(step, d))``, bit for bit. Unless
    t < 1 - t - ZERO_TOL, the peel takes (t, I) first, I winning a tie,
    then (1 - t, P) when 1 - t reaches RESIDUAL_TOL; those terms, divided
    by their sum, are built here in closed form. ``t_transform_decompose``
    levels the smaller gap, so every step it makes has t >= 1/2; a step of
    smaller t is handed to the peel.
    """
    t = step[0].t
    if t < 1.0 - t - ZERO_TOL:
        return birkhoff_decompose(expand_step(step, d))
    ident = np.arange(d)
    swap = ident.copy()
    for j, k, _ in step:
        swap[j], swap[k] = k, j
    terms = [(t, ident), (1.0 - t, swap)]
    return _normalized(terms if 1.0 - t >= RESIDUAL_TOL else terms[:1])


def group_ttransforms(steps: list, g: int, d: int) -> list[np.ndarray]:
    """Multiply consecutive steps from ``fold_ttransforms`` in groups of g.

    Returns ceil(len(steps)/g) doubly-stochastic matrices [D_1, ..., D_l]
    whose ordered product D_l ... D_1 equals the product of all steps;
    applying them sequentially to a vector replays the full chain.
    """
    if g < 1:
        raise ValueError("group size must be at least 1")
    out = []
    for start in range(0, len(steps), g):
        first, *rest = steps[start : start + g]
        m = expand_step(first, d)
        for step in rest:
            m = expand_step(step, d) @ m
        out.append(m)
    return out


def _augment(adj: list, row_of: list, r: int, seen: list) -> bool:
    """Kuhn's step: match row r along an alternating path to a free column.

    ``adj[r]`` lists row r's allowed columns in ascending order, ``row_of[c]``
    is column c's row or -1, and the path enters no column marked in ``seen``.
    """
    for c in adj[r]:
        if not seen[c]:
            seen[c] = True
            if row_of[c] < 0 or _augment(adj, row_of, row_of[c], seen):
                row_of[c] = r
                return True
    return False


def _lex_bottleneck_matching(m: np.ndarray) -> np.ndarray:
    """Max-bottleneck perfect matching, lexicographically smallest.

    Binary-searches the bottleneck value over the distinct positive entries
    (an entry is allowed when it is at least the value less ZERO_TOL), with
    Kuhn's matchings on adjacency lists. The matching found at the
    bottleneck is then made lexicographically smallest row by row: row r
    takes the smallest allowed column c < col[r] from which an alternating
    path exists that starts at the row holding c, stays on rows > r, never
    enters c, and ends at col[r]; the matching is rotated along that path.
    That is the column that "keeps the rows after r matchable" would pick:
    a perfect matching of those rows on the columns left once r takes c
    exists exactly when such a path does, because its symmetric difference
    with the current matching of those rows is that path.
    """
    d = m.shape[0]
    rows = m.tolist()
    vals = np.unique(m[m > ZERO_TOL])
    lo, hi = 0, len(vals) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        thr = float(vals[mid]) - ZERO_TOL
        adj = [[c for c, x in enumerate(row) if x >= thr] for row in rows]
        row_of = [-1] * d
        if all(_augment(adj, row_of, r, [False] * d) for r in range(d)):
            best = adj, row_of
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise ArithmeticError("matrix has no positive perfect matching")
    adj, row_of = best
    for r in range(d):
        free = row_of.index(r)
        for c in adj[r][: adj[r].index(free)]:
            if row_of[c] > r:
                seen = [i < r or j == c for j, i in enumerate(row_of)]
                row_of[free] = -1
                if _augment(adj, row_of, row_of[c], seen):
                    row_of[c] = r
                    break
                row_of[free] = r
    perm = np.empty(d, dtype=int)
    perm[row_of] = np.arange(d)
    return perm


def _support_matchings(rows: list, cap: int) -> list | None:
    """Perfect matchings of the positive entries of ``rows``, lexicographic.

    A depth-first search in row order over ascending columns, so the list
    comes out sorted; each matching is its tuple of columns, one per row.
    Returns None once more than ``cap`` are found.
    """
    d = len(rows)
    adj = [[c for c, x in enumerate(row) if x > 0.0] for row in rows]
    found: list = []
    cols = [0] * d
    used = [False] * d

    def extend(r: int) -> bool:
        if r == d:
            found.append(tuple(cols))
            return len(found) > cap
        for c in adj[r]:
            if not used[c]:
                used[c], cols[r] = True, c
                stop = extend(r + 1)
                used[c] = False
                if stop:
                    return True
        return False

    return None if extend(0) else found


def _first_bottleneck(matchings: list, d: int):
    """``_lex_bottleneck_matching`` over a list of all candidate matchings.

    ``matchings`` must hold every perfect matching of the matrix's positive
    entries in lexicographic order (``_support_matchings``); the returned
    rule takes the flat row-major entries of the matrix. B is the best
    bottleneck over the list, the threshold is the largest entry above
    ZERO_TOL that B reaches within ZERO_TOL, less ZERO_TOL, and the matching is the
    first whose entries all clear it: the binary search's threshold and
    the lexicographically smallest matching above it.
    """
    flat_idx = [[r * d + c for r, c in enumerate(cols)] for cols in matchings]

    def match(flat: list) -> tuple:
        lows = [min(map(flat.__getitem__, idx)) for idx in flat_idx]
        best = max(lows)
        # for B above ZERO_TOL the threshold lies in [B - ZERO_TOL, B]: a
        # first matching at B needs no scan for it
        first = next(i for i, low in enumerate(lows) if low >= best - ZERO_TOL)
        if lows[first] < best or best <= ZERO_TOL:
            top = max((x for x in flat if x > ZERO_TOL and x - ZERO_TOL <= best), default=None)
            if top is None:
                raise ArithmeticError("matrix has no positive perfect matching")
            first = next(i for i, low in enumerate(lows) if low >= top - ZERO_TOL)
        return matchings[first]

    return match


# Past this many support matchings (40320 for a dense 8 x 8 matrix) a
# decomposition binary-searches each bottleneck instead of listing them.
MATCHING_CAP = 256


@lru_cache(maxsize=_MEMO_SIZE)
def _support_rule(mask: bytes, d: int):
    """``_first_bottleneck`` of the d x d support ``mask``, or None past MATCHING_CAP.

    The perfect matchings of a support, and so the rule that picks among
    them, depend on the support alone: memoized on its boolean bytes and d.
    """
    rows = np.frombuffer(mask, dtype=bool).reshape(d, d).tolist()
    matchings = _support_matchings(rows, MATCHING_CAP)
    return None if matchings is None else _first_bottleneck(matchings, d)


def _normalized(terms: list) -> list[tuple[float, np.ndarray]]:
    total = sum(q for q, _ in terms)
    return [(q / total, p) for q, p in terms]


def _peel(flat: list, d: int, match) -> list[tuple[float, np.ndarray]]:
    """Greedy extraction of Birkhoff terms from the flat d x d matrix, in place.

    Each step removes the largest weight that the matching ``match(flat)``
    (a column per row) carries and zeroes the entries it leaves below
    ZERO_TOL; the peel stops once all are below RESIDUAL_TOL. The weights
    are returned divided by their sum.
    """
    terms = []
    for _ in range((d - 1) ** 2 + 2):
        if max(flat) < RESIDUAL_TOL:
            break
        cols = match(flat)
        idx = [r * d + c for r, c in enumerate(cols)]
        q = min(map(flat.__getitem__, idx))
        for i in idx:
            x = flat[i] - q
            flat[i] = 0.0 if x < ZERO_TOL else x
        terms.append((q, np.array(cols, dtype=int)))
    else:
        raise ArithmeticError("Birkhoff extraction exceeded the term bound")
    return _normalized(terms)


def birkhoff_decompose(dmat: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Convex decomposition of a doubly-stochastic matrix into permutations.

    Greedy max-bottleneck extraction: the input's entries below ZERO_TOL
    are zeroed once, and each step removes the largest weight supported on
    strictly positive entries, zeroing at least one entry, so the term
    count is bounded by (d-1)^2 + 1. The matching of each step is
    ``_lex_bottleneck_matching``'s; the perfect matchings of that positive
    support are listed once (``_support_matchings``), and each step picks
    from that list (``_first_bottleneck``). The list and its rule depend
    on the support alone, so they are memoized on the support pattern and
    d, the last ``qmath._MEMO_SIZE`` patterns kept; matrices of one support
    and different values share them. Past MATCHING_CAP matchings, each
    step runs ``_lex_bottleneck_matching`` itself, and that verdict is
    memoized the same way. ``locc.compile_schedule.cache_clear()`` empties
    the memo. Permutations
    are returned as index arrays p with matrix[i, p[i]] = 1, so
    (P v)[i] = v[p[i]]. The input is held to what the peel can decompose:
    entries down to -RESIDUAL_TOL / (2d) count as nonnegative, and every
    row and column sum must lie within RESIDUAL_TOL / (2d) of 1; beyond
    that a ValueError says it is not doubly stochastic, and within it the
    peel ends with every entry below RESIDUAL_TOL (see the ``qmath``
    tolerance table). An empty or non-square input raises ValueError.
    """
    m = np.asarray(dmat, dtype=float)
    d = m.shape[0]
    if m.shape != (d, d) or d == 0:
        raise ValueError("not a nonempty square matrix")
    tol = RESIDUAL_TOL / (2 * d)
    sums = np.concatenate([m.sum(axis=0), m.sum(axis=1)])
    if m.min() < -tol or not np.all(np.abs(sums - 1.0) <= tol):
        raise ValueError("matrix is not doubly stochastic")
    on = m >= ZERO_TOL
    flat = np.where(on, m, 0.0).ravel().tolist()
    match = _support_rule(on.tobytes(), d)
    if match is None:
        return _peel(flat, d, lambda f: _lex_bottleneck_matching(np.reshape(f, (d, d))))
    return _peel(flat, d, match)
