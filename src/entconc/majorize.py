"""Majorization machinery for LOCC convertibility.

Schmidt vectors are numpy arrays of nonnegative reals sorted descending and
summing to 1. Conversion feasibility, the conclusive-conversion probability,
the intermediate vector for the two-phase protocol, and the decompositions
used to compile measurement rounds (T-transform chains, their groupings, and
Birkhoff convex decompositions of doubly-stochastic matrices) all live here.

T-transform coordinate indices are 0-based.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qmath import clip_unit

RECON_TOL = 1e-10
SUM_TOL = 1e-12
FOLD_TOL = 1e-12


class TTransform(NamedTuple):
    """Doubly-stochastic mix of identity and the (j, k) swap.

    Acts on coordinates j < k as [[t, 1-t], [1-t, t]] and as identity
    elsewhere.
    """

    j: int
    k: int
    t: float


def _as_schmidt(v) -> np.ndarray:
    """Schmidt vectors along the last axis, each checked; leading axes batch."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if (v.min(axis=-1) < -SUM_TOL).any():
        raise ValueError("Schmidt vector has a negative entry")
    if (abs(v.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("Schmidt vector does not sum to 1")
    if (v[..., :-1] < v[..., 1:] - 1e-9).any():
        raise ValueError("Schmidt vector is not sorted descending")
    return v


def _pad_pair(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    a = _as_schmidt(alpha)
    b = _as_schmidt(beta)
    d = max(a.size, b.size)
    a = np.concatenate([a, np.zeros(d - a.size)])
    b = np.concatenate([b, np.zeros(d - b.size)])
    return a, b


def is_majorized(alpha, beta) -> bool:
    """True iff every prefix sum of alpha is at most that of beta.

    The majorized (more mixed) vector is the first argument; True means a
    deterministic LOCC conversion from a state with Schmidt vector ``alpha``
    to one with ``beta`` exists. Sums are compared within SUM_TOL.
    """
    a, b = _pad_pair(alpha, beta)
    ca, cb = np.cumsum(a), np.cumsum(b)
    if abs(ca[-1] - cb[-1]) > SUM_TOL:
        return False
    return bool(np.all(ca <= cb + SUM_TOL))


def _tails(v: np.ndarray) -> np.ndarray:
    """Suffix sums E_l = sum_{i >= l} along the last axis, for l = 0..d-1."""
    return np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]


def vidal_probability(alpha, beta):
    """Maximal conversion probability min_l E_l(alpha)/E_l(beta).

    E_l is the suffix sum from position l; positions with E_l(beta) = 0 are
    skipped. Returns a value in (0, 1], equal to 1 exactly when alpha is
    majorized by beta; the l = 0 ratio of two sums that round apart is
    clipped by ``clip_unit``. A target of larger Schmidt rank than the
    source is unreachable and yields 0.0. Leading axes batch and broadcast:
    each entry equals, bit for bit, the call on its pair of 1-D vectors
    alone, which gives a float.
    """
    a, b = _as_schmidt(alpha), _as_schmidt(beta)
    unreachable = (b > 1e-14).sum(axis=-1) > (a > 1e-14).sum(axis=-1)
    ta, tb = _tails(a), _tails(b)
    # suffix sums past a vector's end are 0: past alpha's the ratio is 0,
    # past beta's the position imposes nothing
    d = tb.shape[-1]
    if ta.shape[-1] < d:
        ta = np.concatenate([ta, np.zeros(ta.shape[:-1] + (d - ta.shape[-1],))], axis=-1)
    ta = ta[..., :d]
    ratio = np.full(np.broadcast_shapes(ta.shape, tb.shape), np.inf)
    np.divide(ta, tb, out=ratio, where=tb > 1e-14)
    return clip_unit(np.where(unreachable, 0.0, ratio.min(axis=-1)), "conversion probability")


def vidal_intermediate(alpha, beta) -> np.ndarray:
    """Intermediate Schmidt vector gamma of the two-phase conversion.

    The conversion alpha -> beta splits into a deterministic phase
    alpha -> gamma (requires is_majorized(alpha, gamma)) followed by a
    single local filter gamma -> beta succeeding with probability
    r = vidal_probability(alpha, beta) = min_i gamma_i / beta_i.

    Built from the running minimum of f_l = E_l(alpha) - r E_l(beta):
    gamma_l = h_l - h_{l+1} + r beta_l with h the running minimum of f.
    The result is sorted descending; when alpha is already majorized by
    beta it equals beta exactly.
    """
    a, b = _pad_pair(alpha, beta)
    r = vidal_probability(a, b)
    if r == 0.0:
        raise ValueError("target rank exceeds source rank; no conversion")
    d = a.size
    f = np.empty(d + 1)
    f[:d] = _tails(a) - r * _tails(b)
    f[d] = 0.0
    h = np.minimum.accumulate(f)
    gamma = h[:d] - h[1:] + r * b
    gamma = np.sort(gamma)[::-1]
    gamma[gamma < 0] = 0.0
    return gamma / gamma.sum()


def expand_ttransform(tt: TTransform, d: int) -> np.ndarray:
    """Expand a T-transform to its d x d doubly-stochastic matrix."""
    return expand_step((tt,), d)


def t_transform_decompose(alpha, beta) -> list[TTransform]:
    """Greedy chain of at most d-1 T-transforms carrying beta to alpha.

    Repeatedly picks the smallest index j where the current vector exceeds
    the target alpha and the next index k > j where it falls short, then
    levels whichever gap is smaller. Requires is_majorized(alpha, beta).
    """
    a, b = _pad_pair(alpha, beta)
    if not is_majorized(a, b):
        raise ValueError("alpha is not majorized by beta")
    d = a.size
    out: list[TTransform] = []
    cur = b.copy()
    for _ in range(d - 1):
        if np.max(np.abs(cur - a)) < 1e-13:
            break
        j = int(np.argmax(cur > a + 1e-13))
        k = j + 1 + int(np.argmax(cur[j + 1 :] < a[j + 1 :] - 1e-13))
        delta = min(cur[j] - a[j], a[k] - cur[k])
        t = 1.0 - delta / (cur[j] - cur[k])
        out.append(TTransform(j, k, float(t)))
        nj = t * cur[j] + (1 - t) * cur[k]
        nk = (1 - t) * cur[j] + t * cur[k]
        cur[j], cur[k] = nj, nk
    if np.max(np.abs(cur - a)) > RECON_TOL:
        raise ArithmeticError("T-transform chain failed to reach the target")
    return out


def build_doubly_stochastic(alpha, beta) -> np.ndarray:
    """Doubly-stochastic D with D @ beta = alpha, as a T-transform product."""
    a, b = _pad_pair(alpha, beta)
    d = a.size
    mat = np.eye(d)
    for tt in t_transform_decompose(a, b):
        mat = expand_ttransform(tt, d) @ mat
    return mat


def fold_ttransforms(ts: list[TTransform]) -> list[tuple]:
    """Merge runs of commuting equal-weight T-transforms into steps.

    Consecutive transforms on pairwise disjoint coordinate pairs whose t
    agrees within FOLD_TOL form one step: one two-outcome measurement, not
    several weaker ones. Returns the chain as a list of steps, each a tuple
    of T-transforms; ``expand_step`` gives a step's matrix.
    """
    steps: list[list[TTransform]] = []
    for tt in ts:
        step = steps[-1] if steps else None
        if (
            step is not None
            and abs(step[0].t - tt.t) <= FOLD_TOL
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
    """Birkhoff terms of a step's matrix t I + (1-t) P, in closed form.

    Returns, bit for bit, what birkhoff_decompose(expand_step(step, d))
    returns, without its matching search. The identity comes first unless
    1-t exceeds t by more than the search's 1e-15 tie tolerance. Taking the
    first term's weight off the matrix leaves the second term's entries;
    the search zeroes those below 1e-15, drops the term when the largest is
    below 1e-13, and takes its weight as the smallest. The weights are then
    divided by their sum. Valid for t in [0, 1].
    """
    t = step[0].t
    ident = np.arange(d)
    swap = ident.copy()
    for j, k, _ in step:
        swap[j], swap[k] = k, j
    if t < (1.0 - t) - 1e-15:
        # left after the swap: t on swapped pairs, 1 - (1-t) on fixed points
        first, second = (1.0 - t, swap), ident
        rest = [t] + ([1.0 - (1.0 - t)] if 2 * len(step) < d else [])
    else:
        first, second = (t, ident), swap
        rest = [1.0 - t]
    terms = [first]
    if max(rest) >= 1e-13:
        terms.append((min(rest), second))
    total = sum(q for q, _ in terms)
    return [(q / total, p) for q, p in terms]


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
        m = np.eye(d)
        for step in steps[start : start + g]:
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
    (an entry is allowed when it is at least the value less 1e-15), with
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
    vals = np.unique(m[m > 1e-15])
    lo, hi = 0, len(vals) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        thr = float(vals[mid]) - 1e-15
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


def birkhoff_decompose(dmat: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Convex decomposition of a doubly-stochastic matrix into permutations.

    Greedy max-bottleneck extraction: each step removes the largest weight
    supported on strictly positive entries, zeroing at least one entry, so
    the term count is bounded by (d-1)^2 + 1. Permutations are returned as
    index arrays p with matrix[i, p[i]] = 1, so (P v)[i] = v[p[i]].
    Entries down to -RECON_TOL count as nonnegative.
    """
    m = np.asarray(dmat, dtype=float).copy()
    d = m.shape[0]
    if m.shape != (d, d) or m.min() < -RECON_TOL:
        raise ValueError("not a nonnegative square matrix")
    if not (
        np.allclose(m.sum(axis=0), 1.0, atol=1e-9)
        and np.allclose(m.sum(axis=1), 1.0, atol=1e-9)
    ):
        raise ValueError("matrix is not doubly stochastic")
    terms: list[tuple[float, np.ndarray]] = []
    bound = (d - 1) ** 2 + 1
    for _ in range(bound + 1):
        resid = m.max()
        if resid < 1e-13:
            break
        perm = _lex_bottleneck_matching(m)
        q = float(m[np.arange(d), perm].min())
        m[np.arange(d), perm] -= q
        m[m < 1e-15] = 0.0
        terms.append((q, perm))
    else:
        raise ArithmeticError("Birkhoff extraction exceeded the term bound")
    total = sum(q for q, _ in terms)
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"Birkhoff weights sum to {total}, not 1")
    return [(q / total, p) for q, p in terms]


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """Matrix of the permutation index array: (P v)[i] = v[perm[i]]."""
    d = len(perm)
    p = np.zeros((d, d))
    p[np.arange(d), perm] = 1.0
    return p
