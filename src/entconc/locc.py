"""Compile and execute local conversion schedules on bipartite states.

A schedule turns a pure-state conversion plan into executable rounds. Each
round is a diagonal two-outcome (or, for grouped rounds, multi-outcome)
measurement on party A, realized as an embedding unitary on A's data
register plus an auxiliary register, synthesized into multi-controlled
blocks with an MCX cost count. Outcome-conditioned corrections are basis
permutations tracked classically on both sides. A final diagonal filter
performs the probabilistic step that reaches the target.

The dilation is what is costed; ``run_schedule`` executes the equivalent
Kraus form with no auxiliary register. The dilated reference,
``execute_round``, takes states in the qubit order [A-data..., A-aux...,
B-data...] with the auxiliary register prepared in the all-zeros state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .majorize import (
    _support_rule,
    _vidal_gamma,
    birkhoff_decompose,
    fold_ttransforms,
    group_ttransforms,
    step_terms,
    t_transform_decompose,
    vidal_probability,
)
from .noise import _depolarize_qubits
from .qmath import (
    _MEMO_SIZE, STRUCTURAL_TOL, UNIT_TOL, WEIGHT_TOL, _are_permutations, _check_probability,
    _dims_for, _fix_degenerate_gauge, clip_unit, schmidt_decompose, tensor,
)


def _input_bytes(state) -> bytes:
    """Memo key of a planning state: its flattened complex128 bytes."""
    return np.asarray(state, dtype=complex).reshape(-1).tobytes()


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DiagonalPOVM:
    """Diagonal measurement with classical correction permutations.

    ``elements`` is an (m, d) float array whose row m is the diagonal of
    the positive operator A_m; ``corrections`` is an (m, d) int array whose
    row m is element m's permutation, with (P v)[i] = v[perm[i]]. Any
    sequences of rows are taken, and the POVM keeps its own read-only
    copies, so a later write into the caller's arrays changes nothing. On
    the support (positions where the diagonals sum to 1 within
    STRUCTURAL_TOL) the elements are complete; off-support positions carry
    0 in every element and are routed to outcome 0 at execution time.
    ``support`` is the read-only boolean mask of the support, set by the
    completeness check. Each correction must be a permutation of
    range(d), d >= 1, checked before any cast to int, and entries must lie
    in [0, 1] within UNIT_TOL.
    """

    elements: np.ndarray
    corrections: np.ndarray
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        perms = self.corrections
        if len(self.elements) != len(perms):
            raise ValueError("need one correction permutation per element")
        els = np.array(self.elements, dtype=float)
        if not els.size:
            raise ValueError("a POVM needs at least one element, of at least one entry")
        d = els.shape[-1]
        if not _are_permutations(perms, d):
            raise ValueError("each correction must be a permutation of range(d)")
        if els.min() < -UNIT_TOL or els.max() > 1 + UNIT_TOL:
            raise ValueError("POVM diagonal entries must lie in [0, 1]")
        total = els.sum(axis=0)
        on = abs(total - 1.0) <= STRUCTURAL_TOL
        if not (on | (abs(total) <= STRUCTURAL_TOL)).all():
            raise ValueError("POVM elements do not sum to identity on the support")
        corrections = np.array(perms, dtype=int)
        _read_only(els, corrections, on)
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "corrections", corrections)
        object.__setattr__(self, "support", on)


@dataclass(frozen=True, eq=False)
class EmbeddingUnitary:
    """Block-diagonal dilation of a diagonal POVM.

    ``blocks`` is a (data_dim, ka, ka) array, ka = 2**aux_count: block
    U^j acts on the auxiliary register for data basis state j, and the
    assembled matrix sum_j |j><j| (x) U^j acts on A's data register plus
    the auxiliary register. ``support`` is the POVM's support mask;
    off-support blocks are identity.
    """

    data_dim: int
    aux_count: int
    n_outcomes: int
    blocks: np.ndarray
    support: np.ndarray

    def assemble(self) -> np.ndarray:
        n = self.data_dim * 2**self.aux_count
        u = np.einsum("jk,jab->jakb", np.eye(self.data_dim), self.blocks)
        return u.reshape(n, n).astype(complex)


class SynthesisBlock(NamedTuple):
    """Block ``embedding.blocks[index]`` controlled on data state index."""

    index: int
    mcx_count: int
    touched_qubits: tuple


@dataclass(frozen=True)
class SynthesisReport:
    """Non-identity controlled blocks of an embedding with MCX costs.

    Block ``embedding.blocks[j]`` is controlled for each j in ``indices``,
    in order; each costs ``mcx_per_block`` MCX gates on ``touched_qubits``.
    """

    indices: tuple
    mcx_per_block: int
    touched_qubits: tuple

    @property
    def mcx_total(self) -> int:
        return self.mcx_per_block * len(self.indices)

    @property
    def blocks(self) -> tuple:
        """One ``SynthesisBlock`` per controlled block, built on each access."""
        per_block, touched = self.mcx_per_block, self.touched_qubits
        return tuple(SynthesisBlock(j, per_block, touched) for j in self.indices)


@dataclass(frozen=True, eq=False)
class ScheduleRound:
    """One communication round: measurement, dilation, synthesis, frames."""

    povm: DiagonalPOVM
    embedding: EmbeddingUnitary
    synthesis: SynthesisReport
    current: np.ndarray
    target_vector: np.ndarray

    @property
    def corrections(self) -> np.ndarray:
        """Correction of every auxiliary outcome; identity for noise-only ones."""
        d, corr = self.embedding.data_dim, self.povm.corrections
        pad = np.broadcast_to(np.arange(d), (2**self.embedding.aux_count - len(corr), d))
        return np.concatenate([corr, pad])

    @cached_property
    def kraus_rows(self) -> tuple:
        """(relabel, rows) of every auxiliary outcome m, read-only.

        With inv_m the inverse of outcome m's correction, ``relabel[m]`` is
        the flat pair index inv_m[x] d + inv_m[y] that gathers the branch,
        and ``rows[m]`` holds the relabelled block rows u[inv_m, m, :], from
        which ``run_schedule`` builds the outcome's Kraus multiplier. They
        depend only on the compiled round, so they are built on its first
        execution and kept.
        """
        d = self.embedding.data_dim
        inv = np.argsort(self.corrections, axis=1)
        relabel = (inv[:, :, None] * d + inv[:, None, :]).reshape(len(inv), -1)
        rows = self.embedding.blocks[inv, np.arange(len(inv))[:, None], :]
        _read_only(relabel, rows)
        return relabel, rows

    @cached_property
    def identity_outcomes(self) -> tuple:
        """Whether each auxiliary outcome's correction is the identity.

        Built and kept as ``kraus_rows`` is. ``run_schedule`` skips the
        gather of such an outcome, whose ``relabel`` row is the identity.
        """
        return tuple((self.corrections == np.arange(self.embedding.data_dim)).all(axis=1).tolist())


@dataclass(frozen=True, eq=False)
class ProtocolSchedule:
    """Executable conversion plan in the source state's Schmidt frame.

    ``left_basis``/``right_basis`` rotate the physical state into the frame
    where every round is diagonal; ``target_left``/``target_right`` rotate
    the frame back so the success branch lands on the physical target.

    Degenerate Schmidt coefficients leave these frames free up to a unitary
    on each block of equal coefficients (a phase for a single one).
    ``compile_schedule`` pins each block of the source frame to the target
    frame, then each block of the target frame to the source frame, so
    the final rotation target_left @ left_basis^dagger (and its right-hand
    twin) is as close to the identity as the degeneracies allow, and noise
    on the input reaches the output the same way for ulp-close inputs.
    """

    rounds: tuple
    final_filter: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    target_left: np.ndarray
    target_right: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    success_probability: float
    group_size: int

    @property
    def dim(self) -> int:
        return self.alpha.size

    @property
    def mcx_total(self) -> int:
        return sum(r.synthesis.mcx_total for r in self.rounds)


def js_povm(terms, target) -> DiagonalPOVM:
    """Diagonal POVM realizing one round of the conversion.

    ``terms`` is the round's convex decomposition, a list of (weight q_m,
    permutation P_m) pairs: the two terms of ``majorize.step_terms`` for a
    one-step round, ``birkhoff_decompose`` of the grouped matrix otherwise.
    Terms whose images w_m = P_m target coincide within UNIT_TOL are merged
    into one element with summed weight: each term joins the earliest term
    within UNIT_TOL of it, followed on to a term that joins itself. The
    round's current vector is what the merged terms rebuild,
    c = sum_m q_m w_m; element m has diagonal q_m w_m / c on the support of
    c (its entries above UNIT_TOL) and 0 elsewhere, so the elements sum to
    1 on the support by construction, and each entry, a share of a sum of
    nonnegative terms that includes it, rounds into [0, 1]. Measuring a
    Schmidt-diagonal state with vector c gives outcome m with probability
    q_m and post-measurement vector w_m; the recorded correction
    permutation maps w_m back to ``target``.
    """
    target = np.asarray(target, dtype=float).reshape(-1)
    weights, perms = zip(*terms)
    perms = np.asarray(perms, dtype=int)
    images = target[perms]
    near = abs(images[:, None] - images).max(axis=-1) < UNIT_TOL
    owner = near.argmax(axis=0)
    while (owner[owner] != owner).any():
        owner = owner[owner]
    first = owner == np.arange(owner.size)
    merged = np.bincount(owner, weights=weights, minlength=owner.size)[first]
    parts = merged[:, None] * images[first]
    current = parts.sum(axis=0)
    elements = np.divide(
        parts, current, out=np.zeros_like(parts), where=current > UNIT_TOL
    )
    return DiagonalPOVM(elements=elements, corrections=perms[first])


def embed_povm(povm: DiagonalPOVM) -> EmbeddingUnitary:
    """Dilate a diagonal POVM into a block-diagonal embedding unitary.

    Applying the assembled unitary to |psi>_data |0...0>_aux and measuring
    the auxiliary register in the computational basis reproduces the POVM
    statistics and post-measurement states exactly. The auxiliary register
    has ceil(log2 m) qubits for m elements.

    ``blocks`` is a (d, ka, ka) array, ka = 2**aux_count, built in one
    pass. On the support, block j is the real reflection I - 2vv^T/|v|^2
    with v = e_0 - col_j, whose first column is the unit amplitude column
    col_j = (sqrt(A_m[j]))_m; where |v| < WEIGHT_TOL it is the limit at
    col_j = e_0, diag(1, -1, 1, ...). Off the support it is I. For two
    elements this is sqrt(a_0^j) Z + sqrt(a_1^j) X; the m elements of a grouped (g >= 2)
    round get the same unitary completion of their amplitude column.
    Built from its own v, a reflection is orthogonal to about 1e-15.
    """
    els = povm.elements
    m, d = els.shape
    on = povm.support
    k = (m - 1).bit_length()
    ka = 2**k
    eye = np.eye(ka)
    if m == ka:
        col = np.sqrt(els[:, on].T)
    else:
        col = np.zeros((np.count_nonzero(on), ka))
        col[:, :m] = np.sqrt(els[:, on].T)
    v = -(col / np.sqrt(np.vecdot(col, col))[:, None])
    v[:, 0] += 1.0
    norm2 = np.vecdot(v, v)
    limit = norm2 < WEIGHT_TOL**2
    refl = eye - 2.0 * (v[:, :, None] * v[:, None, :]) / np.where(
        limit, 1.0, norm2
    )[:, None, None]
    if limit.any():
        refl[limit] = np.diag(np.where(np.arange(ka) == 1, -1.0, 1.0))
    blocks = eye[None].repeat(d, axis=0)
    blocks[on] = refl
    return EmbeddingUnitary(d, k, m, blocks, on)


def synthesize(emb: EmbeddingUnitary) -> SynthesisReport:
    """Break an embedding into multi-controlled blocks with MCX costs.

    Each non-identity block U^j becomes a controlled unitary acting on all
    of the party's data qubits plus the auxiliary register and is charged
    2 MCX gates (2(m-1) for the m-outcome block of a g >= 2 round); identity
    blocks cost nothing and are omitted. Single-qubit gates are free. A
    block is the identity exactly when it is off the support or the POVM
    has one outcome: on the support, ``embed_povm`` never builds the
    identity (the e_0 limit is diag(1, -1, 1, ...)).
    """
    on = emb.support.nonzero()[0].tolist() if emb.n_outcomes > 1 else []
    touched = tuple(range(len(_dims_for(emb.data_dim)) + emb.aux_count))
    return SynthesisReport(tuple(on), 2 * (emb.n_outcomes - 1), touched)


def _gate_noise(rho: np.ndarray, rnd: ScheduleRound, p_g: float, n_qubits: int):
    """Apply a round's gate noise to qubits < n_qubits, composed per qubit.

    An equal-weight Pauli channel of probability p scales a Bloch vector by
    lambda = 1 - 4p/3. ``synthesize`` charges every block on all qubits of
    [A-data..., A-aux...], so each gets the round's n = mcx_total channels,
    composed to one of probability 3(1 - lambda^n)/4, which is returned.
    One unchecked ``noise._depolarize_qubits`` call applies it to every
    qubit; ``p_g`` is checked by the callers.
    """
    prob = 0.75 * (1.0 - (1.0 - 4.0 * p_g / 3.0) ** rnd.synthesis.mcx_total)
    if prob:
        rho = _depolarize_qubits(rho, prob, range(n_qubits))
    return rho, prob


def execute_round(state: np.ndarray, rnd: ScheduleRound, p_g: float) -> list:
    """Run one round on a density matrix, returning uncorrected branches.

    The Naimark reference for ``run_schedule``'s Kraus form. The state must
    include the acting party's auxiliary register in the all-zeros state
    (layout [A-data, A-aux, B-data]). Gate noise acts first: each MCX gate
    of the synthesis report sends each touched qubit through the
    equal-weight Pauli channel with probability ``p_g``, composed per qubit
    by ``_gate_noise``. Then the exact embedding unitary acts and the
    auxiliary register is measured projectively.

    Returns a list of (weight, density matrix, correction permutation)
    with weights summing to 1; branch states are normalized and have the
    auxiliary register reset to zeros. Corrections are not applied here.
    Noise-induced outcomes beyond the element list get the identity
    permutation. Raises ValueError unless 0 <= p_g <= 1.
    """
    _check_probability(p_g, "p_g")
    emb = rnd.embedding
    d = emb.data_dim
    ka = 2**emb.aux_count
    dim = state.shape[0]
    d_b = dim // (d * ka)
    if d * ka * d_b != dim:
        raise ValueError("state dimension does not match the round's registers")
    pops = np.real(np.diag(state)).reshape(d, ka, d_b).sum(axis=(0, 2))
    if pops[1:].sum() > STRUCTURAL_TOL:
        raise ValueError("auxiliary register is not in the all-zeros state")
    rho, _ = _gate_noise(state, rnd, p_g, d.bit_length() - 1 + emb.aux_count)
    u = emb.assemble()
    t = rho.reshape(d * ka, d_b, d * ka, d_b)
    t = np.einsum("ij,jakb,lk->ialb", u, t, u.conj(), optimize=True)
    view = t.reshape(d, ka, d_b, d, ka, d_b)
    branches = []
    for m in range(ka):
        block = view[:, m, :, :, m, :]
        w = float(np.real(np.einsum("abab->", block)))
        if w < WEIGHT_TOL:
            continue
        out = np.zeros((d, ka, d_b, d, ka, d_b), dtype=complex)
        out[:, 0, :, :, 0, :] = block / w
        branches.append((w, out.reshape(dim, dim), rnd.corrections[m]))
    return branches


def apply_correction(state: np.ndarray, perm) -> np.ndarray:
    """Relabel both parties' data bases by the permutation.

    Moves the branch state with vector components v[perm[i]] back to v:
    new basis index perm[i] receives old index i on each side. ``perm`` is
    checked as given, before any cast to int: [1.0, 0.0] is the swap,
    [1.7, 0.2] raises ValueError.
    """
    if not _are_permutations([perm], np.size(perm)):
        raise ValueError("correction is not a permutation of range(d)")
    p = np.asarray(perm, dtype=int)
    if p.size**2 != state.shape[0]:
        raise ValueError("permutation size does not match the state layout")
    full = (p[:, None] * p.size + p[None, :]).ravel()
    out = np.zeros_like(state)
    out[np.ix_(full, full)] = state
    return out


def execute_filter(state: np.ndarray, filter_diag) -> tuple:
    """Apply the final probabilistic filter on party A's data register.

    The filter F is diagonal with at least one entry ``filter_diag`` and
    must satisfy F†F <= I within STRUCTURAL_TOL; entries past 1 are then
    taken as 1. Returns (success weight, normalized success state) where
    the weight is tr(F rho F†), clipped into [0, 1] by ``clip_unit``; a
    weight at most WEIGHT_TOL leaves the state unnormalized.
    """
    f = np.asarray(filter_diag, dtype=float).reshape(-1)
    if not f.size:
        raise ValueError("a filter needs at least one entry")
    if not (np.max(f**2) <= 1 + STRUCTURAL_TOL and f.min() >= 0):
        raise ValueError("filter entries must satisfy 0 <= f_i^2 <= 1")
    f = np.minimum(f, 1.0)
    d = f.size
    dim = state.shape[0]
    d_b = dim // d
    if d * d_b != dim:
        raise ValueError("filter size does not divide the state dimension")
    k_full = np.repeat(f, d_b)
    out = state * k_full[:, None] * k_full[None, :]
    w = float(np.real(np.trace(out)))
    if w > WEIGHT_TOL:
        out = out / w
    return clip_unit(w, "filter success weight"), out


def _equal_qubit_split(size: int) -> int:
    n = len(_dims_for(size))
    if n % 2 != 0:
        raise ValueError("state size must be a power of 4 for an equal qubit split")
    return 2 ** (n // 2)


def _pad_target(target: np.ndarray, d_l: int, d_r: int) -> np.ndarray:
    """Embed a smaller bipartite target on the leading qubits of each side."""
    size = target.size
    if size == d_l * d_r:
        return target
    t_l = _equal_qubit_split(size)
    if d_l % t_l != 0 or d_r % (size // t_l) != 0:
        raise ValueError("target does not fit in the source registers")
    t_r = size // t_l
    mat = np.zeros((d_l, d_r), dtype=complex)
    rows = np.arange(t_l) * (d_l // t_l)
    cols = np.arange(t_r) * (d_r // t_r)
    mat[np.ix_(rows, cols)] = target.reshape(t_l, t_r)
    return mat.ravel()


def compile_schedule(surrogate, target, g: int = 1) -> ProtocolSchedule:
    """Compile the conversion from a pure source to a pure target.

    Works in the source's Schmidt frame: the deterministic phase walks the
    Schmidt vector from the source to the intermediate vector, then a single
    filter reaches the target with probability ``vidal_probability``. The
    walk is the T-transform chain folded into steps (``fold_ttransforms``):
    equal-weight transforms on disjoint pairs form one step t I + (1-t) P,
    a single two-outcome measurement. Steps are grouped g at a time into
    ceil(n_steps / g) measurement rounds. With g=1 every round has exactly
    two outcomes and one auxiliary qubit; larger g trades rounds for
    multi-outcome measurements. A round of one step takes its two terms in
    closed form from ``step_terms``; only a round of several steps runs the
    Birkhoff decomposition of its product matrix. The frames are pinned as
    described in ``ProtocolSchedule``. The rounds carry gamma back to the
    source within ``t_transform_decompose``'s STRUCTURAL_TOL plus d
    UNIT_TOL from folding, so the source is not checked again. A target of
    larger Schmidt rank than the source raises ValueError, by
    ``vidal_probability``'s rank rule.

    A target on fewer qubits than the source is embedded on the leading
    qubits of each party; the success branch then leaves the remaining
    qubits in their zero states.

    ``g`` is any integer (``operator.index``) and is stored as an ``int``.
    The last ``_MEMO_SIZE`` schedules are kept, keyed on the complex128
    bytes of the flattened inputs and ``g``: an equal input returns the same
    schedule object, every array of which is read-only and every sequence
    a tuple. Everything up to the folded step chain does not depend on
    ``g`` and is kept in a second memo of the same bound, keyed on the input
    bytes alone, so the schedules of one input at several g share their
    frames and vectors. The rounds depend on g only through
    min(g, number of steps), since one chunk then holds every step: a
    larger g shares the rounds tuple and filter of the schedule at the
    step count (at g = 1 for a chain of no steps), compiled through the
    same memo, and differs from it only in ``group_size``. A third memo of
    the same bound keeps the target's identity-pinned Schmidt
    decomposition per target and register size, shared by every source
    planned against that target. ``birkhoff_decompose`` keeps the
    matchings of each support pattern, so rounds of one structure share
    them. Code that patches the compile path's internals must call
    ``compile_schedule.cache_clear()`` first; it empties every memo.
    """
    g = operator.index(g)
    if g < 1:
        raise ValueError("group size must be at least 1")
    return _compile_schedule(_input_bytes(surrogate), _input_bytes(target), g)


@lru_cache(maxsize=_MEMO_SIZE)
def _target_plan(target: bytes, d_l: int, d_r: int):
    """Schmidt decomposition of the padded target, pinned to the identity.

    Memoized on the target bytes and the source's register sizes: the NEC
    target and the padded Bell targets recur across sources. Its arrays
    are read-only; ``_plan`` copies the bases before re-pinning them.
    """
    t_full = _pad_target(np.frombuffer(target, dtype=complex), d_l, d_r)
    dec = schmidt_decompose(t_full, d_l, d_r)
    _read_only(*dec)
    return dec


@lru_cache(maxsize=_MEMO_SIZE)
def _plan(source: bytes, target: bytes) -> tuple:
    """The g-independent part of a compile, memoized on the input bytes.

    Returns (alpha decomposition, beta decomposition, r, gamma, steps):
    both Schmidt decompositions with their gauge pinned, the Vidal
    probability and intermediate vector, and the folded T-transform chain
    carrying gamma to alpha. Every array in it is read-only, since the
    schedules of every g share it.
    """
    s = np.frombuffer(source, dtype=complex)
    d_l = _equal_qubit_split(s.size)
    d_r = s.size // d_l
    pinned = _target_plan(target, d_l, d_r)
    beta_dec = pinned._replace(
        left_basis=pinned.left_basis.copy(), right_basis=pinned.right_basis.copy()
    )
    alpha_dec = schmidt_decompose(
        s, d_l, d_r, (beta_dec.left_basis, beta_dec.right_basis)
    )
    _fix_degenerate_gauge(
        np.sqrt(beta_dec.coefficients),
        beta_dec.left_basis,
        beta_dec.right_basis,
        (alpha_dec.left_basis, alpha_dec.right_basis),
    )
    alpha, beta = alpha_dec.coefficients, beta_dec.coefficients
    r = vidal_probability(alpha, beta)
    gamma = _vidal_gamma(alpha, beta, r)
    steps = tuple(fold_ttransforms(t_transform_decompose(alpha, gamma)))
    _read_only(gamma, *alpha_dec, *beta_dec)
    return alpha_dec, beta_dec, r, gamma, steps


@lru_cache(maxsize=_MEMO_SIZE)
def _compile_schedule(source: bytes, target: bytes, g: int) -> ProtocolSchedule:
    alpha_dec, beta_dec, r, gamma, steps = _plan(source, target)
    # past the step count one chunk holds every step, so the rounds are those
    # of g = len(steps), or of g = 1 for a chain of no steps
    shared = min(g, max(len(steps), 1))
    if shared != g:
        return replace(_compile_schedule(source, target, shared), group_size=g)
    alpha, beta = alpha_dec.coefficients, beta_dec.coefficients
    d = alpha.size
    groups = group_ttransforms(steps, g, d)
    vectors = [gamma]
    for mat in groups:
        vectors.append(mat @ vectors[-1])
    rounds = []
    for i in range(len(groups) - 1, -1, -1):
        chunk = steps[i * g : (i + 1) * g]
        terms = step_terms(chunk[0], d) if len(chunk) == 1 else birkhoff_decompose(groups[i])
        povm = js_povm(terms, vectors[i])
        emb = embed_povm(povm)
        rounds.append(
            ScheduleRound(povm, emb, synthesize(emb), vectors[i + 1], vectors[i])
        )
    on = gamma > UNIT_TOL
    filt = np.ones(d)
    filt[on] = np.sqrt(np.minimum(1.0, r * beta[on] / gamma[on]))
    schedule = ProtocolSchedule(
        rounds=tuple(rounds),
        final_filter=filt,
        left_basis=alpha_dec.left_basis,
        right_basis=alpha_dec.right_basis,
        target_left=beta_dec.left_basis,
        target_right=beta_dec.right_basis,
        alpha=alpha,
        gamma=gamma,
        beta=beta,
        success_probability=float(r),
        group_size=g,
    )
    # shared by every caller that hits the memo, so no caller may write
    _read_only(filt)
    for rnd in rounds:
        _read_only(rnd.current, rnd.target_vector, rnd.embedding.blocks)
    return schedule


def _clear_memos() -> None:
    _compile_schedule.cache_clear()
    _plan.cache_clear()
    _target_plan.cache_clear()
    _support_rule.cache_clear()


compile_schedule.cache_info = _compile_schedule.cache_info
compile_schedule.cache_clear = _clear_memos


def run_schedule(
    schedule: ProtocolSchedule, state: np.ndarray | None = None, p_g: float = 0.0
) -> tuple:
    """Execute a compiled schedule on a physical two-party density matrix.

    Rotates the state into the schedule's Schmidt frame, runs every round
    in Kraus form on the data registers, applies the final filter, and
    rotates the success branch into the physical target frame. A round
    equals its dilated reference ``execute_round`` with the corrected
    branches summed: gate noise acts first and leaves the auxiliary
    register in a diagonal mixture w_x, and block U^j is controlled by A's
    data index j, so outcome m maps rho to rho o (M_m (x) 1) with
    M_m[j, k] = sum_x w_x U^j[m, x] conj(U^k[m, x]), then its correction.
    ``apply_correction`` is that correction for one branch; here each
    outcome's branch is gathered by two ``take``s of its inverse
    correction, which send the pair index (x, y) to (inv[x], inv[y]),
    multiplied by its relabelled M_m, and the branches are summed in
    outcome order; an outcome whose correction is the identity (outcome 0
    of every one-step round, and every noise-only outcome) is taken as it
    is, without the ``take``s. The index and the relabelled rows of U are
    the round's ``kraus_rows``, and the identity flags its
    ``identity_outcomes``, built on its first execution.

    With ``state`` omitted the pure source state of the schedule is used.
    Returns (success probability, output density matrix). Raises ValueError
    unless 0 <= p_g <= 1, also for a schedule of no rounds, and unless
    ``state`` has shape (d^2, d^2) for the schedule's dimension d.
    """
    _check_probability(p_g, "p_g")
    d = schedule.dim
    if state is None:
        mat = schedule.left_basis * np.sqrt(schedule.alpha) @ schedule.right_basis.T
        psi = mat.ravel()
        state = np.outer(psi, psi.conj())
    if np.shape(state) != (d * d, d * d):
        raise ValueError(
            f"state has shape {np.shape(state)}, the schedule needs {(d * d, d * d)}"
        )
    w_in = tensor(schedule.left_basis, schedule.right_basis).conj().T
    rho = w_in @ state @ w_in.conj().T
    for rnd in schedule.rounds:
        rho, prob = _gate_noise(rho, rnd, p_g, d.bit_length() - 1)
        mix = np.array([1.0 - 2.0 * prob / 3.0, 2.0 * prob / 3.0])
        aux = reduce(np.multiply.outer, repeat(mix, rnd.embedding.aux_count), np.ones(()))
        relabel, rows = rnd.kraus_rows
        mats = np.einsum("mjx,x,mkx->mjk", rows, aux.ravel(), rows.conj())
        branches = (
            (rho if same else rho.take(idx, axis=0).take(idx, axis=1)).reshape(d, d, d, d)
            * mat.reshape(d, 1, d, 1)
            for idx, mat, same in zip(relabel, mats, rnd.identity_outcomes)
        )
        rho = reduce(np.add, branches).reshape(rho.shape)
    w, rho = execute_filter(rho, schedule.final_filter)
    v_out = tensor(schedule.target_left, schedule.target_right)
    return w, v_out @ rho @ v_out.conj().T


def schedule_to_document(schedule: ProtocolSchedule) -> dict:
    """JSON-ready description of a schedule for inspection and golden tests."""
    rounds = []
    for rnd in schedule.rounds:
        syn = rnd.synthesis
        rounds.append(
            {
                "party": "A",
                "current": rnd.current.tolist(),
                "target": rnd.target_vector.tolist(),
                "elements": rnd.povm.elements.tolist(),
                "corrections": rnd.povm.corrections.tolist(),
                "aux_count": rnd.embedding.aux_count,
                "mcx_per_block": [syn.mcx_per_block] * len(syn.indices),
                "touched_qubits": [list(syn.touched_qubits)] * len(syn.indices),
                "mcx_total": syn.mcx_total,
            }
        )
    return {
        "group_size": schedule.group_size,
        "source_vector": schedule.alpha.tolist(),
        "intermediate_vector": schedule.gamma.tolist(),
        "target_vector": schedule.beta.tolist(),
        "success_probability": schedule.success_probability,
        "final_filter": schedule.final_filter.tolist(),
        "rounds": rounds,
        "mcx_total": schedule.mcx_total,
    }
