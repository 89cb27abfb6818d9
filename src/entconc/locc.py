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

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .majorize import (
    birkhoff_decompose,
    fold_ttransforms,
    group_ttransforms,
    step_terms,
    t_transform_decompose,
    vidal_intermediate,
    vidal_probability,
)
from .noise import depolarize
from .qmath import _fix_degenerate_gauge, clip_unit, schmidt_decompose

COMPLETENESS_TOL = 1e-10
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class DiagonalPOVM:
    """Diagonal measurement with classical correction permutations.

    ``elements`` holds the diagonals of the positive operators A_m as 1-D
    arrays; ``corrections`` holds one permutation index array per element,
    with (P v)[i] = v[perm[i]]. On the support (positions where the
    diagonals sum to 1) the elements are complete; off-support positions
    carry 0 in every element and are routed to outcome 0 at execution time.
    """

    elements: list
    corrections: list

    def __post_init__(self):
        if len(self.elements) != len(self.corrections):
            raise ValueError("need one correction permutation per element")
        els = np.asarray(self.elements, dtype=float)
        if els.min() < -SUPPORT_TOL or els.max() > 1 + 1e-12:
            raise ValueError("POVM diagonal entries must lie in [0, 1]")
        total = els.sum(axis=0)
        on = np.abs(total - 1.0) <= COMPLETENESS_TOL
        off = np.abs(total) <= COMPLETENESS_TOL
        if not np.all(on | off):
            raise ValueError("POVM elements do not sum to identity on the support")

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of positions where the elements sum to 1."""
        return np.sum(np.asarray(self.elements, dtype=float), axis=0) > 0.5


@dataclass(frozen=True)
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
    """Auxiliary unitary U^j controlled on data state j, with its MCX cost."""

    index: int
    block: np.ndarray
    data_dim: int
    mcx_count: int
    touched_qubits: tuple

    @property
    def unitary(self) -> np.ndarray:
        """The controlled block as a dense matrix on data plus auxiliary."""
        ka = self.block.shape[0]
        lo, hi = self.index * ka, (self.index + 1) * ka
        full = np.eye(self.data_dim * ka, dtype=complex)
        full[lo:hi, lo:hi] = self.block
        return full


@dataclass(frozen=True)
class SynthesisReport:
    """Non-identity controlled blocks of an embedding with MCX costs."""

    blocks: list

    @property
    def mcx_total(self) -> int:
        return sum(b.mcx_count for b in self.blocks)


@dataclass(frozen=True)
class ScheduleRound:
    """One communication round: measurement, dilation, synthesis, frames."""

    povm: DiagonalPOVM
    embedding: EmbeddingUnitary
    synthesis: SynthesisReport
    current: np.ndarray
    target_vector: np.ndarray

    def correction(self, m: int) -> np.ndarray:
        """Correction of outcome m; identity for noise-only outcomes."""
        corr = self.povm.corrections
        return np.asarray(corr[m] if m < len(corr) else np.arange(len(corr[0])))


@dataclass(frozen=True)
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

    rounds: list
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


def js_povm(current, mix, target) -> DiagonalPOVM:
    """Diagonal POVM realizing one round of the conversion.

    ``mix`` is the round's doubly-stochastic matrix, which must map
    ``target`` to ``current`` and is decomposed by ``birkhoff_decompose``,
    or that decomposition itself: a list of (weight, permutation) terms.
    A one-step round passes its two terms from ``majorize.step_terms``.
    Builds one element per distinct permuted image w_m = P_m target, with
    diagonal q_m * w_m / current on the support of ``current`` and 0
    elsewhere. Measuring a Schmidt-diagonal state with vector ``current``
    gives outcome m with probability q_m and post-measurement vector w_m;
    the recorded correction permutation maps w_m back to ``target``.

    Permutations whose images coincide within 1e-12 are merged into a
    single element with summed weight.
    """
    current = np.asarray(current, dtype=float).reshape(-1)
    target = np.asarray(target, dtype=float).reshape(-1)
    terms = mix if isinstance(mix, list) else birkhoff_decompose(mix)
    if not np.allclose(sum(q * target[perm] for q, perm in terms), current, atol=1e-9):
        raise ValueError("the round does not map the target vector to current")
    support = current > SUPPORT_TOL
    merged: list[list] = []
    for q, perm in terms:
        image = target[perm]
        for entry in merged:
            if np.max(np.abs(entry[1] - image)) < 1e-12:
                entry[0] += q
                break
        else:
            merged.append([q, image, perm])
    elements = []
    corrections = []
    for q, image, perm in merged:
        diag = np.zeros_like(current)
        diag[support] = q * image[support] / current[support]
        elements.append(np.clip(diag, 0.0, 1.0))
        corrections.append(np.asarray(perm, dtype=int))
    total = sum(elements)
    if np.max(np.abs(total[support] - 1.0)) > COMPLETENESS_TOL:
        raise ArithmeticError("POVM completeness failed on the support")
    return DiagonalPOVM(elements=elements, corrections=corrections)


def embed_povm(povm: DiagonalPOVM) -> EmbeddingUnitary:
    """Dilate a diagonal POVM into a block-diagonal embedding unitary.

    Applying the assembled unitary to |psi>_data |0...0>_aux and measuring
    the auxiliary register in the computational basis reproduces the POVM
    statistics and post-measurement states exactly. The auxiliary register
    has ceil(log2 m) qubits for m elements.

    ``blocks`` is a (d, ka, ka) array, ka = 2**aux_count, built in one
    pass. On the support, block j is the real reflection I - 2vv^T/|v|^2
    with v = e_0 - col_j, whose first column is the unit amplitude column
    col_j = (sqrt(A_m[j]))_m; where col_j = e_0 it is the limit
    diag(1, -1, 1, ...). Off the support it is I. For two elements this is
    sqrt(a_0^j) Z + sqrt(a_1^j) X; the m elements of a grouped (g >= 2)
    round get the same unitary completion of their amplitude column.
    """
    m = len(povm.elements)
    els = np.asarray(povm.elements, dtype=float)
    on = povm.support
    d = els.shape[1]
    k = max(1, math.ceil(math.log2(m))) if m > 1 else 0
    ka = 2**k
    col = np.zeros((on.sum(), ka))
    col[:, :m] = np.sqrt(els[:, on].T)
    v = -(col / np.sqrt(np.vecdot(col, col))[:, None])
    v[:, 0] += 1.0
    norm2 = np.vecdot(v, v)
    limit = norm2 < 1e-28
    refl = np.eye(ka) - 2.0 * (v[:, :, None] * v[:, None, :]) / np.where(
        limit, 1.0, norm2
    )[:, None, None]
    refl[limit] = np.diag(np.where(np.arange(ka) == 1, -1.0, 1.0))
    blocks = np.tile(np.eye(ka), (d, 1, 1))
    blocks[on] = refl
    if not np.allclose(blocks @ blocks.swapaxes(1, 2), np.eye(ka), atol=1e-10):
        raise ArithmeticError("embedding block is not unitary")
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
    d, k = emb.data_dim, emb.aux_count
    n_data = int(round(math.log2(d)))
    if 2**n_data != d:
        raise ValueError("data dimension must be a power of two for synthesis")
    touched = tuple(range(n_data + k))
    per_block = 2 * (emb.n_outcomes - 1)
    on = np.flatnonzero(emb.support) if emb.n_outcomes > 1 else []
    return SynthesisReport(blocks=[
        SynthesisBlock(int(j), emb.blocks[j], d, per_block, touched) for j in on
    ])


def _gate_noise(rho: np.ndarray, rnd: ScheduleRound, p_g: float, n_qubits: int):
    """Apply a round's gate noise to qubits < n_qubits, composed per qubit.

    An equal-weight Pauli channel of probability p scales a Bloch vector by
    lambda = 1 - 4p/3, so the n_q channels the MCX gates apply to qubit q of
    [A-data..., A-aux...] compose to one of probability 3(1 - lambda^n_q)/4.
    Returns the state and that probability for every qubit.
    """
    emb = rnd.embedding
    n = np.zeros(emb.data_dim.bit_length() - 1 + emb.aux_count)
    for blk in rnd.synthesis.blocks:
        n[list(blk.touched_qubits)] += blk.mcx_count
    probs = 0.75 * (1.0 - (1.0 - 4.0 * p_g / 3.0) ** n)
    for q in np.flatnonzero(probs[:n_qubits]):
        rho = depolarize(rho, probs[q], qubit=int(q))
    return rho, probs


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
    permutation.
    """
    emb = rnd.embedding
    d = emb.data_dim
    ka = 2**emb.aux_count
    dim = state.shape[0]
    d_b = dim // (d * ka)
    if d * ka * d_b != dim:
        raise ValueError("state dimension does not match the round's registers")
    pops = np.real(np.diag(state)).reshape(d, ka, d_b).sum(axis=(0, 2))
    if pops[1:].sum() > 1e-10:
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
        if w < 1e-14:
            continue
        out = np.zeros((d, ka, d_b, d, ka, d_b), dtype=complex)
        out[:, 0, :, :, 0, :] = block / w
        branches.append((w, out.reshape(dim, dim), rnd.correction(m)))
    return branches


def apply_correction(state: np.ndarray, perm) -> np.ndarray:
    """Relabel both parties' data bases by the permutation.

    Moves the branch state with vector components v[perm[i]] back to v:
    new basis index perm[i] receives old index i on each side.
    """
    p = np.asarray(perm, dtype=int)
    if p.size**2 != state.shape[0]:
        raise ValueError("permutation size does not match the state layout")
    full = (p[:, None] * p.size + p[None, :]).ravel()
    out = np.zeros_like(state)
    out[np.ix_(full, full)] = state
    return out


def execute_filter(state: np.ndarray, filter_diag) -> tuple:
    """Apply the final probabilistic filter on party A's data register.

    The filter F is diagonal with entries ``filter_diag`` and must satisfy
    F†F <= I. Returns (success weight, normalized success state) where the
    weight is tr(F rho F†), clipped into [0, 1] by ``clip_unit``.
    """
    f = np.asarray(filter_diag, dtype=float).reshape(-1)
    if np.max(f**2) > 1 + 1e-10 or f.min() < 0:
        raise ValueError("filter entries must satisfy 0 <= f_i^2 <= 1")
    d = f.size
    dim = state.shape[0]
    d_b = dim // d
    if d * d_b != dim:
        raise ValueError("filter size does not divide the state dimension")
    k_full = np.repeat(f, d_b)
    out = state * k_full[:, None] * k_full[None, :]
    w = float(np.real(np.trace(out)))
    if w > 1e-14:
        out = out / w
    return clip_unit(w, "filter success weight"), out


def _equal_qubit_split(size: int) -> int:
    n = int(round(math.log2(size)))
    if 2**n != size or n % 2 != 0:
        raise ValueError("state size must be a power of 4 for an equal qubit split")
    return 2 ** (n // 2)


def _pad_target(target: np.ndarray, d_l: int, d_r: int) -> np.ndarray:
    """Embed a smaller bipartite target on the leading qubits of each side."""
    size = target.size
    if size == d_l * d_r:
        return target
    t_l = _equal_qubit_split(size)
    if d_l % t_l != 0 or d_r % (size // t_l) != 0:
        raise ValueError("target dimensions do not embed in the source")
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
    described in ``ProtocolSchedule``.

    A target on fewer qubits than the source is embedded on the leading
    qubits of each party; the success branch then leaves the remaining
    qubits in their zero states.
    """
    if g < 1:
        raise ValueError("group size must be at least 1")
    s = np.asarray(surrogate, dtype=complex).reshape(-1)
    t = np.asarray(target, dtype=complex).reshape(-1)
    d_l = _equal_qubit_split(s.size)
    d_r = s.size // d_l
    if t.size > s.size:
        raise ValueError("target does not fit in the source registers")
    t_full = _pad_target(t, d_l, d_r)
    beta_dec = schmidt_decompose(t_full, d_l, d_r)
    alpha_dec = schmidt_decompose(
        s, d_l, d_r, (beta_dec.left_basis, beta_dec.right_basis)
    )
    _fix_degenerate_gauge(
        np.sqrt(beta_dec.coefficients),
        beta_dec.left_basis,
        beta_dec.right_basis,
        alpha_dec.left_basis,
        alpha_dec.right_basis,
    )
    alpha, beta = alpha_dec.coefficients, beta_dec.coefficients
    if np.sum(beta > 1e-12) > np.sum(alpha > 1e-12):
        raise ValueError("target Schmidt rank exceeds the source rank")
    d = alpha.size
    r = vidal_probability(alpha, beta)
    gamma = vidal_intermediate(alpha, beta)
    transforms = t_transform_decompose(alpha, gamma)
    steps = fold_ttransforms(transforms)
    groups = group_ttransforms(steps, g, d)
    vectors = [gamma]
    for mat in groups:
        vectors.append(mat @ vectors[-1])
    if not np.allclose(vectors[-1], alpha, atol=1e-9):
        raise ArithmeticError("grouped transforms do not reproduce the source")
    rounds = []
    for i in range(len(groups) - 1, -1, -1):
        chunk = steps[i * g : (i + 1) * g]
        mix = step_terms(chunk[0], d) if len(chunk) == 1 else groups[i]
        povm = js_povm(vectors[i + 1], mix, vectors[i])
        emb = embed_povm(povm)
        rounds.append(
            ScheduleRound(povm, emb, synthesize(emb), vectors[i + 1], vectors[i])
        )
    on = gamma > SUPPORT_TOL
    filt = np.ones(d)
    filt[on] = np.sqrt(np.minimum(1.0, r * beta[on] / gamma[on]))
    return ProtocolSchedule(
        rounds=rounds,
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

    With ``state`` omitted the pure source state of the schedule is used.
    Returns (success probability, output density matrix).
    """
    d = schedule.dim
    n_data = d.bit_length() - 1
    if state is None:
        mat = schedule.left_basis * np.sqrt(schedule.alpha) @ schedule.right_basis.T
        psi = mat.ravel()
        state = np.outer(psi, psi.conj())
    w_in = np.kron(schedule.left_basis, schedule.right_basis).conj().T
    rho = w_in @ state @ w_in.conj().T
    for rnd in schedule.rounds:
        rho, probs = _gate_noise(rho, rnd, p_g, n_data)
        aux = reduce(np.kron, ([1.0 - 2.0 * p / 3.0, 2.0 * p / 3.0]
                               for p in probs[n_data:]), np.ones(1))
        u = rnd.embedding.blocks
        kraus = np.einsum("jmx,x,kmx->mjk", u, aux, u.conj())
        rho4 = rho.reshape(d, d, d, d)
        acc = np.zeros_like(rho)
        for m, mat in enumerate(kraus):
            branch = (rho4 * mat[:, None, :, None]).reshape(rho.shape)
            acc += apply_correction(branch, rnd.correction(m))
        rho = acc
    w, rho = execute_filter(rho, schedule.final_filter)
    v_out = np.kron(schedule.target_left, schedule.target_right)
    return w, v_out @ rho @ v_out.conj().T


def schedule_to_document(schedule: ProtocolSchedule) -> dict:
    """JSON-ready description of a schedule for inspection and golden tests."""
    rounds = []
    for rnd in schedule.rounds:
        rounds.append(
            {
                "party": "A",
                "current": [float(x) for x in rnd.current],
                "target": [float(x) for x in rnd.target_vector],
                "elements": [
                    [float(x) for x in el] for el in rnd.povm.elements
                ],
                "corrections": [
                    [int(x) for x in p] for p in rnd.povm.corrections
                ],
                "aux_count": rnd.embedding.aux_count,
                "mcx_per_block": [b.mcx_count for b in rnd.synthesis.blocks],
                "touched_qubits": [
                    list(b.touched_qubits) for b in rnd.synthesis.blocks
                ],
                "mcx_total": rnd.synthesis.mcx_total,
            }
        )
    return {
        "group_size": schedule.group_size,
        "source_vector": [float(x) for x in schedule.alpha],
        "intermediate_vector": [float(x) for x in schedule.gamma],
        "target_vector": [float(x) for x in schedule.beta],
        "success_probability": schedule.success_probability,
        "final_filter": [float(x) for x in schedule.final_filter],
        "rounds": rounds,
        "mcx_total": schedule.mcx_total,
    }
