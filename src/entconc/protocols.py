"""End-to-end entanglement concentration and distillation runners.

Each runner takes prepared two-qubit pair states, assembles the joint
system in party layout (all of A's qubits, then all of B's), plans against
the pure surrogate of the input, executes the compiled schedule with
optional gate noise, and reduces the success branch to the designated
output pair. The designated output pair is always the first prepared pair.
The runners and the public ``nec_planning_states`` and
``cec_planning_states`` plan through one private planner, in which the
catalytic case is the non-catalytic one with the catalyst pair added to
both sides.

Each distinct pair value is checked once per process, and each distinct
planned pair has its surrogate taken once: two memos keyed on the pair's
complex128 bytes keep the last ``_MEMO_SIZE`` passed checks and planned
surrogates (reuse's ``catalyst_post`` is checked but never planned from,
unless a link recompiles from it, which takes its surrogate afresh). So an
``entconc sweep`` point running all four protocols makes 1 ``surrogate``
call and 2 ``assert_density_matrix`` calls (the pair and the catalyst's
post-run state) cold, and none when it is run again.

Conversion runners:
- ``run_nec``: two pairs into one Bell pair, no catalyst.
- ``run_cec``: two pairs plus a catalyst pair; the catalyst is returned.
- ``reuse_catalyst``: replay a catalytic run's schedule on its degraded
  catalyst.
- ``run_distillation`` / ``optimize_distillation``: 2-to-1 recurrence-style
  distillation baseline over mirrored single-qubit Cliffords and a
  bilateral CNOT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .locc import (
    ProtocolSchedule,
    _input_bytes,
    _read_only,
    compile_schedule,
    run_schedule,
)
from .noise import PHI_PLUS, _depolarize_qubits, surrogate
from .qmath import (
    _MEMO_SIZE,
    MIN_ACCEPTANCE,
    PAULI_I,
    PAULI_X,
    STRUCTURAL_TOL,
    UNIT_TOL,
    _check_probability,
    assert_density_matrix,
    clip_unit,
    fidelity,
    partial_trace,
    schmidt_decompose,
)
from .majorize import vidal_probability

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
MEASUREMENT_BASES = ("Z", "X", "Y")
# Columns of _BASIS_CHANGE[k] are the outcome vectors v_m of basis k, and
# _ACCEPT[k, u, m] = X^u (v_m (x) v_m), with (X^u w)[v] = w[v xor u].
_BASIS_CHANGE = np.array([np.eye(2), _H, _S @ _H])
_ACCEPT = np.einsum("kam,kbm->kmab", _BASIS_CHANGE, _BASIS_CHANGE).reshape(3, 2, 4)[
    :, :, np.arange(4)[:, None] ^ np.arange(4)
].transpose(0, 2, 1, 3)
# The accept matrices as one linear map of the flattened pair state: row (a, b),
# column (k, u, v) holds sum_m conj(_ACCEPT[k, u, m, a]) _ACCEPT[k, v, m, b].
_ACCEPT_MAP = np.einsum("kuma,kvmb->abkuv", _ACCEPT.conj(), _ACCEPT).reshape(16, 48)
_PHI_OUTER = np.outer(PHI_PLUS.conj(), PHI_PLUS)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one protocol run.

    ``output_state`` is the normalized success-branch state of the output
    pair; ``catalyst_post`` is the reduced state of the catalyst pair on
    the success branch. The catalyst fields are None for runs without a
    catalyst. ``gate_counts`` maps party name to its MCX total.
    ``branch_count`` counts the measurement branches in the schedule plus
    the two filter branches. ``schedule`` is the
    conversion schedule compiled for the pairs and the ideal catalyst, the
    one ``reuse_catalyst`` replays; a reuse link passes it on, also when it
    ran a recompiled schedule. Distillation results carry None.
    """

    success_probability: float
    output_state: np.ndarray
    output_fidelity: float
    gate_counts: dict
    branch_count: int
    catalyst_post: np.ndarray | None = None
    catalyst_spec: "CatalystSpec | None" = None
    catalyst_fidelity_before: float | None = None
    catalyst_fidelity_after: float | None = None
    schedule: ProtocolSchedule | None = None

    @property
    def mcx_total(self) -> int:
        return int(sum(self.gate_counts.values()))

    @property
    def infidelity(self) -> float:
        return 1.0 - self.output_fidelity


@dataclass(frozen=True, eq=False)
class CatalystSpec:
    """One catalyst pair in Schmidt form.

    ``schmidt`` is (c1, c2) with c1 >= c2, ``state`` the pair state
    sqrt(c1)|00> + sqrt(c2)|11>, and ``achieved_probability`` the
    conversion probability the search certified for this catalyst.
    """

    schmidt: np.ndarray
    state: np.ndarray
    achieved_probability: float = 0.0


def catalyst_from_schmidt(c1: float, achieved: float = 0.0) -> CatalystSpec:
    """Build a CatalystSpec from its larger Schmidt coefficient, in [0.5, 1] within UNIT_TOL."""
    if not 0.5 <= c1 <= 1.0 + UNIT_TOL:
        raise ValueError("c1 must lie in [0.5, 1]")
    c1 = min(c1, 1.0)
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.sqrt(c1)
    vec[3] = np.sqrt(1.0 - c1)
    return CatalystSpec(
        schmidt=np.array([c1, 1.0 - c1]),
        state=vec,
        achieved_probability=achieved,
    )


@dataclass(frozen=True, eq=False)
class DistillationPlan:
    """Local pre-processing for one 2-to-1 distillation attempt.

    Alice applies ``alice_gates`` (one single-qubit Clifford per pair);
    Bob applies their complex conjugates so that perfect Bell inputs stay
    invariant. The second pair is measured in ``basis`` on both sides and
    the attempt is accepted when the outcomes agree.
    """

    alice_gates: tuple
    basis: str
    index: int | None = None


def _canonical_key(u: np.ndarray) -> tuple:
    flat = u.ravel()
    pivot = flat[np.argmax(np.abs(flat) > UNIT_TOL)]
    normed = u * (pivot.conjugate() / abs(pivot))
    return tuple(np.round(normed.real, 9).ravel()) + tuple(
        np.round(normed.imag, 9).ravel()
    )


def _single_qubit_cliffords() -> tuple:
    mats = [np.eye(2, dtype=complex)]
    seen = {_canonical_key(mats[0])}
    i = 0
    while i < len(mats):
        for gen in (_H, _S):
            cand = gen @ mats[i]
            key = _canonical_key(cand)
            if key not in seen:
                seen.add(key)
                mats.append(cand)
        i += 1
    if len(mats) != 24:
        raise ArithmeticError("single-qubit Clifford enumeration failed")
    return tuple(mats)


CLIFFORDS = _single_qubit_cliffords()
_CLIFFORD_STACK = np.array(CLIFFORDS)


def dejmps_plan() -> DistillationPlan:
    """Reference distillation plan: 90-degree X rotations, Z measurement."""
    rx = (PAULI_I - 1j * PAULI_X) / np.sqrt(2)
    return DistillationPlan(alice_gates=(rx, rx), basis="Z", index=None)


def _pair_states(*states) -> list:
    """The inputs as complex arrays, each checked to be a 4x4 density matrix.

    A pair passes ``assert_density_matrix`` once per distinct value: the
    last ``_MEMO_SIZE`` passed checks are kept, keyed on the pair's
    complex128 bytes, so a pair passed twice, copied, or rebuilt with the
    same entries is checked once, and a pair changed in place is checked
    again. A failed check is not kept. Raises ValueError for a wrong shape
    or for a matrix that is not Hermitian, of unit trace and positive.
    """
    pairs = [np.asarray(rho, dtype=complex) for rho in states]
    for rho in pairs:
        if rho.shape != (4, 4):
            raise ValueError(f"pair state must be 4x4, got shape {rho.shape}")
        _check_pair(rho.tobytes())
    return pairs


@lru_cache(maxsize=_MEMO_SIZE)
def _check_pair(key: bytes) -> None:
    assert_density_matrix(np.frombuffer(key, dtype=complex).reshape(4, 4))


@lru_cache(maxsize=_MEMO_SIZE)
def _pair_surrogate(key: bytes) -> np.ndarray:
    """``surrogate`` of the checked pair with complex128 bytes ``key``, read-only."""
    top = surrogate(np.frombuffer(key, dtype=complex).reshape(4, 4))
    _read_only(top)
    return top


def _parties(*pairs) -> np.ndarray:
    """Product of pair states (vectors or density matrices), party-ordered.

    The product's qubits [A1, B1, A2, B2, ...] come as [A1, A2, ..., B1,
    B2, ...]. It is built in that order, as one broadcast product of the
    pairs with their (A, B) axes, and those of a matrix's columns, placed
    in party order: each entry is the left-to-right product of one entry
    per pair, as in ``tensor``, so the result is bit-equal to
    ``permute_subsystems(tensor(*pairs), perm)`` for the party permutation.
    """
    n = len(pairs)
    out = None
    for k, pair in enumerate(pairs):
        pair = np.asarray(pair, dtype=complex)
        shape = [1] * (2 * n * pair.ndim)
        shape[k::n] = [2] * (2 * pair.ndim)
        out = pair.reshape(shape) if out is None else out * pair.reshape(shape)
    return out.reshape((4**n,) * pair.ndim)


_TARGET_PAIRS = (PHI_PLUS, np.array([1, 0, 0, 0], dtype=complex))


def _planning_states(rho_a: np.ndarray, rho_b: np.ndarray, catalyst=None) -> tuple:
    """Source and target of the conversion of two checked pairs.

    The source is the party-ordered product of the pairs' surrogates, one
    ``surrogate`` per distinct pair value while the last ``_MEMO_SIZE``
    are kept (``_pair_surrogate``); the target is Phi+ (x) |00>. A
    ``catalyst`` pair vector joins both as the last pair, so catalytic
    planning is the non-catalytic case with one more pair. Raises
    ValueError unless the catalyst has four entries and unit norm within
    UNIT_TOL; a NaN or infinite entry fails the norm.
    """
    cat = [] if catalyst is None else [np.asarray(catalyst, dtype=complex).reshape(-1)]
    if cat and cat[0].size != 4:
        raise ValueError(f"catalyst must be a 4-entry pair vector, got {np.shape(catalyst)}")
    if cat and not abs(np.linalg.norm(cat[0]) - 1.0) <= UNIT_TOL:
        raise ValueError(f"catalyst must have finite entries and unit norm within {UNIT_TOL}")
    tops = [_pair_surrogate(rho.tobytes()) for rho in (rho_a, rho_b)]
    return _parties(*tops, *cat), _parties(*_TARGET_PAIRS, *cat)


def nec_planning_states(rho_a: np.ndarray, rho_b: np.ndarray) -> tuple:
    """Surrogate and target states for the non-catalytic conversion.

    The pairs are checked as ``run_nec`` checks them.
    """
    return _planning_states(*_pair_states(rho_a, rho_b))


def cec_planning_states(
    rho_a: np.ndarray, rho_b: np.ndarray, planning_catalyst: np.ndarray
) -> tuple:
    """Surrogate and target states for the catalytic conversion.

    ``planning_catalyst`` is the pure catalyst pair vector the schedule is
    planned with; the target returns it unchanged next to the Bell output.
    The pairs are checked as ``run_cec`` checks them.
    """
    return _planning_states(*_pair_states(rho_a, rho_b), planning_catalyst)


def _execute(
    schedule: ProtocolSchedule, pairs: list, p_g: float, ideal: CatalystSpec | None = None
) -> ProtocolResult:
    """Run ``schedule`` on the pairs and reduce the success branch.

    The output pair is the first pair; with an ``ideal`` catalyst the last
    pair is the catalyst, reported with its fidelities to the ideal state.
    """
    n = len(pairs)
    prob, rho_out = run_schedule(schedule, _parties(*pairs), p_g)
    output = partial_trace(rho_out, keep=[0, n])
    catalyst = {}
    if ideal is not None:
        post = partial_trace(rho_out, keep=[n - 1, 2 * n - 1])
        catalyst = dict(
            catalyst_post=post, catalyst_spec=ideal,
            catalyst_fidelity_before=float(fidelity(pairs[-1], ideal.state)),
            catalyst_fidelity_after=float(fidelity(post, ideal.state)),
        )
    return ProtocolResult(
        success_probability=float(prob),
        output_state=output,
        output_fidelity=float(fidelity(output, PHI_PLUS)),
        gate_counts={"A": schedule.mcx_total, "B": 0},
        branch_count=sum(len(r.povm.elements) for r in schedule.rounds) + 2,
        schedule=schedule,
        **catalyst,
    )


def run_nec(rho_a: np.ndarray, rho_b: np.ndarray, g: int = 1, p_g: float = 0.0) -> ProtocolResult:
    """Concentrate two noisy pairs into one Bell pair without a catalyst.

    Plans against the tensor product of the per-pair surrogates, targets a
    Bell state on the first pair, and executes with per-MCX gate noise
    ``p_g``. The result's output state is the reduced state of the first
    pair on the success branch. Raises ValueError unless both inputs are
    two-qubit density matrices and 0 <= p_g <= 1.
    """
    pairs = _pair_states(rho_a, rho_b)
    schedule = compile_schedule(*_planning_states(*pairs), g)
    return _execute(schedule, pairs, p_g)


# The catalyst grid c1 = 0.5, 0.5001, ..., 1 and its Schmidt pairs (c1, 1 - c1).
_C1 = 0.5 + np.arange(5001) * 1e-4
_CATALYSTS = np.stack([_C1, 1.0 - _C1], axis=1)
_read_only(_C1, _CATALYSTS)


def find_catalyst(surrogate: np.ndarray, target: np.ndarray) -> CatalystSpec:
    """Search one-pair catalysts maximizing the conversion probability.

    Grid search over the catalyst Schmidt coefficient c1 = 0.5, 0.5001,
    ..., 1, scoring vidal_probability of the catalyst-augmented conversion
    for the whole grid in one call. The tie rule is a running maximum, not
    an argmax: scanning c1 upward, a point is kept when it comes within
    UNIT_TOL of the best score before it, and the last kept point wins. So
    ties go to the least entangled catalyst, and deterministically
    convertible inputs return the product catalyst (1, 0).
    ``achieved_probability`` is the best score on the grid.

    As ``compile_schedule`` does, the last ``_MEMO_SIZE`` results are kept,
    keyed on the complex128 bytes of the flattened inputs, and returned
    shared, with read-only arrays. Code that patches the search's internals
    must call ``find_catalyst.cache_clear()`` first.
    """
    return _find_catalyst(_input_bytes(surrogate), _input_bytes(target))


@lru_cache(maxsize=_MEMO_SIZE)
def _find_catalyst(source: bytes, target: bytes) -> CatalystSpec:
    vectors = []
    for state in (np.frombuffer(b, dtype=complex) for b in (source, target)):
        d = math.isqrt(state.size)
        if d * d != state.size:
            raise ValueError("state does not split into equal halves")
        vectors.append(schmidt_decompose(state, d, d).coefficients)
    # exact zeros add 0.0 to every tail sum: dropping them leaves each score
    joint = (np.einsum("i,cj->cij", v[v > 0], _CATALYSTS).reshape(_C1.size, -1) for v in vectors)
    p = vidal_probability(*(np.sort(rows)[:, ::-1] for rows in joint))
    before = np.concatenate([[-1.0], np.maximum.accumulate(p)[:-1]])
    best = np.flatnonzero(p > before - UNIT_TOL)[-1]
    spec = catalyst_from_schmidt(float(_C1[best]), achieved=float(p.max()))
    _read_only(spec.schmidt, spec.state)
    return spec


find_catalyst.cache_info = _find_catalyst.cache_info
find_catalyst.cache_clear = _find_catalyst.cache_clear


def run_cec(
    rho_a: np.ndarray, rho_b: np.ndarray, catalyst: CatalystSpec, g: int = 1, p_g: float = 0.0
) -> ProtocolResult:
    """Concentrate two noisy pairs with the help of a catalyst pair.

    ``catalyst`` is a CatalystSpec, a fresh pure catalyst. The schedule is
    compiled for it, and the target returns it alongside the Bell output;
    ``catalyst_post`` reports the catalyst pair's reduced state on the
    success branch, and ``schedule`` the compiled schedule. Raises
    ValueError unless both pairs are two-qubit density matrices, the
    catalyst state is a 4-entry pair vector and 0 <= p_g <= 1.
    """
    pairs = _pair_states(rho_a, rho_b)
    schedule = compile_schedule(*_planning_states(*pairs, catalyst.state), g)
    cat_dm = np.outer(catalyst.state, catalyst.state.conj())
    return _execute(schedule, [*pairs, cat_dm], p_g, catalyst)


def reuse_catalyst(
    prev: ProtocolResult,
    rho_a: np.ndarray,
    rho_b: np.ndarray,
    p_g: float = 0.0,
    *,
    recompile_from_state: bool = False,
) -> ProtocolResult:
    """Run catalytic concentration again on the previous run's catalyst.

    Replays ``prev.schedule``, compiled for the ideal catalyst, on the new
    pairs and the degraded catalyst ``prev.catalyst_post`` without planning
    or compiling: pairs other than the original run's still get the
    original schedule. ``recompile_from_state`` instead compiles against the
    degraded catalyst's surrogate, at the schedule's group size. The result
    carries ``prev.schedule`` either way, so a later plain link replays the
    original. Inputs are validated as in ``run_cec``.
    """
    if prev.catalyst_post is None or prev.catalyst_spec is None:
        raise ValueError("previous result does not carry a catalyst")
    pairs = _pair_states(rho_a, rho_b, prev.catalyst_post)
    schedule = prev.schedule
    if recompile_from_state:
        planning = _planning_states(*pairs[:2], surrogate(pairs[2]))
        schedule = compile_schedule(*planning, schedule.group_size)
    result = _execute(schedule, pairs, p_g, prev.catalyst_spec)
    return replace(result, schedule=prev.schedule)


def run_distillation(
    rho_a: np.ndarray, rho_b: np.ndarray, plan: DistillationPlan, p_g: float = 0.0
) -> ProtocolResult:
    """Attempt 2-to-1 distillation with the given plan.

    Applies the plan's single-qubit Cliffords (noiseless) on both sides,
    a bilateral CNOT from the first pair onto the second (each CNOT first
    depolarizes its two qubits with probability ``p_g`` each), measures
    the second pair in the plan basis, and accepts equal outcomes. The
    output is the first pair's reduced state on the accept branch. Raises
    ValueError unless both inputs are two-qubit density matrices, the plan
    holds two unitary 2x2 gates (every entry of G^dagger G - I within
    STRUCTURAL_TOL) and a known basis, and 0 <= p_g <= 1; raises
    ArithmeticError when the plan accepts with probability below
    MIN_ACCEPTANCE.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    if plan.basis not in MEASUREMENT_BASES:
        raise ValueError("measurement basis must be one of X, Y, Z")
    gates = [np.asarray(g, dtype=complex)[None] for g in plan.alice_gates]
    if [g.shape for g in gates] != [(1, 2, 2)] * 2 or not all(
        abs(g[0].conj().T @ g[0] - PAULI_I).max() <= STRUCTURAL_TOL for g in gates
    ):
        raise ValueError("distillation plan must hold two unitary 2x2 gates")
    accepted = _distill(rho_a, rho_b, *gates, p_g)[0, 0, MEASUREMENT_BASES.index(plan.basis)]
    weight = clip_unit(np.trace(accepted).real, "acceptance probability")
    if weight < MIN_ACCEPTANCE:
        raise ArithmeticError(f"distillation plan accepts with probability {weight!r}")
    output = accepted / weight
    return ProtocolResult(
        success_probability=weight,
        output_state=output,
        output_fidelity=float(fidelity(output, PHI_PLUS)),
        gate_counts={"A": 1, "B": 1},
        branch_count=4,
    )


def _mirrored_factors(rho_a, rho_b, gates_a, gates_b, p_g: float) -> tuple:
    """Per-side factors (A, G) of a family of plans; see ``_distill``.

    A[i] is rho_a after the mirrored gates_a[i] and the first CNOT's gate
    noise; G[j, k] is the accept matrix of rho_b after gates_b[j] and its
    noise in MEASUREMENT_BASES[k]. Gates and noise act on each pair alone
    (the noise on the second CNOT's qubits commutes with the first CNOT).
    """
    _check_probability(p_g, "p_g")
    mirrored = []
    for rho, gates in ((rho_a, gates_a), (rho_b, gates_b)):
        ops = np.einsum("nab,ncd->nacbd", gates, gates.conj()).reshape(-1, 4, 4)
        out = ops @ rho @ ops.conj().transpose(0, 2, 1)
        if p_g > 0:
            out = _depolarize_qubits(out, p_g, (0, 1))
        mirrored.append(out)
    side_a, side_b = mirrored
    return side_a, (side_b.reshape(-1, 16) @ _ACCEPT_MAP).reshape(-1, 3, 4, 4)


def _distill(rho_a, rho_b, gates_a, gates_b, p_g: float) -> np.ndarray:
    """Accepted, unnormalized output states of a family of plans.

    Entry [i, j, k] is the plan with Alice gates (gates_a[i], gates_b[j])
    measuring in MEASUREMENT_BASES[k]; its trace is the acceptance. The
    bilateral CNOT maps (u, v) to (u, v xor u), so the accepted state is
    the Hadamard product A[i] o G[j, k] of the ``_mirrored_factors``, with
    G_k[u, u'] = sum_m (X^u w_m)^dag rho_b' (X^u' w_m).
    """
    a, g = _mirrored_factors(rho_a, rho_b, gates_a, gates_b, p_g)
    return a[:, None, None] * g[None]


def _first_best(fids: np.ndarray) -> int:
    """Position kept by the index-order scan of ``optimize_distillation``.

    The first entry is the incumbent, and a later one replaces it when it
    is higher by more than UNIT_TOL. Only strict prefix maxima can replace
    the incumbent b: if f_i <= f_j for some j < i, then either j was kept and
    b >= f_j >= f_i, or it was not and f_i <= f_j <= b + UNIT_TOL. So the
    scan visits those positions alone and keeps the same one.
    """
    before = np.maximum.accumulate(fids)
    rising = np.flatnonzero(fids[1:] > before[:-1]) + 1
    best, best_fid = 0, float(fids[0])
    for pos, fid in zip(rising.tolist(), fids[rising].tolist()):
        if fid > best_fid + UNIT_TOL:
            best, best_fid = pos, fid
    return best


def optimize_distillation(
    rho_a: np.ndarray, rho_b: np.ndarray, p_g: float = 0.0
) -> DistillationPlan:
    """Exhaustively search the mirrored-Clifford distillation family.

    Scores all 24 x 24 Alice gate pairs in the three measurement bases at
    the given gate-noise level from the per-side factors of
    ``_mirrored_factors``: acceptance and Bell overlap are bilinear in
    them, so each is one matrix product and no accepted state is formed.
    Tie rule: plans are scanned in index order (first gate, second gate,
    basis), plans accepting with probability below MIN_ACCEPTANCE are
    skipped, and a plan replaces the incumbent only when its output
    fidelity is higher by more than UNIT_TOL, so near-ties go to the lowest
    index. The inputs are
    validated once, as in ``run_distillation``.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    a, g = _mirrored_factors(rho_a, rho_b, _CLIFFORD_STACK, _CLIFFORD_STACK, p_g)
    g = g.reshape(-1, 16)
    weights = (a.reshape(-1, 16)[:, ::5] @ g[:, ::5].T).real.ravel()
    live = np.flatnonzero(weights >= MIN_ACCEPTANCE)
    if not live.size:
        raise ArithmeticError("no distillation plan had nonzero acceptance")
    overlap = ((a * _PHI_OUTER).reshape(-1, 16) @ g.T).real.ravel()[live]
    best = int(live[_first_best(clip_unit(overlap / weights[live], "fidelity"))])
    i, j, k = np.unravel_index(best, (24, 24, 3))
    return DistillationPlan((CLIFFORDS[i], CLIFFORDS[j]), MEASUREMENT_BASES[k], index=best)


def result_to_document(result: ProtocolResult) -> dict:
    """JSON-ready dictionary of a protocol result."""

    def _mat(m):
        if m is None:
            return None
        return {"real": np.real(m).tolist(), "imag": np.imag(m).tolist()}

    return {
        "success_probability": result.success_probability,
        "output_fidelity": result.output_fidelity,
        "infidelity": result.infidelity,
        "output_state": _mat(result.output_state),
        "catalyst_post": _mat(result.catalyst_post),
        "gate_counts": dict(result.gate_counts),
        "mcx_total": result.mcx_total,
        "branch_count": result.branch_count,
        "catalyst_fidelity_before": result.catalyst_fidelity_before,
        "catalyst_fidelity_after": result.catalyst_fidelity_after,
    }
