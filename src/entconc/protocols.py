"""End-to-end entanglement concentration and distillation runners.

Each runner takes prepared two-qubit pair states, assembles the joint
system in party layout (all of A's qubits, then all of B's), plans against
the pure surrogate of the input, executes the compiled schedule with
optional gate noise, and reduces the success branch to the designated
output pair. The designated output pair is always the first prepared pair.

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

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .locc import ProtocolSchedule, compile_schedule, run_schedule
from .noise import PHI_PLUS, depolarize, surrogate
from .qmath import (
    PAULI_I,
    PAULI_X,
    assert_density_matrix,
    assert_pure_state,
    clip_unit,
    fidelity,
    partial_trace,
    permute_subsystems,
)
from .majorize import vidal_probability

_MIN_ACCEPTANCE = 1e-9
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
MEASUREMENT_BASES = ("Z", "X", "Y")
# Columns of _BASIS_CHANGE[k] are the outcome vectors v_m of basis k, and
# _ACCEPT[k, u, m] = X^u (v_m (x) v_m), with (X^u w)[v] = w[v xor u].
_BASIS_CHANGE = np.array([np.eye(2), _H, _S @ _H])
_ACCEPT = np.einsum("kam,kbm->kmab", _BASIS_CHANGE, _BASIS_CHANGE).reshape(3, 2, 4)[
    :, :, np.arange(4)[:, None] ^ np.arange(4)
].transpose(0, 2, 1, 3)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one protocol run.

    ``output_state`` is the normalized success-branch state of the output
    pair; ``catalyst_post`` (catalytic runs only) is the reduced state of
    the catalyst pair on the success branch. ``gate_counts`` maps party
    name to its MCX total. ``branch_count`` counts the measurement branches
    in the schedule plus the two filter branches. ``schedule`` is the
    conversion schedule compiled for the pairs and the ideal catalyst, the
    one ``reuse_catalyst`` replays; a reuse link passes it on, also when it
    ran a recompiled schedule. Distillation results carry None.
    """

    success_probability: float
    output_state: np.ndarray
    output_fidelity: float
    catalyst_post: np.ndarray | None
    gate_counts: dict
    branch_count: int
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
    """Build a CatalystSpec from its larger Schmidt coefficient."""
    if not 0.5 <= c1 <= 1.0 + 1e-12:
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
    pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
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

    Raises ValueError for a wrong shape or for a matrix that is not
    Hermitian, of unit trace and positive (``assert_density_matrix``).
    """
    out = []
    for rho in states:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"pair state must be 4x4, got shape {rho.shape}")
        assert_density_matrix(rho)
        out.append(rho)
    return out


def _schmidt_vector(state: np.ndarray) -> np.ndarray:
    """Schmidt coefficients, descending, of a pure state on equal halves.

    Bit-equal to ``schmidt_decompose(...).coefficients`` (the same SVD and
    normalization), without building and pinning the frames.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(state.size)))
    if d * d != state.size:
        raise ValueError("state does not split into equal halves")
    assert_pure_state(state)
    coeffs = np.linalg.svd(state.reshape(d, d))[1] ** 2
    return coeffs / coeffs.sum()


def _parties(*pairs) -> np.ndarray:
    """Product of pair states (vectors or density matrices), party-ordered.

    The product's qubits [A1, B1, A2, B2, ...] become [A1, A2, ..., B1, B2, ...].
    """
    n = len(pairs)
    perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    return permute_subsystems(reduce(np.kron, pairs), perm)


_TARGET_PAIRS = (PHI_PLUS, np.array([1, 0, 0, 0], dtype=complex))


def joint_surrogate(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Party-ordered product of the per-pair surrogate states."""
    return _parties(surrogate(rho_a), surrogate(rho_b))


def nec_planning_states(rho_a: np.ndarray, rho_b: np.ndarray) -> tuple:
    """Surrogate and target states for the non-catalytic conversion."""
    return joint_surrogate(rho_a, rho_b), _parties(*_TARGET_PAIRS)


def cec_planning_states(
    rho_a: np.ndarray, rho_b: np.ndarray, planning_catalyst: np.ndarray
) -> tuple:
    """Surrogate and target states for the catalytic conversion.

    ``planning_catalyst`` is the pure catalyst pair state the schedule is
    planned with; the target returns it unchanged next to the Bell output.
    """
    cat = np.asarray(planning_catalyst, dtype=complex).reshape(-1)
    return _parties(surrogate(rho_a), surrogate(rho_b), cat), _parties(*_TARGET_PAIRS, cat)


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
    catalyst = {"catalyst_post": None}
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
    two-qubit density matrices.
    """
    pairs = _pair_states(rho_a, rho_b)
    schedule = compile_schedule(*nec_planning_states(*pairs), g)
    return _execute(schedule, pairs, p_g)


def find_catalyst(surrogate: np.ndarray, target: np.ndarray, resolution: float = 1e-4) -> CatalystSpec:
    """Search one-pair catalysts maximizing the conversion probability.

    Grid search over the catalyst Schmidt coefficient c1 in [0.5, 1] at the
    given resolution, scoring vidal_probability of the catalyst-augmented
    conversion for the whole grid in one call. The tie rule is a running
    maximum, not an argmax: scanning c1 upward, a point is kept when it
    comes within 1e-12 of the best score before it, and the last kept
    point wins. So ties go to the least entangled catalyst, and
    deterministically convertible inputs return the product catalyst
    (1, 0). ``achieved_probability`` is the best score on the grid.
    """
    sigma, tau = _schmidt_vector(surrogate), _schmidt_vector(target)
    c1 = 0.5 + np.arange(int(round(0.5 / resolution)) + 1) * resolution
    cat = np.stack([c1, 1.0 - c1], axis=1)
    joint = (np.sort(np.einsum("i,cj->cij", v, cat).reshape(c1.size, -1)) for v in (sigma, tau))
    p = vidal_probability(*(rows[:, ::-1] for rows in joint))
    before = np.concatenate([[-1.0], np.maximum.accumulate(p)[:-1]])
    best = np.flatnonzero(p > before - 1e-12)[-1]
    return catalyst_from_schmidt(min(float(c1[best]), 1.0), achieved=float(p.max()))


def run_cec(
    rho_a: np.ndarray, rho_b: np.ndarray, catalyst, g: int = 1, p_g: float = 0.0
) -> ProtocolResult:
    """Concentrate two noisy pairs with the help of a catalyst pair.

    ``catalyst`` is either a CatalystSpec (a fresh, pure catalyst) or the
    density matrix of a catalyst pair, whose ideal is then the catalyst
    with the Schmidt coefficients of its surrogate. The schedule is
    compiled for the ideal catalyst, and the target returns it alongside
    the Bell output; ``catalyst_post`` reports the catalyst pair's reduced
    state on the success branch, and ``schedule`` the compiled schedule.
    Raises ValueError unless both pairs and a density-matrix catalyst are
    two-qubit density matrices.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    if isinstance(catalyst, CatalystSpec):
        ideal = catalyst
        cat_dm = np.outer(catalyst.state, catalyst.state.conj())
    else:
        (cat_dm,) = _pair_states(catalyst)
        c1 = float(_schmidt_vector(surrogate(cat_dm))[0])
        ideal = catalyst_from_schmidt(max(0.5, min(1.0, c1)))
    schedule = compile_schedule(*cec_planning_states(rho_a, rho_b, ideal.state), g)
    return _execute(schedule, [rho_a, rho_b, cat_dm], p_g, ideal)


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
        planning = cec_planning_states(pairs[0], pairs[1], surrogate(pairs[2]))
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
    ValueError unless both inputs are two-qubit density matrices, and
    ArithmeticError when the plan accepts with probability below 1e-9.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    if plan.basis not in MEASUREMENT_BASES:
        raise ValueError("measurement basis must be one of X, Y, Z")
    ga, gb = (np.asarray(g, dtype=complex)[None] for g in plan.alice_gates)
    accepted = _distill(rho_a, rho_b, ga, gb, p_g)[0, 0, MEASUREMENT_BASES.index(plan.basis)]
    weight = clip_unit(np.trace(accepted).real, "acceptance probability")
    if weight < _MIN_ACCEPTANCE:
        raise ArithmeticError(f"distillation plan accepts with probability {weight!r}")
    output = accepted / weight
    return ProtocolResult(
        success_probability=weight,
        output_state=output,
        output_fidelity=float(fidelity(output, PHI_PLUS)),
        catalyst_post=None,
        gate_counts={"A": 1, "B": 1},
        branch_count=4,
    )


def _distill(rho_a, rho_b, gates_a, gates_b, p_g: float) -> np.ndarray:
    """Accepted, unnormalized output states of a family of plans.

    Entry [i, j, k] is the plan with Alice gates (gates_a[i], gates_b[j])
    measuring in MEASUREMENT_BASES[k]; its trace is the acceptance. Gates
    and noise act on each pair alone (the noise on the second CNOT's qubits
    commutes with the first CNOT). The bilateral CNOT maps (u, v) to
    (u, v xor u), so the accepted state is rho_a' o G_k, a Hadamard product
    with G_k[u, u'] = sum_m (X^u w_m)^dag rho_b' (X^u' w_m).
    """
    mirrored = []
    for rho, gates in ((rho_a, gates_a), (rho_b, gates_b)):
        ops = np.einsum("nab,ncd->nacbd", gates, gates.conj()).reshape(-1, 4, 4)
        out = ops @ rho @ ops.conj().transpose(0, 2, 1)
        if p_g > 0:
            out = depolarize(depolarize(out, p_g, qubit=0), p_g, qubit=1)
        mirrored.append(out)
    g = np.einsum("kuma,jab,kvmb->jkuv", _ACCEPT.conj(), mirrored[1], _ACCEPT)
    return mirrored[0][:, None, None] * g[None]


def optimize_distillation(
    rho_a: np.ndarray, rho_b: np.ndarray, p_g: float = 0.0
) -> DistillationPlan:
    """Exhaustively search the mirrored-Clifford distillation family.

    Scores all 24 x 24 Alice gate pairs in the three measurement bases at
    the given gate-noise level in one pass. Tie rule: plans are scanned in
    index order (first gate, second gate, basis), plans accepting with
    probability below 1e-9 are skipped, and a plan replaces the incumbent
    only when its output fidelity is higher by more than 1e-12, so
    near-ties go to the lowest index. The inputs are validated once, as in
    ``run_distillation``.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    accepted = _distill(rho_a, rho_b, _CLIFFORD_STACK, _CLIFFORD_STACK, p_g).reshape(-1, 4, 4)
    weights = np.einsum("nuu->n", accepted).real
    live = np.flatnonzero(weights >= _MIN_ACCEPTANCE)
    overlap = np.einsum("u,nuv,v->n", PHI_PLUS.conj(), accepted, PHI_PLUS).real[live]
    best, best_fid = None, -1.0
    for index, fid in zip(live.tolist(), clip_unit(overlap / weights[live], "fidelity").tolist()):
        if fid > best_fid + 1e-12:
            best, best_fid = index, fid
    if best is None:
        raise ArithmeticError("no distillation plan had nonzero acceptance")
    i, j, k = np.unravel_index(best, (24, 24, 3))
    return DistillationPlan((CLIFFORDS[i], CLIFFORDS[j]), MEASUREMENT_BASES[k], index=best)


def result_to_document(result: ProtocolResult, params: dict | None = None) -> dict:
    """JSON-ready dictionary of a protocol result."""

    def _mat(m):
        if m is None:
            return None
        return {
            "real": [[float(x) for x in row] for row in np.real(m)],
            "imag": [[float(x) for x in row] for row in np.imag(m)],
        }

    doc = {
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
    if params is not None:
        doc["params"] = dict(params)
    return doc
