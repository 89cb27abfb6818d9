"""End-to-end entanglement concentration and distillation runners.

Each runner takes prepared two-qubit pair states, assembles the joint
system in party layout (all of A's qubits, then all of B's), plans against
the pure surrogate of the input, executes the compiled schedule with
optional gate noise, and reduces the success branch to the designated
output pair. The designated output pair is always the first prepared pair.

Conversion runners:
- ``run_nec``: two pairs into one Bell pair, no catalyst.
- ``run_cec``: two pairs plus a catalyst pair; the catalyst is returned.
- ``reuse_catalyst``: chain a second catalytic run on the degraded catalyst.
- ``run_distillation`` / ``optimize_distillation``: 2-to-1 recurrence-style
  distillation baseline over mirrored single-qubit Cliffords and a
  bilateral CNOT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .locc import compile_schedule, run_schedule
from .noise import PHI_PLUS, depolarize, surrogate
from .qmath import (
    PAULI_I,
    PAULI_X,
    apply_channel,
    assert_density_matrix,
    fidelity,
    partial_trace,
    permute_subsystems,
    schmidt_decompose,
)
from .majorize import vidal_probability

_EQUAL_PAULI = (1 / 3, 1 / 3, 1 / 3)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_BASIS_VECTORS = {
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "X": (
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, -1], dtype=complex) / np.sqrt(2),
    ),
    "Y": (
        np.array([1, 1j], dtype=complex) / np.sqrt(2),
        np.array([1, -1j], dtype=complex) / np.sqrt(2),
    ),
}
MEASUREMENT_BASES = ("Z", "X", "Y")


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one protocol run.

    ``output_state`` is the normalized success-branch state of the output
    pair; ``catalyst_post`` (catalytic runs only) is the reduced state of
    the catalyst pair on the success branch. ``gate_counts`` maps party
    name to its MCX total. ``branch_count`` counts the measurement branches
    in the schedule plus the two filter branches.
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
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    mats = [np.eye(2, dtype=complex)]
    seen = {_canonical_key(mats[0])}
    i = 0
    while i < len(mats):
        for gen in (h, s):
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


def dejmps_plan() -> DistillationPlan:
    """Reference distillation plan: 90-degree X rotations, Z measurement."""
    rx = (PAULI_I - 1j * PAULI_X) / np.sqrt(2)
    return DistillationPlan(alice_gates=(rx, rx), basis="Z", index=None)


def _pairs_to_parties(state: np.ndarray, n_pairs: int) -> np.ndarray:
    """Reorder qubits from pair-interleaved to party-blocked layout."""
    perm = [2 * i for i in range(n_pairs)] + [2 * i + 1 for i in range(n_pairs)]
    return permute_subsystems(state, perm)


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
    n = state.size
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ValueError("state does not split into equal halves")
    return schmidt_decompose(state, d, d).coefficients


def joint_surrogate(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Party-ordered product of the per-pair surrogate states."""
    sur_pairs = np.kron(surrogate(rho_a), surrogate(rho_b))
    return _pairs_to_parties(sur_pairs, 2)


def nec_planning_states(rho_a: np.ndarray, rho_b: np.ndarray) -> tuple:
    """Surrogate and target states for the non-catalytic conversion."""
    surrogate_full = joint_surrogate(rho_a, rho_b)
    target_pairs = np.kron(PHI_PLUS, np.array([1, 0, 0, 0], dtype=complex))
    return surrogate_full, _pairs_to_parties(target_pairs, 2)


def cec_planning_states(
    rho_a: np.ndarray, rho_b: np.ndarray, planning_catalyst: np.ndarray
) -> tuple:
    """Surrogate and target states for the catalytic conversion.

    ``planning_catalyst`` is the pure catalyst pair state the schedule is
    planned with; the target returns it unchanged next to the Bell output.
    """
    cat = np.asarray(planning_catalyst, dtype=complex).reshape(-1)
    sur_pairs = np.kron(np.kron(surrogate(rho_a), surrogate(rho_b)), cat)
    target_pairs = np.kron(
        np.kron(PHI_PLUS, np.array([1, 0, 0, 0], dtype=complex)), cat
    )
    return _pairs_to_parties(sur_pairs, 3), _pairs_to_parties(target_pairs, 3)


def _run_conversion(
    rho_full: np.ndarray,
    surrogate_full: np.ndarray,
    target_full: np.ndarray,
    g: int,
    p_g: float,
) -> tuple:
    schedule = compile_schedule(surrogate_full, target_full, g)
    prob, rho_out = run_schedule(schedule, rho_full, p_g)
    branch_count = sum(len(r.povm.elements) for r in schedule.rounds) + 2
    return schedule, prob, rho_out, branch_count


def run_nec(rho_a: np.ndarray, rho_b: np.ndarray, g: int = 1, p_g: float = 0.0) -> ProtocolResult:
    """Concentrate two noisy pairs into one Bell pair without a catalyst.

    Plans against the tensor product of the per-pair surrogates, targets a
    Bell state on the first pair, and executes with per-MCX gate noise
    ``p_g``. The result's output state is the reduced state of the first
    pair on the success branch. Raises ValueError unless both inputs are
    two-qubit density matrices.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    surrogate_full, target_full = nec_planning_states(rho_a, rho_b)
    rho_full = _pairs_to_parties(np.kron(rho_a, rho_b), 2)
    schedule, prob, rho_out, branches = _run_conversion(
        rho_full, surrogate_full, target_full, g, p_g
    )
    output = partial_trace(rho_out, keep=[0, 2])
    return ProtocolResult(
        success_probability=float(prob),
        output_state=output,
        output_fidelity=float(fidelity(output, PHI_PLUS)),
        catalyst_post=None,
        gate_counts={"A": schedule.mcx_total, "B": 0},
        branch_count=branches,
    )


def find_catalyst(surrogate: np.ndarray, target: np.ndarray, resolution: float = 1e-4) -> CatalystSpec:
    """Search one-pair catalysts maximizing the conversion probability.

    Grid search over the catalyst Schmidt coefficient c1 in [0.5, 1] at the
    given resolution, scoring vidal_probability of the catalyst-augmented
    conversion. Ties (within 1e-12) go to the least entangled catalyst,
    the largest c1, so deterministically convertible inputs return the
    product catalyst (1, 0).
    """
    sigma = _schmidt_vector(np.asarray(surrogate, dtype=complex).ravel())
    tau = _schmidt_vector(np.asarray(target, dtype=complex).ravel())
    best_c1 = 1.0
    best_p = -1.0
    steps = int(round(0.5 / resolution))
    for i in range(steps + 1):
        c1 = 0.5 + i * resolution
        cat = np.array([c1, 1.0 - c1])
        with_cat = np.sort(np.outer(sigma, cat).ravel())[::-1]
        target_cat = np.sort(np.outer(tau, cat).ravel())[::-1]
        p = vidal_probability(with_cat, target_cat)
        if p > best_p - 1e-12:
            best_p = max(best_p, p)
            best_c1 = c1
    return catalyst_from_schmidt(min(best_c1, 1.0), achieved=float(best_p))


def run_cec(
    rho_a: np.ndarray,
    rho_b: np.ndarray,
    catalyst,
    g: int = 1,
    p_g: float = 0.0,
    *,
    ideal_catalyst: CatalystSpec | None = None,
    recompile_from_state: bool = False,
) -> ProtocolResult:
    """Concentrate two noisy pairs with the help of a catalyst pair.

    ``catalyst`` is either a CatalystSpec (a fresh, pure catalyst) or the
    density matrix of an already-degraded catalyst pair. The schedule is
    compiled for the planning catalyst: the ideal catalyst state by
    default, or the degraded catalyst's own surrogate when
    ``recompile_from_state`` is set. The target returns the planning
    catalyst alongside the Bell output, and ``catalyst_post`` reports the
    catalyst pair's reduced state on the success branch. Raises ValueError
    unless both pairs and a density-matrix catalyst are two-qubit density
    matrices.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    if isinstance(catalyst, CatalystSpec):
        ideal = catalyst
        cat_dm = np.outer(catalyst.state, catalyst.state.conj())
    else:
        (cat_dm,) = _pair_states(catalyst)
        ideal = ideal_catalyst
        if ideal is None:
            top = surrogate(cat_dm)
            c1 = float(np.sort(_schmidt_vector(top))[::-1][0])
            ideal = catalyst_from_schmidt(max(0.5, min(1.0, c1)))
    plan_cat = surrogate(cat_dm) if recompile_from_state else ideal.state
    surrogate_full, target_full = cec_planning_states(rho_a, rho_b, plan_cat)
    rho_pairs = np.kron(np.kron(rho_a, rho_b), cat_dm)
    rho_full = _pairs_to_parties(rho_pairs, 3)
    schedule, prob, rho_out, branches = _run_conversion(
        rho_full, surrogate_full, target_full, g, p_g
    )
    output = partial_trace(rho_out, keep=[0, 3])
    catalyst_post = partial_trace(rho_out, keep=[2, 5])
    return ProtocolResult(
        success_probability=float(prob),
        output_state=output,
        output_fidelity=float(fidelity(output, PHI_PLUS)),
        catalyst_post=catalyst_post,
        gate_counts={"A": schedule.mcx_total, "B": 0},
        branch_count=branches,
        catalyst_spec=ideal,
        catalyst_fidelity_before=float(fidelity(cat_dm, ideal.state)),
        catalyst_fidelity_after=float(fidelity(catalyst_post, ideal.state)),
    )


def reuse_catalyst(
    prev: ProtocolResult,
    rho_a: np.ndarray,
    rho_b: np.ndarray,
    g: int = 1,
    p_g: float = 0.0,
    *,
    recompile_from_state: bool = False,
) -> ProtocolResult:
    """Run catalytic concentration again with the previous run's catalyst.

    By default the schedule stays the one compiled for the ideal catalyst;
    only the physical catalyst state is the degraded one. Setting
    ``recompile_from_state`` replans against the degraded catalyst's
    surrogate instead. Its inputs are validated as in ``run_cec``.
    """
    if prev.catalyst_post is None or prev.catalyst_spec is None:
        raise ValueError("previous result does not carry a catalyst")
    return run_cec(
        rho_a,
        rho_b,
        prev.catalyst_post,
        g,
        p_g,
        ideal_catalyst=prev.catalyst_spec,
        recompile_from_state=recompile_from_state,
    )


def run_distillation(
    rho_a: np.ndarray, rho_b: np.ndarray, plan: DistillationPlan, p_g: float = 0.0
) -> ProtocolResult:
    """Attempt 2-to-1 distillation with the given plan.

    Applies the plan's single-qubit Cliffords (noiseless) on both sides,
    a bilateral CNOT from the first pair onto the second (each CNOT first
    depolarizes its two qubits with probability ``p_g`` each), measures
    the second pair in the plan basis, and accepts equal outcomes. The
    output is the first pair's reduced state on the accept branch. Raises
    ValueError unless both inputs are two-qubit density matrices.
    """
    return _distill(*_pair_states(rho_a, rho_b), plan, p_g)


def _distill(
    rho_a: np.ndarray, rho_b: np.ndarray, plan: DistillationPlan, p_g: float
) -> ProtocolResult:
    """``run_distillation`` on inputs that are already validated."""
    if plan.basis not in _BASIS_VECTORS:
        raise ValueError("measurement basis must be one of X, Y, Z")
    rho = np.kron(rho_a, rho_b)
    ga0, ga1 = plan.alice_gates
    rho = apply_channel(rho, [np.asarray(ga0, dtype=complex)], on=[0])
    rho = apply_channel(rho, [np.asarray(ga0, dtype=complex).conj()], on=[1])
    rho = apply_channel(rho, [np.asarray(ga1, dtype=complex)], on=[2])
    rho = apply_channel(rho, [np.asarray(ga1, dtype=complex).conj()], on=[3])
    for control, targ in ((0, 2), (1, 3)):
        if p_g > 0:
            rho = depolarize(rho, p_g, _EQUAL_PAULI, qubit=control)
            rho = depolarize(rho, p_g, _EQUAL_PAULI, qubit=targ)
        rho = apply_channel(rho, [_CNOT], on=[control, targ])
    accepted = np.zeros_like(rho)
    for vec in _BASIS_VECTORS[plan.basis]:
        proj = np.outer(vec, vec.conj())
        full = np.kron(np.eye(4), np.kron(proj, proj))
        accepted += full @ rho @ full.conj().T
    weight = float(np.real(np.trace(accepted)))
    if weight > 1e-14:
        accepted = accepted / weight
    output = partial_trace(accepted, keep=[0, 1])
    return ProtocolResult(
        success_probability=weight,
        output_state=output,
        output_fidelity=float(fidelity(output, PHI_PLUS)),
        catalyst_post=None,
        gate_counts={"A": 1, "B": 1},
        branch_count=4,
    )


def optimize_distillation(
    rho_a: np.ndarray, rho_b: np.ndarray, p_g: float = 0.0
) -> DistillationPlan:
    """Exhaustively search the mirrored-Clifford distillation family.

    Enumerates 24 x 24 Alice gate pairs and the three measurement bases,
    maximizing output fidelity at the given gate-noise level. Ties are
    broken toward the lowest plan index (loop order: first gate, second
    gate, basis). Plans whose acceptance probability vanishes are skipped.
    The inputs are validated once, as in ``run_distillation``.
    """
    rho_a, rho_b = _pair_states(rho_a, rho_b)
    best_plan = None
    best_fid = -1.0
    index = 0
    for i, gi in enumerate(CLIFFORDS):
        for j, gj in enumerate(CLIFFORDS):
            for basis in MEASUREMENT_BASES:
                plan = DistillationPlan(
                    alice_gates=(gi, gj), basis=basis, index=index
                )
                index += 1
                result = _distill(rho_a, rho_b, plan, p_g)
                if result.success_probability < 1e-9:
                    continue
                if result.output_fidelity > best_fid + 1e-12:
                    best_fid = result.output_fidelity
                    best_plan = plan
    if best_plan is None:
        raise ArithmeticError("no distillation plan had nonzero acceptance")
    return best_plan


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
