"""Dense complex linear algebra and quantum-state primitives.

States are plain numpy arrays. A pure state on subsystems with dimensions
``dims = (d_0, d_1, ...)`` is a complex vector of length ``prod(dims)`` whose
index runs over the subsystem indices with the FIRST listed subsystem most
significant (big-endian), matching the semantics of ``numpy.kron``. Density
matrices are square complex arrays over the same index.

Multi-qubit registers follow the layout convention

    [Alice data qubits ..., Alice auxiliary, Bob data qubits ...]

and all bipartite cuts separate Alice's block from Bob's block.

Tolerances: 1e-10 for structural checks (unitarity, reconstruction,
completeness), 1e-12 for normalization and for the rounding excess a
probability or fidelity may carry past [0, 1] (``clip_unit``).
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

import numpy as np

STRUCTURAL_TOL = 1e-10
NORM_TOL = 1e-12
DEGENERACY_TOL = 1e-11
PIN_TOL = 1e-8
TOP_DEGENERACY_TOL = 1e-9
UNIT_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class SchmidtDecomposition(NamedTuple):
    """Schmidt data of a bipartite pure state.

    coefficients : (d,) float array
        Squared singular values of the amplitude matrix, descending,
        summing to 1.
    left_basis, right_basis : unitary arrays
        Columns map the computational basis to the Schmidt bases; the state
        reconstructs as sum_i sqrt(coefficients[i]) * left[:, i] kron
        right[:, i].
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of the given arrays, first argument most significant."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _dims_for(size: int, dims: Sequence[int] | None) -> tuple[int, ...]:
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if int(np.prod(dims)) != size:
            raise ValueError(f"dims {dims} do not multiply to size {size}")
        return dims
    n = int(round(np.log2(size)))
    if 2**n != size:
        raise ValueError(f"size {size} is not a power of two; pass dims explicitly")
    return (2,) * n


def assert_density_matrix(rho: np.ndarray, atol: float = STRUCTURAL_TOL) -> None:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.allclose(rho, rho.conj().T, atol=1e-12):
        raise ValueError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(rho).real - 1.0) > NORM_TOL:
        raise ValueError("density matrix trace differs from 1 beyond 1e-12")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -atol:
        raise ValueError(f"density matrix has eigenvalue {evals.min():.3e} < -{atol}")


def clip_unit(value, what: str):
    """Clip probabilities or fidelities that rounding carried past [0, 1].

    An excess of at most UNIT_TOL is rounding and is clipped; a larger one
    (or NaN) means the inputs were invalid, and raises ArithmeticError.
    Applies elementwise to an array; a scalar gives a float.
    """
    arr = np.asarray(value, dtype=float)
    inside = (arr >= -UNIT_TOL) & (arr <= 1.0 + UNIT_TOL)
    if not inside.all():
        bad = float(arr[~inside].flat[0])
        raise ArithmeticError(f"{what} {bad!r} lies outside [0, 1] beyond {UNIT_TOL}")
    arr = np.clip(arr, 0.0, 1.0)
    return float(arr) if arr.ndim == 0 else arr


def assert_pure_state(psi: np.ndarray) -> None:
    """Validate normalization of a pure-state vector."""
    nrm = np.linalg.norm(np.asarray(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError("pure state norm differs from 1 beyond 1e-12")


def partial_trace(
    rho: np.ndarray, keep: Sequence[int], dims: Sequence[int] | None = None
) -> np.ndarray:
    """Reduced state on the subsystems listed in ``keep``.

    Parameters
    ----------
    rho : square complex array
    keep : indices of the subsystems to keep, in their original order
    dims : per-subsystem dimensions; defaults to an all-qubit register
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _dims_for(rho.shape[0], dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError(f"unknown subsystem label in {keep} for {n} subsystems")
    traced = [i for i in range(n) if i not in keep]
    t = rho.reshape(dims + dims)
    for i in reversed(traced):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def permute_subsystems(
    state: np.ndarray, perm: Sequence[int], dims: Sequence[int] | None = None
) -> np.ndarray:
    """Reorder subsystems of a vector or density matrix.

    ``perm[new_position] = old_position``: the subsystem found at
    ``perm[i]`` in the input becomes subsystem ``i`` of the output.
    """
    state = np.asarray(state, dtype=complex)
    dims = _dims_for(state.shape[0], dims)
    n = len(dims)
    perm = list(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    new_dims = [dims[p] for p in perm]
    if state.ndim == 1:
        t = state.reshape(dims).transpose(perm)
        return t.reshape(-1)
    t = state.reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    d = int(np.prod(new_dims))
    return t.reshape(d, d)


def _canonical_span(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(basis) built from the coordinate axes.

    Projects e_0, e_1, ... onto the span in index order and keeps each
    projection that survives Gram-Schmidt against the earlier ones, so the
    result depends only on the span, not on the columns given for it.
    """
    proj = basis @ basis.conj().T
    out = []
    for axis in range(proj.shape[0]):
        v = proj[:, axis].copy()
        for _ in range(2):
            for u in out:
                v -= u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > PIN_TOL:
            out.append(v / norm)
            if len(out) == basis.shape[1]:
                break
    if len(out) != basis.shape[1]:
        raise ArithmeticError("could not complete a canonical basis")
    return np.stack(out, axis=1)


def _pin_block(basis: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Unitary W that brings the columns of ``basis @ W`` closest to ``reference``.

    W is the polar factor of basis^dagger reference, which maximizes
    Re tr(reference^dagger basis W) and varies continuously while that
    overlap has full rank. Reference directions the span does not reach
    (singular values below PIN_TOL) are matched, in index order, to the
    canonical basis of the leftover span. The result depends only on the
    span of ``basis``; it is deterministic, and continuous away from the
    thresholds: the matched rank flips where an overlap singular value
    crosses PIN_TOL, and ``_canonical_span`` switches axes where a
    projection norm does.
    """
    u, s, vh = np.linalg.svd(basis.conj().T @ reference)
    r = int(np.sum(s > PIN_TOL))
    w = u[:, :r] @ vh[:r]
    if r < s.size:
        leftover = _canonical_span(basis @ u[:, r:])
        unmatched = _canonical_span(vh[r:].conj().T)
        w = w + (basis.conj().T @ leftover) @ unmatched.conj().T
    return w


def _fix_degenerate_gauge(
    s: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    ref_left: np.ndarray | None = None,
    ref_right: np.ndarray | None = None,
) -> None:
    """Pin the SVD bases on blocks of (numerically) equal singular values.

    Equal singular values leave the bases free up to a shared unitary W on
    the block (left -> left W, right -> right conj(W)); a single value
    leaves a phase. LAPACK's choice jumps under ulp-level input changes.
    Each block is rotated in place so its left columns come as close as
    possible to the same columns of ``ref_left`` (the polar-factor pin of
    ``_pin_block``); the reference defaults to the identity, the
    computational basis. Columns past the last nonzero singular value carry
    no amplitude, so there the left and right bases are pinned
    independently, to ``ref_left`` and ``ref_right``. Rank-deficient
    overlaps are completed from the coordinate axes, so the gauge is
    deterministic, and continuous in the input away from PIN_TOL.
    """
    if ref_left is None:
        ref_left = np.eye(left.shape[0])
    if ref_right is None:
        ref_right = np.eye(right.shape[0])
    nonzero = int(np.sum(s >= DEGENERACY_TOL))
    i = 0
    while i < nonzero:
        j = i + 1
        while j < nonzero and s[i] - s[j] < DEGENERACY_TOL:
            j += 1
        w = _pin_block(left[:, i:j], ref_left[:, i:j])
        left[:, i:j] = left[:, i:j] @ w
        right[:, i:j] = right[:, i:j] @ w.conj()
        i = j
    for basis, ref in ((left, ref_left), (right, ref_right)):
        if nonzero < basis.shape[1]:
            basis[:, nonzero:] = basis[:, nonzero:] @ _pin_block(
                basis[:, nonzero:], ref[:, nonzero:]
            )


def schmidt_decompose(
    psi: np.ndarray,
    dim_left: int,
    dim_right: int,
    reference: tuple | None = None,
) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite pure state across the A|B cut.

    Returns squared singular values (descending, summing to 1) and the
    unitary left/right basis matrices, with the gauge of
    ``_fix_degenerate_gauge`` pinned to the frame ``reference`` =
    (ref_left, ref_right), by default the computational basis.
    Reconstruction error is below 1e-10:
    psi = sum_i sqrt(lambda_i) left[:, i] kron right[:, i].
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != dim_left * dim_right:
        raise ValueError("state size does not match the requested bipartition")
    assert_pure_state(psi)
    m = psi.reshape(dim_left, dim_right)
    u, s, vh = np.linalg.svd(m)
    # numpy returns singular values descending already
    left, right = u.copy(), vh.T.copy()
    _fix_degenerate_gauge(s, left, right, *(reference or ()))
    coeffs = s**2
    coeffs = coeffs / coeffs.sum()
    return SchmidtDecomposition(coeffs, left, right)


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Overlap fidelity <target| rho |target> for a pure target, in [0, 1].

    Rounding past [0, 1] is clipped by ``clip_unit``, which raises beyond it.
    """
    rho = np.asarray(rho, dtype=complex)
    target = np.asarray(target, dtype=complex).reshape(-1)
    if rho.shape != (target.size, target.size):
        raise ValueError("state and target dimensions do not match")
    return clip_unit((target.conj() @ rho @ target).real, "fidelity")


def top_eigenstate(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a density matrix.

    If the top eigenvalue is degenerate within TOP_DEGENERACY_TOL the
    eigenvector with the largest overlap onto the uniform-diagonal reference
    (the maximally entangled diagonal for square dimensions) is chosen and a
    RuntimeWarning is raised. The returned vector's largest-magnitude
    amplitude is phase-fixed to be real positive.
    """
    rho = np.asarray(rho, dtype=complex)
    evals, evecs = np.linalg.eigh(rho)
    top = evals[-1]
    degenerate = np.nonzero(evals > top - TOP_DEGENERACY_TOL)[0]
    vec = evecs[:, degenerate[-1]]
    if len(degenerate) > 1:
        warnings.warn(
            f"top eigenvalue degenerate within {TOP_DEGENERACY_TOL}: "
            f"{evals[degenerate]}",
            RuntimeWarning,
            stacklevel=2,
        )
        d = rho.shape[0]
        s = int(round(np.sqrt(d)))
        ref = np.zeros(d, dtype=complex)
        if s * s == d:
            ref[:: s + 1] = 1.0 / np.sqrt(s)
        else:
            ref[0] = 1.0
        sub = evecs[:, degenerate]
        coords = sub.conj().T @ ref
        if np.linalg.norm(coords) > 1e-6:
            candidate = sub @ (coords / np.linalg.norm(coords))
            if np.linalg.norm(rho @ candidate - top * candidate) <= STRUCTURAL_TOL:
                vec = candidate
            else:
                vec = sub[:, int(np.argmax(np.abs(coords)))]
        else:
            vec = sub[:, int(np.argmax(np.abs(coords)))]
    phase = vec[int(np.argmax(np.abs(vec)))]
    vec = vec * (phase.conj() / abs(phase))
    resid = np.linalg.norm(rho @ vec - top * vec)
    if resid > STRUCTURAL_TOL:
        raise ArithmeticError(f"eigenpair residual {resid:.3e} exceeds 1e-10")
    return float(top.real), vec


def apply_channel(
    rho: np.ndarray,
    kraus: Sequence[np.ndarray],
    on: int | Sequence[int],
    dims: Sequence[int] | None = None,
) -> np.ndarray:
    """Apply a Kraus channel to the subsystem(s) ``on`` of a density matrix.

    The Kraus set must be complete (sum K^dag K = I within 1e-10) on the
    target subsystem; trace and positivity are preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _dims_for(rho.shape[0], dims)
    targets = [int(on)] if np.isscalar(on) else [int(q) for q in on]
    d_t = int(np.prod([dims[q] for q in targets]))
    comp = sum(np.asarray(k, dtype=complex).conj().T @ np.asarray(k, dtype=complex) for k in kraus)
    if not np.allclose(comp, np.eye(d_t), atol=STRUCTURAL_TOL):
        raise ValueError("Kraus set is not complete within 1e-10")
    n = len(dims)
    rest = [i for i in range(n) if i not in targets]
    perm = targets + rest
    inv = np.argsort(perm)
    moved = permute_subsystems(rho, perm, dims)
    d_r = moved.shape[0] // d_t
    m4 = moved.reshape(d_t, d_r, d_t, d_r)
    out = np.zeros_like(m4)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        out += np.einsum("ab,bicj,dc->aidj", k, m4, k.conj())
    out = out.reshape(moved.shape)
    new_dims = [dims[p] for p in perm]
    return permute_subsystems(out, list(inv), new_dims)
