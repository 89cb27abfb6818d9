"""Dense complex linear algebra and quantum-state primitives.

States are plain numpy arrays. A pure state on subsystems with dimensions
``dims = (d_0, d_1, ...)`` is a complex vector of length ``prod(dims)`` whose
index runs over the subsystem indices with the FIRST listed subsystem most
significant (big-endian), matching the semantics of ``numpy.kron``. Density
matrices are square complex arrays over the same index.

Multi-qubit registers follow the layout convention

    [Alice data qubits ..., Alice auxiliary, Bob data qubits ...]

and all bipartite cuts separate Alice's block from Bob's block.

Tolerances
----------
Every cutoff the package decides with is one entry of this table, one name
per role; no other module writes a tolerance literal. Values compared are
unit-scale (probabilities, Schmidt coefficients, entries of states and of
doubly-stochastic matrices), eps = 2.2e-16 is the float64 machine epsilon
and u = eps / 2 the unit roundoff (Higham, Accuracy and Stability of
Numerical Algorithms, 2002). Each entry is pinned by an edge test in
``tests/test_tolerances.py``, an input just inside and one just outside,
that fails when the entry is scaled by 10 or by 0.1
(``scripts/tolerance_sweep.py`` checks this).

ZERO_TOL = 1e-15
    Separates a zero entry of a Birkhoff peel from a positive one, and
    bottlenecks that tie from ones that differ (``majorize``: the peel,
    both matchings, and the t vs 1 - t tie that sends a step of
    ``step_terms`` to its closed form). Derived: about 4.5 eps, the rounding
    of the one subtraction x - q that leaves an entry. Test: TestZeroTol.
WEIGHT_TOL = 1e-14
    Separates a zero weight from a positive one: a target's Schmidt
    coefficient in the package's one rank rule (``vidal_probability``;
    positions past that rank impose nothing), a branch weight in
    ``execute_round``, a filter weight in ``execute_filter``;
    ``embed_povm`` takes its reflection's limit where |v| is below it
    (|v|^2 below its square). Derived: 64 u = 7e-15, the rounding of a sum
    of 64 unit-scale terms (the diagonal of a catalytic run's 64-dim
    state), rounded up. Test: TestWeightTol.
RESIDUAL_TOL = 1e-13
    Separates a greedy decomposition that is done from one that is not: the
    T-transform chain has reached its target, the Birkhoff peel stops, and
    ``step_terms``' closed form drops the swap term. ``birkhoff_decompose`` accepts row and column sums
    within RESIDUAL_TOL / (2d) of 1, and entries down to minus that: by
    Koenig's theorem a sum error delta leaves at most 2 d delta in one entry
    once no positive matching remains, which must fall below the stop (the
    bound leaves out entries zeroed below ZERO_TOL; perturbed mixtures at
    d <= 8 that pass the check all decompose). Derived: the chain and the
    peel take up to (d - 1)^2 + 1 = 50 steps at d = 8, each rounding an
    entry by u: 50 u = 5.6e-15, with a factor of about 20 to spare.
    Test: TestResidualTol.
UNIT_TOL = 1e-12
    Separates rounding from a real excess in one unit-scale result: a
    probability or fidelity past [0, 1] (``clip_unit``), a state's norm,
    trace or Hermiticity, a Schmidt entry below 0 and majorization's prefix
    sums, the noise weights' sums, fold weights that agree
    (``fold_ttransforms``), POVM images that coincide, POVM entries past
    [0, 1], the supports of a round and of the final filter, and with them a
    source's Schmidt coefficient in the rank rule (the source side, so no
    coefficient below the supports serves a target's), the score ties of
    both searches, a Clifford's first nonzero entry, and in the CLI an
    all-zero weight vector and equal axis values.
    Derived: policy, about 4500 eps; such a result is at most a few hundred
    operations from its inputs (a 64-dim trace, a Vidal ratio), so its
    rounding is under 1e-13, and the paper's values differ in the fourth to
    sixth digit. Test: TestUnitTol.
DEGENERACY_TOL = 1e-11
    Separates singular values that form one gauge block from distinct
    ones, and a nonzero one from zero (``_gauge_blocks``). Derived: policy,
    about 5000 times the SVD's absolute error d eps |psi| = 1.8e-15 at
    d = 8, so inputs a few ulps apart share their blocks.
    Test: TestDegeneracyTol.
STRUCTURAL_TOL = 1e-10
    Separates an identity exact in exact arithmetic from a broken one:
    Kraus completeness (``apply_channel``), POVM completeness, a state's
    smallest eigenvalue, an eigenpair residual, the T-transform chain's
    reconstruction, the auxiliary register's population outside |0...0>,
    a filter entry's square past 1 and a distillation gate's unitarity.
    Derived: policy; each check follows O(d^2) unit-scale operations on at
    most 64 dimensions, whose rounding stays below 64^2 u = 4.5e-13, with a
    factor of 200 to spare.
    Test: TestStructuralTol.
TOP_DEGENERACY_TOL = 1e-9
    Separates a degenerate top eigenvalue of a state from a simple one
    (``top_eigenstate``). Derived: policy; eigh's error on a pair state is
    about 4 eps, and eigenvalues equal for parameters written to nine
    digits (INPUT_TOL) must count as equal. Test: TestTopDegeneracyTol.
INPUT_TOL = 1e-9
    Separates a caller's number that is right to its written precision
    from a wrong one: a Schmidt vector's sum and order (``majorize``), a
    CLI range's step count. Derived: policy, numbers written to nine
    significant digits. Test: TestInputTol.
MIN_ACCEPTANCE = 1e-9
    Separates a distillation plan worth running from one that accepts too
    rarely (``run_distillation`` raises, ``optimize_distillation`` skips
    it). Derived: policy. Test: TestMinAcceptance.
PIN_TOL = 1e-8
    Separates an overlap or projection the gauge pin can use from one too
    weak to (the Schmidt gauge, ``_canonical_span``, the degenerate
    surrogate). Derived: sqrt(eps) = 1.5e-8; rounding moves the polar
    factor of an overlap with smallest singular value s by about eps / s,
    which stays below s only for s above sqrt(eps). Test: TestPinTol.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

# The tolerance table, described in the module docstring.
ZERO_TOL = 1e-15
WEIGHT_TOL = 1e-14
RESIDUAL_TOL = 1e-13
UNIT_TOL = 1e-12
DEGENERACY_TOL = 1e-11
STRUCTURAL_TOL = 1e-10
TOP_DEGENERACY_TOL = 1e-9
INPUT_TOL = 1e-9
MIN_ACCEPTANCE = 1e-9
PIN_TOL = 1e-8

# Entries kept by every memo of the package: ``locc.compile_schedule``'s
# three, ``protocols.find_catalyst``'s, the pair checks and surrogates of
# ``protocols`` and the Birkhoff support rules of ``majorize``. One p_d grid
# of 22 points (0 to 0.1 in steps of 0.01) at a = 0 and 0.1 has 28 distinct
# compile inputs, 22 planned pairs and 14 catalyst inputs, so the grid swept
# again, or at each of several p_g, plans nothing twice; 800
# seeded ``compile-grid`` draws (3,200 NEC, CEC and random inputs, each at
# g = 1, 2, 3) meet only 23 support patterns in all.
_MEMO_SIZE = 32

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
    """Kronecker product of arrays of one rank, first argument most significant.

    One broadcast product per factor; each entry is the single product
    a[i] b[j], so the result is bit-equal to ``np.kron``.
    """
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        r = out.ndim
        if op.ndim != r:
            raise ValueError(f"tensor operands of rank {r} and {op.ndim}")
        shape = [m * n for m, n in zip(out.shape, op.shape)]
        out = (out[(slice(None), None) * r] * op[(None, slice(None)) * r]).reshape(shape)
    return out


def _dims_for(size: int) -> tuple[int, ...]:
    """Qubit dimensions (2, 2, ...) of a register whose size is a power of two."""
    n = int(size).bit_length() - 1
    if 2**n != size:
        raise ValueError(f"size {size} is not a power of two")
    return (2,) * n


def _are_permutations(perms, d: int) -> bool:
    """True iff each of ``perms`` has shape (d,) and its raw values sort to range(d).

    An array ``perms`` has its shape checked once, not row by row.
    """
    if isinstance(perms, np.ndarray):
        shaped = perms.shape[1:] == (d,)
    else:
        shaped = all(np.shape(p) == (d,) for p in perms)
    return shaped and (np.sort(perms, axis=-1) == np.arange(d)).all()


def _check_probability(value, name: str) -> None:
    """Raise ValueError unless ``value`` lies in [0, 1]; a NaN fails."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def assert_density_matrix(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace and positivity of a density matrix.

    Hermiticity and the trace are held to UNIT_TOL absolute, every entry
    of rho - rho^dagger included; a NaN fails. Eigenvalues down to
    -STRUCTURAL_TOL count as nonnegative.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not abs(rho - rho.conj().T).max() <= UNIT_TOL:
        raise ValueError(f"density matrix is not Hermitian within {UNIT_TOL}")
    if abs(np.trace(rho).real - 1.0) > UNIT_TOL:
        raise ValueError(f"density matrix trace differs from 1 beyond {UNIT_TOL}")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -STRUCTURAL_TOL:
        raise ValueError(f"density matrix has eigenvalue {evals.min():.3e} < {-STRUCTURAL_TOL}")


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
    arr = arr.clip(0.0, 1.0)
    return float(arr) if arr.ndim == 0 else arr


def assert_pure_state(psi: np.ndarray) -> None:
    """Validate the norm of a pure-state vector to UNIT_TOL; a NaN or inf entry fails it."""
    nrm = np.linalg.norm(np.asarray(psi))
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise ValueError(f"pure state norm differs from 1 beyond {UNIT_TOL}")


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced state of a qubit register on the qubits listed in ``keep``.

    Each traced qubit, last first, is summed out as its two diagonal slices
    t[.., 0, .., 0, ..] + t[.., 1, .., 1, ..]. That is ``np.trace``'s sum
    but for its start at +0.0, which only turns a zero sum of -0.0 entries
    into +0.0; one + 0.0 at the end does that for every traced qubit, so
    the result is bit-equal to the sequential ``np.trace`` loop.

    Parameters
    ----------
    rho : square complex array
    keep : indices of the qubits to keep, in their original order
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _dims_for(rho.shape[0])
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError(f"unknown subsystem label in {keep} for {n} subsystems")
    traced = [i for i in range(n) if i not in keep]
    t = rho.reshape(dims + dims)
    for i in reversed(traced):
        gap = (slice(None),) * (t.ndim // 2 - 1)
        t = t[(slice(None),) * i + (0,) + gap + (0,)] + t[(slice(None),) * i + (1,) + gap + (1,)]
    if traced:
        t = t + 0.0
    return t.reshape(2 ** len(keep), 2 ** len(keep))


def permute_subsystems(state: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder the qubits of a vector or density matrix.

    ``perm[new_position] = old_position``: the qubit found at ``perm[i]``
    in the input becomes qubit ``i`` of the output. ``perm`` is checked
    as given, before any cast to int: [1.7, 0.2] raises ValueError.
    """
    state = np.asarray(state, dtype=complex)
    dims = _dims_for(state.shape[0])
    n = len(dims)
    if not _are_permutations([perm], n):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    perm = [int(p) for p in perm]
    if state.ndim == 1:
        t = state.reshape(dims).transpose(perm)
        return t.reshape(-1)
    t = state.reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    return t.reshape(state.shape)


def _canonical_span(basis: np.ndarray) -> np.ndarray:
    """Coordinates Q of the canonical orthonormal basis ``basis @ Q`` of span(basis).

    ``basis`` has orthonormal columns. The canonical basis projects e_0,
    e_1, ... onto the span in index order and keeps each projection that
    survives Gram-Schmidt against the earlier ones, so it depends only on
    the span, not on the columns given for it. The work is done in the
    span's coordinates, where axis j projects to column j of
    conj(basis)^T: all axes after the last kept one are orthogonalized at
    once, twice, against the matrix of the kept vectors, and the first
    whose remainder is longer than PIN_TOL is kept next. Q is unitary; for
    a line it is the phase that makes the first entry above PIN_TOL real.
    """
    k = basis.shape[1]
    rest = basis.conj().T
    kept = np.empty((k, k), dtype=complex)
    kept_h = np.empty((k, k), dtype=complex)  # rows: conj(kept) columns
    for found in range(k):
        if found:
            q, q_h = kept[:, :found], kept_h[:found]
            rest = rest - q @ (q_h @ rest)
            rest = rest - q @ (q_h @ rest)
        norm2 = np.vecdot(rest, rest, axis=0).real
        j = int((norm2 > PIN_TOL**2).argmax()) if norm2.size else 0
        if j >= norm2.size or not norm2[j] > PIN_TOL**2:
            raise ArithmeticError("could not complete a canonical basis")
        kept[:, found] = rest[:, j] / math.sqrt(norm2[j])
        kept_h[found] = kept[:, found].conj()
        rest = rest[:, j + 1 :]
    return kept


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
    r = int(np.count_nonzero(s > PIN_TOL))
    w = u[:, :r] @ vh[:r]
    if r < s.size:
        leftover = _canonical_span(basis @ u[:, r:])
        unmatched = _canonical_span(vh[r:].conj().T)
        w = w + u[:, r:] @ (leftover @ unmatched.conj().T) @ vh[r:]
    return w


def _gauge_blocks(s: np.ndarray) -> list[tuple[int, int]]:
    """Blocks [i, j) of numerically equal nonzero singular values.

    A block runs from its first value s[i] while s[i] - s[j] stays below
    DEGENERACY_TOL; values below DEGENERACY_TOL are in no block.
    """
    vals = s.tolist()
    nonzero = sum(v >= DEGENERACY_TOL for v in vals)
    blocks = []
    i = 0
    while i < nonzero:
        j = i + 1
        while j < nonzero and vals[i] - vals[j] < DEGENERACY_TOL:
            j += 1
        blocks.append((i, j))
        i = j
    return blocks


def _fix_degenerate_gauge(
    s: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    reference: tuple | None = None,
) -> None:
    """Pin the SVD bases in place on blocks of (numerically) equal singular values.

    Equal singular values leave the bases free up to a shared unitary W on
    the block (left -> left W, right -> right conj(W)); a single value
    leaves a phase. LAPACK's choice jumps under ulp-level input changes.
    Each block is rotated in place so its left columns come as close as
    possible to the same columns of ref_left, from ``reference`` =
    (ref_left, ref_right) (the polar-factor pin of ``_pin_block``); the
    reference defaults to the identity, the computational basis. All
    single-value blocks are pinned in one pass by their 1x1 polar factor
    z/|z|, z the overlap of the column with its reference column; one with
    |z| <= PIN_TOL, and every larger block, goes through ``_pin_block``.
    Columns past the last nonzero singular value carry no amplitude, so
    there the left and right bases are pinned independently, to ref_left
    and ref_right. Rank-deficient overlaps are completed from the
    coordinate axes, so the gauge is deterministic, and continuous in the
    input away from PIN_TOL.
    """
    ref_left, ref_right = reference or (np.eye(left.shape[0]), np.eye(right.shape[0]))
    blocks = _gauge_blocks(s)
    singles = [i for i, j in blocks if j == i + 1]
    pinned = set()
    if singles:
        z = np.vecdot(left[:, singles], ref_left[:, singles], axis=0)
        mag = np.abs(z)
        matched = mag > PIN_TOL
        phase = np.divide(z, mag, out=np.ones_like(z), where=matched)
        left[:, singles] *= phase
        right[:, singles] *= phase.conj()
        pinned = {i for i, ok in zip(singles, matched.tolist()) if ok}
    for i, j in blocks:
        if i not in pinned:
            w = _pin_block(left[:, i:j], ref_left[:, i:j])
            left[:, i:j] = left[:, i:j] @ w
            right[:, i:j] = right[:, i:j] @ w.conj()
    nonzero = blocks[-1][1] if blocks else 0
    for basis, ref in ((left, ref_left), (right, ref_right)):
        if nonzero < basis.shape[1]:
            w = _pin_block(basis[:, nonzero:], ref[:, nonzero:])
            basis[:, nonzero:] = basis[:, nonzero:] @ w


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
    Reconstruction error is below STRUCTURAL_TOL:
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
    _fix_degenerate_gauge(s, left, right, reference)
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

    A simple top eigenvalue gives its eigenvector, phased so that the
    largest-magnitude amplitude is real positive. A top eigenvalue
    degenerate within TOP_DEGENERACY_TOL raises a RuntimeWarning, and the
    vector and its phase depend on the eigenspace alone: the normalized
    projection of the uniform-diagonal reference (Phi+ for 4x4, none for a
    non-square size) if its norm exceeds PIN_TOL, else the first vector of
    ``_canonical_span`` (shared with the Schmidt gauge pin), the
    normalized projection of the first coordinate axis the span reaches.
    """
    rho = np.asarray(rho, dtype=complex)
    evals, evecs = np.linalg.eigh(rho)
    top = evals[-1]
    degenerate = np.nonzero(evals > top - TOP_DEGENERACY_TOL)[0]
    if len(degenerate) > 1:
        warnings.warn(
            f"top eigenvalue degenerate within {TOP_DEGENERACY_TOL}: {evals[degenerate]}",
            RuntimeWarning, stacklevel=2,
        )
        d = rho.shape[0]
        s = math.isqrt(d)
        ref = np.eye(s).ravel() / np.sqrt(s) if s * s == d else np.zeros(d)
        sub = evecs[:, degenerate]
        coords = sub.conj().T @ ref
        norm = np.linalg.norm(coords)
        vec = sub @ (coords / norm if norm > PIN_TOL else _canonical_span(sub)[:, 0])
    else:
        phase = evecs[int(np.argmax(np.abs(evecs[:, -1]))), -1]
        vec = evecs[:, -1] * (phase.conj() / abs(phase))
    resid = np.linalg.norm(rho @ vec - top * vec)
    if resid > STRUCTURAL_TOL:
        raise ArithmeticError(f"eigenpair residual {resid:.3e} exceeds {STRUCTURAL_TOL}")
    return float(top.real), vec


def apply_channel(
    rho: np.ndarray, kraus: Sequence[np.ndarray], on: int | Sequence[int]
) -> np.ndarray:
    """Apply a Kraus channel to the qubit(s) ``on`` of a density matrix.

    The Kraus set must be complete on the target qubits: every entry of
    sum K^dag K - I within STRUCTURAL_TOL. Trace and positivity are
    preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    n = len(_dims_for(rho.shape[0]))
    targets = [int(on)] if np.isscalar(on) else [int(q) for q in on]
    d_t = 2 ** len(targets)
    comp = sum(np.asarray(k, dtype=complex).conj().T @ np.asarray(k, dtype=complex) for k in kraus)
    if not abs(comp - np.eye(d_t)).max() <= STRUCTURAL_TOL:
        raise ValueError(f"Kraus set is not complete within {STRUCTURAL_TOL}")
    perm = targets + [i for i in range(n) if i not in targets]
    moved = permute_subsystems(rho, perm)
    d_r = moved.shape[0] // d_t
    m4 = moved.reshape(d_t, d_r, d_t, d_r)
    out = np.zeros_like(m4)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        out += np.einsum("ab,bicj,dc->aidj", k, m4, k.conj())
    return permute_subsystems(out.reshape(moved.shape), list(np.argsort(perm)))
