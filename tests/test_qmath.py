"""Unit tests for the linear-algebra and quantum-state primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_bipartite, random_pure_state

import entconc.qmath as qmath

from entconc import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    NoiseParams,
    apply_channel,
    assert_density_matrix,
    assert_pure_state,
    coherent_state,
    depolarize,
    fidelity,
    partial_trace,
    permute_subsystems,
    prepare_state,
    schmidt_decompose,
    tensor,
    top_eigenstate,
)


class TestTensor:
    def test_identity(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        got = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_pauli_action_on_bell(self):
        out = tensor(PAULI_Z, PAULI_X) @ PHI_PLUS
        overlap = abs(np.vdot(PSI_MINUS, out))
        assert abs(overlap - 1.0) < 1e-12

    @pytest.mark.parametrize("shape", [(4,), (3,), (4, 4), (2, 3)])
    @pytest.mark.parametrize("factors", [2, 3])
    def test_bit_equal_to_chained_kron(self, shape, factors):
        rng = np.random.default_rng(factors)
        ops = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(factors)]
        ref = ops[0]
        for op in ops[1:]:
            ref = np.kron(ref, op)
        assert tensor(*ops).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    @pytest.mark.parametrize("factors", [2, 3])
    def test_never_calls_np_kron(self, monkeypatch, shape, factors):
        rng = np.random.default_rng(factors)
        ops = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(factors)]
        ref = ops[0]
        for op in ops[1:]:
            ref = np.kron(ref, op)

        def no_kron(*args):
            raise AssertionError("tensor called np.kron")

        monkeypatch.setattr(np, "kron", no_kron)
        assert tensor(*ops).tobytes() == ref.tobytes()

    def test_unequal_rank_raises(self):
        with pytest.raises(ValueError, match="rank"):
            tensor(np.ones(2), np.eye(2))


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert np.allclose(partial_trace(rho, keep=[0]), np.eye(2) / 2)
        assert np.allclose(partial_trace(rho, keep=[1]), np.eye(2) / 2)

    def test_keep_everything(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert np.allclose(partial_trace(rho, keep=[0, 1]), rho)

    def test_mixture_reduction(self):
        p = 0.3
        zero = np.zeros(4)
        zero[0] = 1.0
        rho = (1 - p) * np.outer(PHI_PLUS, PHI_PLUS.conj()) + p * np.outer(zero, zero)
        reduced = partial_trace(rho, keep=[0])
        assert np.allclose(reduced, np.diag([(1 + p) / 2, (1 - p) / 2]))

    def test_product_state_recovery(self, rng):
        rho_a = np.diag([0.6, 0.4]).astype(complex)
        psi = random_pure_state(rng, 2)
        rho_b = np.outer(psi, psi.conj())
        joint = tensor(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, keep=[0]), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(joint, keep=[1]), rho_b, atol=1e-12)

    def test_unknown_label(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        with pytest.raises(ValueError):
            partial_trace(rho, keep=[5])


class TestPermuteSubsystems:
    def test_swap_vector(self):
        psi = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        swapped = permute_subsystems(psi, [1, 0])
        assert np.allclose(swapped, np.kron(np.array([0.0, 1.0]), np.array([1.0, 0.0])))

    def test_roundtrip_matrix(self, rng):
        psi = random_pure_state(rng, 8)
        rho = np.outer(psi, psi.conj())
        back = permute_subsystems(permute_subsystems(rho, [2, 0, 1]), [1, 2, 0])
        assert np.allclose(back, rho, atol=1e-12)


class TestSchmidtDecompose:
    def test_bell(self):
        dec = schmidt_decompose(PHI_PLUS, 2, 2)
        assert np.allclose(dec.coefficients, [0.5, 0.5], atol=1e-12)

    def test_product(self):
        psi = np.zeros(4)
        psi[0] = 1.0
        dec = schmidt_decompose(psi, 2, 2)
        assert np.allclose(dec.coefficients, [1.0, 0.0], atol=1e-12)

    def test_coherent_state_matches_svd(self):
        psi = coherent_state(0.2)
        dec = schmidt_decompose(psi, 2, 2)
        s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        assert np.allclose(dec.coefficients, s**2, atol=1e-12)

    @pytest.mark.parametrize("d_l,d_r", [(2, 2), (2, 4), (4, 2), (4, 4)])
    def test_reconstruction(self, rng, d_l, d_r):
        for _ in range(20):
            psi = random_bipartite(rng, d_l, d_r)
            dec = schmidt_decompose(psi, d_l, d_r)
            rec = np.zeros(d_l * d_r, dtype=complex)
            for i, c in enumerate(dec.coefficients):
                rec += np.sqrt(c) * np.kron(dec.left_basis[:, i], dec.right_basis[:, i])
            assert np.max(np.abs(rec - psi)) < 1e-10
            assert np.all(np.diff(dec.coefficients) <= 1e-12)
            assert abs(dec.coefficients.sum() - 1.0) < 1e-12

    def test_degenerate_gauge_is_pinned(self):
        # maximally entangled states have fully degenerate coefficients; the
        # decomposition must come out in the same frame for ulp-perturbed
        # inputs instead of inheriting LAPACK's arbitrary subspace basis
        dec = schmidt_decompose(PHI_PLUS, 2, 2)
        assert np.allclose(dec.left_basis, np.eye(2), atol=1e-9)
        bump = PHI_PLUS + np.array([1e-15, 0, 0, -1e-15])
        bump = bump / np.linalg.norm(bump)
        dec2 = schmidt_decompose(bump, 2, 2)
        assert np.max(np.abs(dec2.left_basis - dec.left_basis)) < 1e-6

    def test_rank_deficient_gauge_is_pinned(self, rng):
        # a Bell pair on the leading qubit of each 2-qubit register: neither
        # the (1/2, 1/2) block nor the zero block spans the computational
        # columns at its own indices, so the pin completes them from the
        # coordinate axes, deterministically
        amp = np.zeros((4, 4))
        amp[0, 0] = amp[2, 2] = np.sqrt(0.5)
        dec = schmidt_decompose(amp.ravel(), 4, 4)
        frame = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.allclose(dec.left_basis, frame, atol=1e-12)
        assert np.allclose(dec.right_basis, frame, atol=1e-12)
        for _ in range(5):
            noise = rng.normal(size=16) + 1j * rng.normal(size=16)
            bump = amp.ravel() + 1e-15 * noise
            dec2 = schmidt_decompose(bump / np.linalg.norm(bump), 4, 4)
            assert np.max(np.abs(dec2.left_basis - frame)) < 1e-12
            assert np.max(np.abs(dec2.right_basis - frame)) < 1e-12

    def test_pin_to_reference_frame(self, rng):
        psi = (np.eye(4) / 2).ravel()
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ref, _ = np.linalg.qr(raw)
        pinned = schmidt_decompose(psi, 4, 4, (ref, ref.conj()))
        assert np.allclose(pinned.left_basis, ref, atol=1e-12)
        assert np.allclose(pinned.right_basis, ref.conj(), atol=1e-12)
        rec = sum(
            np.sqrt(c) * np.kron(pinned.left_basis[:, i], pinned.right_basis[:, i])
            for i, c in enumerate(pinned.coefficients)
        )
        assert np.max(np.abs(rec - psi)) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            schmidt_decompose(PHI_PLUS, 2, 4)


def reference_canonical_span(basis):
    """Canonical basis of span(basis), one axis and one kept vector at a time.

    The loop form of ``qmath._canonical_span``, which returns the
    coordinates Q of this basis, basis @ Q.
    """
    proj = basis @ basis.conj().T
    out = []
    for axis in range(proj.shape[0]):
        v = proj[:, axis].copy()
        for _ in range(2):
            for u in out:
                v -= u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > qmath.PIN_TOL:
            out.append(v / norm)
            if len(out) == basis.shape[1]:
                break
    if len(out) != basis.shape[1]:
        raise ArithmeticError("could not complete a canonical basis")
    return np.stack(out, axis=1)


def reference_pin_block(basis, reference):
    """Polar-factor pin through an SVD, whatever the block's width."""
    u, s, vh = np.linalg.svd(basis.conj().T @ reference)
    r = int(np.sum(s > qmath.PIN_TOL))
    w = u[:, :r] @ vh[:r]
    if r < s.size:
        leftover = reference_canonical_span(basis @ u[:, r:])
        unmatched = reference_canonical_span(vh[r:].conj().T)
        w = w + (basis.conj().T @ leftover) @ unmatched.conj().T
    return w, r


def reference_gauge(s, left, right, reference=None):
    """The block-by-block loop form of ``qmath._fix_degenerate_gauge``.

    Every block, single values included, is pinned by its own SVD. Returns
    how many pins the one-pass form leaves to ``_pin_block``: every block
    but a single value whose overlap is matched, and the zero columns of
    each side.
    """
    ref_left, ref_right = reference or (np.eye(left.shape[0]), np.eye(right.shape[0]))
    nonzero = int(np.sum(s >= qmath.DEGENERACY_TOL))
    calls = 0
    i = 0
    while i < nonzero:
        j = i + 1
        while j < nonzero and s[i] - s[j] < qmath.DEGENERACY_TOL:
            j += 1
        w, r = reference_pin_block(left[:, i:j], ref_left[:, i:j])
        left[:, i:j] = left[:, i:j] @ w
        right[:, i:j] = right[:, i:j] @ w.conj()
        calls += not (j == i + 1 and r == 1)
        i = j
    for basis, ref in ((left, ref_left), (right, ref_right)):
        if nonzero < basis.shape[1]:
            w, _ = reference_pin_block(basis[:, nonzero:], ref[:, nonzero:])
            basis[:, nonzero:] = basis[:, nonzero:] @ w
            calls += 1
    return calls


def counting_pin_blocks(monkeypatch):
    """List that gets one entry per ``qmath._pin_block`` call from now on."""
    calls = []
    pin = qmath._pin_block
    monkeypatch.setattr(qmath, "_pin_block", lambda *a: calls.append(1) or pin(*a))
    return calls


def random_unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def coordinate_frame(rng, d):
    """Permuted coordinate axes with random phases."""
    return np.eye(d)[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))


def gauge_case(seed, d, pattern, reference):
    """SVD output of a d x d amplitude matrix and a frame to pin it to.

    pattern: "generic" Schmidt coefficients, "repeated" (blocks of equal
    values), "zeros" (a Bell pair padded into d x d, as a padded target),
    or "product" (a product catalyst: two equal pairs times (1, 0)).
    reference: "identity", "random" unitaries, or "near_pin": each left
    reference column turned off its own SVD column towards the next one,
    so that their overlap is PIN_TOL times a factor in [0.3, 0.9] or
    [1.1, 3.3]. The near_pin frames are coordinate-aligned, as padded
    targets and product catalysts make them, so each overlap is one exact
    product: on dense frames an overlap of 1e-8 carries a rounding error of
    about 1e-16, so its phase is fixed only to about 1e-8 in any summation
    order.
    """
    rng = np.random.default_rng(seed)
    if pattern == "zeros":
        coeffs = np.zeros(d)
        coeffs[:2] = 0.5
    elif pattern == "product":
        pair = rng.random(2) + 0.1
        coeffs = np.zeros(d)
        coeffs[: d // 2] = np.repeat(pair / pair.sum(), d // 4 or 1)[: d // 2]
        coeffs /= coeffs.sum()
    else:
        coeffs = rng.random(d) + 0.05
        if pattern == "repeated":
            coeffs[1 : 1 + d // 2] = coeffs[1]
        coeffs /= coeffs.sum()
    if reference == "near_pin" or (pattern in ("zeros", "product") and seed % 2):
        u, v = coordinate_frame(rng, d), coordinate_frame(rng, d)
    else:
        u, v = random_unitary(rng, d), random_unitary(rng, d)
    psi = (u * np.sqrt(coeffs)) @ v.T
    uu, s, vh = np.linalg.svd(psi / np.linalg.norm(psi))
    left, right = uu.copy(), vh.T.copy()
    if reference == "identity":
        return s, left, right, None
    if reference == "random":
        return s, left, right, (random_unitary(rng, d), random_unitary(rng, d))
    factors = rng.uniform(0.3, 0.9, d) * np.where(rng.random(d) < 0.5, 1.0, 11.0 / 3.0)
    c = qmath.PIN_TOL * factors
    turned = c * left + np.sqrt(1.0 - c**2) * np.roll(left, -1, axis=1)
    return s, left, right, (turned * np.exp(2j * np.pi * rng.random(d)), random_unitary(rng, d))


class TestGaugeReference:
    """The one-pass gauge pin agrees with the block-by-block SVD loop."""

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 4, 8]),
        pattern=st.sampled_from(["generic", "repeated", "zeros", "product"]),
        reference=st.sampled_from(["identity", "random", "near_pin"]),
    )
    @example(seed=1, d=4, pattern="zeros", reference="identity")
    @example(seed=1, d=8, pattern="product", reference="random")
    @example(seed=2, d=8, pattern="generic", reference="near_pin")
    def test_matches_loop(self, seed, d, pattern, reference):
        s, left, right, ref = gauge_case(seed, d, pattern, reference)
        want_left, want_right = left.copy(), right.copy()
        want = reference_gauge(s, want_left, want_right, ref)
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_pin_blocks(mp)
            assert qmath._fix_degenerate_gauge(s, left, right, ref) is None
        assert len(calls) == want
        assert np.max(np.abs(left - want_left)) <= 1e-13
        assert np.max(np.abs(right - want_right)) <= 1e-13

    def test_near_pin_overlaps_take_both_paths(self, monkeypatch):
        # the single-value pass pins overlaps above PIN_TOL and leaves the
        # ones below to the canonical completion: 8 single values a seed
        calls = counting_pin_blocks(monkeypatch)
        for seed in range(20):
            qmath._fix_degenerate_gauge(*gauge_case(seed, 8, "generic", "near_pin"))
        assert 0 < len(calls) < 20 * 8

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
    @example(seed=0, k=4)
    def test_canonical_span_matches_loop(self, seed, k):
        rng = np.random.default_rng(seed)
        if seed % 3 == 0:
            basis = np.eye(8, dtype=complex)[:, rng.permutation(8)[:k]]
        else:
            basis = random_unitary(rng, 8)[:, :k]
        got = basis @ qmath._canonical_span(basis)
        assert np.max(np.abs(got - reference_canonical_span(basis))) <= 1e-13

    def test_nondegenerate_source_runs_one_svd(self, rng, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        schmidt_decompose(random_bipartite(rng, 8, 8), 8, 8)
        assert len(calls) == 1


class TestFidelity:
    def test_pure_match(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert abs(fidelity(rho, PHI_PLUS) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(fidelity(np.eye(4) / 4, PHI_PLUS) - 0.25) < 1e-12

    def test_depolarized_bell(self):
        rho = prepare_state(NoiseParams(a=0.0, p_d=0.1))
        assert abs(fidelity(rho, PHI_PLUS) - 0.9) < 1e-12

    def test_local_unitary_invariance(self, rng):
        psi = random_pure_state(rng, 4)
        rho = np.outer(psi, psi.conj())
        target = random_pure_state(rng, 4)
        base = fidelity(rho, target)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        w = tensor(u, v)
        rotated = fidelity(w @ rho @ w.conj().T, w @ target)
        assert abs(rotated - base) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(4) / 4, np.array([1.0, 0.0]))

    def test_rounding_past_one_is_clipped(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj()) * (1.0 + 5e-13)
        assert fidelity(rho, PHI_PLUS) == 1.0

    def test_excess_beyond_rounding_raises(self):
        with pytest.raises(ArithmeticError):
            fidelity(2.0 * np.outer(PHI_PLUS, PHI_PLUS.conj()), PHI_PLUS)


class TestTopEigenstate:
    def test_diagonal(self):
        val, vec = top_eigenstate(np.diag([0.7, 0.3]).astype(complex))
        assert abs(val - 0.7) < 1e-12
        assert abs(abs(vec[0]) - 1.0) < 1e-12

    def test_depolarized_bell(self):
        rho = prepare_state(NoiseParams(a=0.0, p_d=0.05))
        val, vec = top_eigenstate(rho)
        assert abs(val - 0.95) < 1e-12
        assert abs(abs(np.vdot(PHI_PLUS, vec)) - 1.0) < 1e-10

    def test_matches_dense_eigensolver(self):
        rho = prepare_state(NoiseParams(a=0.2, p_d=0.05))
        val, vec = top_eigenstate(rho)
        evals, evecs = np.linalg.eigh(rho)
        assert abs(val - evals[-1]) < 1e-12
        assert abs(abs(np.vdot(evecs[:, -1], vec)) - 1.0) < 1e-10
        assert np.linalg.norm(rho @ vec - val * vec) < 1e-10

    def test_degenerate_flagged(self):
        with pytest.warns(RuntimeWarning):
            val, vec = top_eigenstate(np.eye(4) / 4)
        assert abs(val - 0.25) < 1e-12
        # tie-break picks the maximally entangled diagonal direction
        assert abs(abs(np.vdot(PHI_PLUS, vec)) - 1.0) < 1e-10


def rotate_top_cluster(monkeypatch, seed):
    """Make np.linalg.eigh return its top degenerate cluster in a random basis.

    The columns of the eigenvalues within TOP_DEGENERACY_TOL of the largest
    are rotated by a seeded Haar-random unitary.
    """
    eigh = np.linalg.eigh
    rng = np.random.default_rng(seed)

    def rotated(a):
        evals, evecs = eigh(a)
        top = np.flatnonzero(evals > evals[-1] - qmath.TOP_DEGENERACY_TOL)
        z = rng.normal(size=(top.size, top.size)) + 1j * rng.normal(size=(top.size, top.size))
        q, r = np.linalg.qr(z)
        evecs = evecs.copy()
        evecs[:, top] = evecs[:, top] @ (q * (np.diag(r) / abs(np.diag(r))))
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", rotated)


class TestDegenerateSurrogate:
    """A degenerate top eigenspace gives one vector, whatever basis LAPACK returns."""

    @staticmethod
    def surrogates(rho, monkeypatch, seed):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            plain = top_eigenstate(rho)[1]
        rotate_top_cluster(monkeypatch, seed)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            rotated = top_eigenstate(rho)[1]
        return plain, rotated

    @pytest.mark.parametrize("p_d", [0.76, 0.8, 0.825, 0.9, 0.99, 1.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_phi_minus_beyond_three_quarters(self, monkeypatch, p_d, seed):
        # at a = 0 and p_d > 3/4 the top eigenspace is span{Phi-, Psi+, Psi-}
        rho = prepare_state(NoiseParams(a=0.0, p_d=p_d))
        plain, rotated = self.surrogates(rho, monkeypatch, seed)
        assert abs(rotated - plain).max() < 1e-12
        assert abs(plain - PHI_MINUS).max() < 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_maximally_mixed_stays_phi_plus(self, monkeypatch, seed):
        plain, rotated = self.surrogates(np.eye(4, dtype=complex) / 4, monkeypatch, seed)
        assert abs(rotated - plain).max() < 1e-12
        assert abs(plain - PHI_PLUS).max() < 1e-12

    @pytest.mark.parametrize("diag, axis", [([0.5, 0.5], 0), ([0.0, 0.5, 0.5], 1)])
    def test_non_square_takes_first_axis_reached(self, monkeypatch, diag, axis):
        rho = np.diag(diag).astype(complex)
        plain, rotated = self.surrogates(rho, monkeypatch, 3)
        assert abs(rotated - plain).max() < 1e-12
        assert abs(plain - np.eye(len(diag))[axis]).max() < 1e-12


class TestApplyChannel:
    def test_identity_channel(self, rng):
        psi = random_pure_state(rng, 4)
        rho = np.outer(psi, psi.conj())
        out = apply_channel(rho, [np.eye(2)], on=0)
        assert np.allclose(out, rho, atol=1e-12)

    def test_fully_depolarizing(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        kraus = [m / 2 for m in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)]
        out = apply_channel(rho, kraus, on=0)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_depolarize_bell_weights(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        out = depolarize(rho, 0.3, qubit=1)
        # each Pauli error maps the Bell state to a distinct orthogonal one
        evals = np.sort(np.linalg.eigvalsh(out))[::-1]
        assert np.allclose(evals, [0.7, 0.1, 0.1, 0.1], atol=1e-12)

    def test_pure_x_noise(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        out = depolarize(rho, 1.0, weights=(1.0, 0.0, 0.0), qubit=1)
        x1 = tensor(np.eye(2), PAULI_X)
        assert np.allclose(out, x1 @ rho @ x1.conj().T, atol=1e-12)

    def test_incomplete_kraus_rejected(self):
        rho = np.eye(2).astype(complex) / 2
        with pytest.raises(ValueError):
            apply_channel(rho, [0.5 * np.eye(2)], on=0)

    def test_preserves_density_matrix(self, rng):
        psi = random_pure_state(rng, 8)
        rho = np.outer(psi, psi.conj())
        out = depolarize(rho, 0.4, qubit=2)
        assert_density_matrix(out)
        assert abs(np.trace(out).real - 1.0) < 1e-10


class TestValidators:
    def test_pure_state_norm(self):
        assert_pure_state(PHI_PLUS)
        with pytest.raises(ValueError):
            assert_pure_state(np.array([1.0, 1.0]))

    def test_density_matrix_checks(self):
        assert_density_matrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            assert_density_matrix(np.eye(2))
        with pytest.raises(ValueError):
            assert_density_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
        with pytest.raises(ValueError, match="square"):
            assert_density_matrix(np.full((2, 3), 0.5))

    @pytest.mark.parametrize("skew, ok", [(3e-6, False), (1e-13, True), (np.nan, False)])
    def test_hermiticity_bound_is_absolute(self, skew, ok):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = skew
        if ok:
            assert_density_matrix(rho)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                assert_density_matrix(rho)


class TestDimsFor:
    @pytest.mark.parametrize("size, n", [(1, 0), (2, 1), (8, 3), (64, 6)])
    def test_powers_of_two(self, size, n):
        assert qmath._dims_for(size) == (2,) * n

    @pytest.mark.parametrize("size", [0, -4, 3, 6, 12])
    def test_other_sizes_raise(self, size):
        with pytest.raises(ValueError, match="power of two"):
            qmath._dims_for(size)
