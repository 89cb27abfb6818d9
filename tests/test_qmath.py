"""Unit tests for the linear-algebra and quantum-state primitives."""

import numpy as np
import pytest

from conftest import random_bipartite, random_pure_state

from entconc import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
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
