"""Unit tests for noisy pair preparation and the pure surrogate."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entconc import (
    BELL,
    NoiseParams,
    apply_channel,
    coherent_state,
    depolarize,
    fidelity,
    prepare_state,
    surrogate,
)
from entconc.noise import PHI_MINUS, PHI_PLUS, PSI_MINUS, PSI_PLUS, _depolarize_qubits
from entconc.qmath import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestBellBasis:
    def test_orthonormal(self):
        basis = np.column_stack(list(BELL))
        assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)

    def test_pauli_structure(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.allclose(np.kron(np.eye(2), x) @ PHI_PLUS, PSI_PLUS)
        assert np.allclose(np.kron(np.eye(2), z) @ PHI_PLUS, PHI_MINUS)
        assert np.allclose(np.kron(np.eye(2), x @ z) @ PHI_PLUS, PSI_MINUS)


class TestCoherentState:
    def test_no_error_is_target(self):
        assert np.allclose(coherent_state(0.0), PHI_PLUS, atol=1e-12)

    def test_full_z_error(self):
        psi = coherent_state(1.0, weights=(0.0, 1.0, 0.0))
        assert np.allclose(psi, PHI_MINUS, atol=1e-12)

    def test_symmetric_amplitudes(self):
        psi = coherent_state(0.3)
        assert abs(np.vdot(PHI_PLUS, psi) - np.sqrt(0.7)) < 1e-12
        for err in (PSI_PLUS, PHI_MINUS, PSI_MINUS):
            assert abs(np.vdot(err, psi) - np.sqrt(0.1)) < 1e-12

    def test_fidelity_invariant_in_weights(self, rng):
        for _ in range(20):
            w = rng.normal(size=3) + 1j * rng.normal(size=3)
            w = w / np.linalg.norm(w)
            psi = coherent_state(0.2, weights=tuple(w))
            rho = np.outer(psi, psi.conj())
            assert abs(fidelity(rho, PHI_PLUS) - 0.8) < 1e-12

    def test_normalized(self, rng):
        for a in (0.0, 0.1, 0.5, 1.0):
            psi = coherent_state(a)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            coherent_state(0.1, weights=(1.0, 1.0, 0.0))

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            coherent_state(1.5)


class TestDepolarize:
    def test_bell_diagonal_weights(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        out = depolarize(rho, 0.3)
        basis = np.column_stack(list(BELL))
        diag = np.real(np.diag(basis.conj().T @ out @ basis))
        assert np.allclose(sorted(diag, reverse=True), [0.7, 0.1, 0.1, 0.1], atol=1e-12)

    def test_zero_probability_identity(self, rng):
        psi = coherent_state(0.2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(depolarize(rho, 0.0), rho, atol=1e-12)

    def test_fidelity_invariant_in_weights(self, rng):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        for _ in range(20):
            w = rng.random(3) + 0.01
            w = w / w.sum()
            out = depolarize(rho, 0.15, weights=tuple(w))
            assert abs(fidelity(out, PHI_PLUS) - 0.85) < 1e-12

    def test_trace_preserving(self, rng):
        psi = coherent_state(0.4, weights=(0.6, 0.8j, 0.0))
        rho = np.outer(psi, psi.conj())
        out = depolarize(rho, 0.25, weights=(0.5, 0.3, 0.2))
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.allclose(out, out.conj().T, atol=1e-12)

    def test_invalid_weights(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            depolarize(rho, 0.1, weights=(0.9, 0.9, -0.8))

    @pytest.mark.parametrize("qubit", [-1, 2, 5])
    def test_rejects_qubit_outside_register(self, qubit):
        with pytest.raises(ValueError, match="outside"):
            depolarize(np.eye(4) / 4, 0.1, qubit=qubit)

    @pytest.mark.parametrize("dim", [3, 6, 12])
    def test_rejects_non_power_of_two_dimension(self, dim):
        with pytest.raises(ValueError, match="power of two"):
            depolarize(np.eye(dim) / dim, 0.1, qubit=0)

    @pytest.mark.parametrize("n", range(1, 9))
    @settings(max_examples=10)
    @given(p=st.floats(0.0, 1.0), equal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(p=1.0, equal=False, seed=0)
    @example(p=0.0, equal=True, seed=1)
    def test_matches_kraus_reference_on_every_qubit(self, n, p, equal, seed):
        rng = np.random.default_rng(seed)
        w = (1 / 3, 1 / 3, 1 / 3) if equal else tuple(rng.dirichlet(np.ones(3)))
        kraus = [np.sqrt(1.0 - p) * PAULI_I] + [
            np.sqrt(p * wi) * pauli for wi, pauli in zip(w, (PAULI_X, PAULI_Z, PAULI_Y))
        ]
        rho = random_density(rng, 2**n)
        for qubit in range(n):
            ref = apply_channel(rho, kraus, on=qubit)
            assert np.max(np.abs(depolarize(rho, p, w, qubit) - ref)) <= 1e-14

    def test_leading_axes_batch(self, rng):
        stack = np.array([random_density(rng, 8) for _ in range(5)]).reshape(5, 1, 8, 8)
        out = depolarize(stack, 0.2, (0.5, 0.3, 0.2), qubit=1)
        assert out.shape == stack.shape
        for i in range(5):
            assert np.array_equal(out[i, 0], depolarize(stack[i, 0], 0.2, (0.5, 0.3, 0.2), qubit=1))


class TestDepolarizeKernel:
    @pytest.mark.parametrize("n_qubits", range(1, 5))
    @pytest.mark.parametrize("weights", [None, (0.5, 0.3, 0.2)])
    def test_equals_chained_depolarize(self, rng, n_qubits, weights):
        n = 4
        stack = np.array([random_density(rng, 2**n) for _ in range(3)]).reshape(3, 1, 16, 16)
        qubits = rng.choice(n, size=n_qubits, replace=False).tolist()
        for p in (0.0, 0.03, 1.0):
            for rho in (stack[0, 0], stack):
                want = rho
                for q in qubits:
                    want = depolarize(want, p, weights, qubit=q)
                got = (
                    _depolarize_qubits(rho, p, qubits)
                    if weights is None
                    else _depolarize_qubits(rho, p, qubits, weights)
                )
                assert got.shape == rho.shape
                assert np.array_equal(got, want)


class TestNoiseParams:
    def test_defaults_valid(self):
        p = NoiseParams()
        assert p.a == 0.0 and p.p_d == 0.0 and p.p_g == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": -0.1},
            {"a": 1.2},
            {"p_d": 2.0},
            {"p_g": -1e-9},
            {"coh_weights": (1.0, 1.0, 1.0)},
            {"depol_weights": (0.5, 0.5, 0.5)},
            {"depol_weights": (1.5, -0.25, -0.25)},
            {"coh_weights": (1.0, 0.0)},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NoiseParams(**kwargs)


class TestSharedChecks:
    """The probability and weight rules give one message wherever they apply."""

    @pytest.mark.parametrize(
        "name, call",
        [
            ("a", lambda x: NoiseParams(a=x)),
            ("p_d", lambda x: NoiseParams(p_d=x)),
            ("p_g", lambda x: NoiseParams(p_g=x)),
            ("a", lambda x: coherent_state(x)),
            ("p_d", lambda x: depolarize(np.eye(4) / 4, x)),
        ],
    )
    @pytest.mark.parametrize("value", [-1e-9, 1.0 + 1e-9, float("nan")])
    def test_probability(self, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\]$"):
            call(value)

    @pytest.mark.parametrize(
        "call",
        [lambda w: NoiseParams(coh_weights=w), lambda w: coherent_state(0.1, w)],
    )
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 0.0), (float("nan"), 0.0, 0.0)])
    def test_coherent_norm(self, call, weights):
        with pytest.raises(ValueError, match="coherent weights must have unit squared norm"):
            call(weights)

    @pytest.mark.parametrize(
        "call",
        [lambda w: NoiseParams(depol_weights=w), lambda w: depolarize(np.eye(4) / 4, 0.1, w)],
    )
    @pytest.mark.parametrize(
        "weights", [(0.5, 0.5, 0.5), (1.5, -0.25, -0.25), (float("nan"), 0.5, 0.5)]
    )
    def test_pauli_probabilities(self, call, weights):
        with pytest.raises(ValueError, match="depolarizing weights must be probabilities summing"):
            call(weights)


class TestPrepareState:
    def test_perfect_pair(self):
        rho = prepare_state(NoiseParams())
        assert np.allclose(rho, np.outer(PHI_PLUS, PHI_PLUS.conj()), atol=1e-12)

    def test_valid_density_matrix_on_grid(self):
        for a in (0.0, 0.1, 0.5):
            for p_d in (0.0, 0.05, 0.3):
                rho = prepare_state(NoiseParams(a=a, p_d=p_d))
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.allclose(rho, rho.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_coherent_fidelity_invariant(self, rng):
        for _ in range(10):
            w = rng.normal(size=3) + 1j * rng.normal(size=3)
            w = w / np.linalg.norm(w)
            rho = prepare_state(NoiseParams(a=0.25, coh_weights=tuple(w)))
            assert abs(fidelity(rho, PHI_PLUS) - 0.75) < 1e-12

    def test_depolarized_fidelity(self, rng):
        for _ in range(10):
            w = rng.random(3) + 0.01
            w = w / w.sum()
            rho = prepare_state(NoiseParams(p_d=0.2, depol_weights=tuple(w)))
            assert abs(fidelity(rho, PHI_PLUS) - 0.8) < 1e-12

    def test_combined_noise_fidelity_bounds(self):
        rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
        f = fidelity(rho, PHI_PLUS)
        assert f <= (1 - 0.1) + 1e-12
        assert f >= (1 - 0.1) * (1 - 0.05) - 1e-12


class TestSurrogate:
    def test_pure_coherent_only(self):
        rho = prepare_state(NoiseParams(a=0.2))
        psi = surrogate(rho)
        target = coherent_state(0.2)
        assert abs(abs(np.vdot(target, psi)) - 1.0) < 1e-10

    def test_mixed_pair_dominant_branch(self):
        rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
        psi = surrogate(rho)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        overlap = float(np.real(psi.conj() @ rho @ psi))
        evals = np.linalg.eigvalsh(rho)
        assert abs(overlap - evals[-1]) < 1e-10

    def test_depolarized_only_is_target(self):
        rho = prepare_state(NoiseParams(p_d=0.1))
        psi = surrogate(rho)
        assert abs(abs(np.vdot(PHI_PLUS, psi)) - 1.0) < 1e-10
