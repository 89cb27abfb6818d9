"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from entconc import (
    PHI_MINUS, PHI_PLUS, PSI_MINUS, PSI_PLUS, compile_schedule, find_catalyst, protocols,
)

# Property tests draw the same examples on every run (derandomize), are not
# timed per example (deadline), and stay within a bounded example count.
settings.register_profile("entconc", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("entconc")


@pytest.fixture(autouse=True)
def empty_plan_memos():
    """Start every test with the planning memos and the pair memos empty.

    Tests that count calls inside the compile path, the catalyst search,
    the pair checks or the surrogates would otherwise see a plan, a check
    or a surrogate another test left behind.
    """
    compile_schedule.cache_clear()
    find_catalyst.cache_clear()
    protocols._check_pair.cache_clear()
    protocols._pair_surrogate.cache_clear()


def random_pure_state(rng, dim):
    """Haar-ish random pure state of the given dimension."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_bipartite(rng, d_l, d_r, rank=None):
    """Random bipartite pure state with a prescribed Schmidt rank."""
    rank = min(d_l, d_r) if rank is None else rank
    taus = rng.random(rank) + 0.05
    taus = taus / taus.sum()
    u = np.linalg.qr(rng.normal(size=(d_l, d_l)) + 1j * rng.normal(size=(d_l, d_l)))[0]
    v = np.linalg.qr(rng.normal(size=(d_r, d_r)) + 1j * rng.normal(size=(d_r, d_r)))[0]
    psi = np.zeros(d_l * d_r, dtype=complex)
    for i in range(rank):
        psi += np.sqrt(taus[i]) * np.kron(u[:, i], v[:, i])
    return psi


def random_schmidt_vector(rng, d):
    """Random descending probability vector of length d."""
    v = np.sort(rng.random(d) + 1e-3)[::-1]
    return v / v.sum()


def bell_diagonal(weights):
    """Two-qubit state diagonal in the Bell basis with the given weights."""
    weights = np.asarray(weights, dtype=float)
    basis = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)
    rho = np.zeros((4, 4), dtype=complex)
    for w, b in zip(weights, basis):
        rho += w * np.outer(b, b.conj())
    return rho


def werner(fidelity):
    """Werner state with the given fidelity to the first Bell state."""
    q = (1.0 - fidelity) / 3.0
    return bell_diagonal([fidelity, q, q, q])


def schmidt_pair_state(coeffs):
    """Two-qubit pure state sum_i sqrt(c_i)|ii> for a length-2 vector."""
    c = np.asarray(coeffs, dtype=float)
    vec = np.zeros(4)
    vec[0] = np.sqrt(c[0])
    vec[3] = np.sqrt(c[1])
    return vec


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
