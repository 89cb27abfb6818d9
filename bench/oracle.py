"""Reference computations the benchmark checks entconc's outputs against.

Everything here is written from the physics, with plain numpy, and calls
no entconc code: the noisy-pair state, Schmidt vectors from an SVD of the
amplitude matrix, the Vidal conversion probability, the DEJMPS recurrence
map, and the structural properties every returned number and state must
have. Each check returns a list of violation strings; an empty list means
the output passed.
"""

from __future__ import annotations

import numpy as np

STATE_TOL = 1e-10
MATCH_TOL = 1e-9

_S3 = 1.0 / np.sqrt(3.0)
_BELL = {
    "phi+": np.array([1, 0, 0, 1]) / np.sqrt(2.0),
    "phi-": np.array([1, 0, 0, -1]) / np.sqrt(2.0),
    "psi+": np.array([0, 1, 1, 0]) / np.sqrt(2.0),
    "psi-": np.array([0, 1, -1, 0]) / np.sqrt(2.0),
}
BELL_PHI_PLUS = _BELL["phi+"].astype(complex)


def pair_state(a: float) -> np.ndarray:
    """Pure pair with coherent error ``a`` spread evenly over X, Z and Y.

    sqrt(1-a)|phi+> + sqrt(a/3)(|psi+> + |phi-> + |psi->): the state the
    ``entconc sweep`` default weights describe before any Pauli noise.
    """
    vec = np.sqrt(1.0 - a) * _BELL["phi+"] + np.sqrt(a) * _S3 * (
        _BELL["psi+"] + _BELL["phi-"] + _BELL["psi-"]
    )
    return vec.astype(complex)


def two_pair_source(a: float) -> np.ndarray:
    """Amplitude matrix (A1 A2) x (B1 B2) of two copies of ``pair_state``."""
    m = pair_state(a).reshape(2, 2)
    return np.kron(m, m)


def schmidt_vector(amplitudes: np.ndarray) -> np.ndarray:
    """Squared singular values of an amplitude matrix, descending, summing to 1."""
    s = np.linalg.svd(np.asarray(amplitudes, dtype=complex), compute_uv=False)
    p = np.sort(s**2)[::-1]
    return p / p.sum()


def with_catalyst(vector: np.ndarray, c1: float) -> np.ndarray:
    """Schmidt vector of ``vector`` with the catalyst (c1, 1-c1) appended."""
    return np.sort(np.outer(vector, [c1, 1.0 - c1]).ravel())[::-1]


def vidal(alpha: np.ndarray, beta: np.ndarray) -> float:
    """Vidal's optimal conversion probability min_l E_l(alpha) / E_l(beta).

    E_l is the sum of the Schmidt coefficients from position l on; terms
    where the target's tail vanishes impose nothing.
    """
    d = max(alpha.size, beta.size)
    a = np.zeros(d)
    b = np.zeros(d)
    a[: alpha.size] = np.sort(alpha)[::-1]
    b[: beta.size] = np.sort(beta)[::-1]
    ea = np.cumsum(a[::-1])[::-1]
    eb = np.cumsum(b[::-1])[::-1]
    live = eb > 1e-14
    return float(np.min(ea[live] / eb[live]))


def best_catalyst(sigma: np.ndarray, tau: np.ndarray) -> float:
    """c1 of the best one-pair catalyst on the grid c1 = 0.5, 0.5001, ..., 1.

    The grid step mirrors ``find_catalyst``'s default resolution. Scores
    every grid point at once by the Vidal probability of the
    catalyst-augmented conversion sigma (x) c -> tau (x) c, and keeps the
    last c1 that comes within 1e-12 of the best score seen so far, so
    ties go to the least entangled catalyst.
    """
    c1 = 0.5 + np.arange(5001) * 1e-4
    cat = np.stack([c1, 1.0 - c1], axis=1)

    def tails(vec):
        joint = (vec[None, :, None] * cat[:, None, :]).reshape(c1.size, -1)
        joint = np.sort(joint, axis=1)[:, ::-1]
        return np.cumsum(joint[:, ::-1], axis=1)[:, ::-1]

    ea, eb = tails(np.asarray(sigma, float)), tails(np.asarray(tau, float))
    live = eb > 1e-14
    score = np.where(live, ea / np.where(live, eb, 1.0), np.inf).min(axis=1)
    before = np.concatenate([[-1.0], np.maximum.accumulate(score)[:-1]])
    return float(c1[np.nonzero(score > before - 1e-12)[0][-1]])


def dejmps_fidelity(p_d: float) -> float:
    """Fidelity after one DEJMPS round on two Bell-diagonal pairs.

    The pairs carry weight 1 - p_d on phi+ and p_d/3 on each other Bell
    state. With (A, B, C, D) the weights of (phi+, psi-, psi+, phi-), the
    round keeps A' = (A^2 + B^2) / N, N = (A + B)^2 + (C + D)^2
    (Deutsch et al., PRL 77, 2818, 1996).
    """
    big, small = 1.0 - p_d, p_d / 3.0
    norm = (big + small) ** 2 + (2.0 * small) ** 2
    return (big**2 + small**2) / norm


def bell_target(d_left: int, d_right: int) -> np.ndarray:
    """phi+ on the leading qubit of each side, all other qubits in |0>."""
    mat = np.zeros((d_left, d_right), dtype=complex)
    mat[0, 0] = mat[d_left // 2, d_right // 2] = 1.0 / np.sqrt(2.0)
    return mat.ravel()


ROUNDING = "above 1 by rounding"


def unit_interval(name: str, value) -> list:
    """A probability or fidelity must lie in [0, 1], with no rounding slack.

    A value at most 1e-12 above 1 is reported as ``ROUNDING``, so that
    unclipped rounding can be told apart from a wrong value.
    """
    if value is None:
        return []
    x = float(value)
    if 0.0 <= x <= 1.0:
        return []
    if x <= 1.0 + 1e-12:
        return [f"{name}={x!r} {ROUNDING}"]
    return [f"{name}={x!r} outside [0, 1]"]


def density_matrix(name: str, rho) -> list:
    """Hermitian, unit trace and positive semidefinite within 1e-10."""
    if rho is None:
        return []
    rho = np.asarray(rho, dtype=complex)
    out = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > STATE_TOL:
        out.append(f"{name} not Hermitian: {herm:.3e}")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > STATE_TOL:
        out.append(f"{name} trace {trace:.15g}")
    low = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
    if low < -STATE_TOL:
        out.append(f"{name} eigenvalue {low:.3e}")
    return out


def close(name: str, got, want, tol: float = MATCH_TOL) -> list:
    if abs(float(got) - float(want)) <= tol:
        return []
    return [f"{name}={float(got)!r}, expected {float(want)!r} within {tol:g}"]


def within(name: str, got, low, high, slack: float = MATCH_TOL) -> list:
    if float(low) - slack <= float(got) <= float(high) + slack:
        return []
    return [f"{name}={float(got)!r} outside [{float(low)!r}, {float(high)!r}]"]


def at_least(name: str, got, bound, slack: float) -> list:
    if float(got) >= float(bound) - slack:
        return []
    return [f"{name}={float(got)!r} below {float(bound)!r} - {slack:g}"]


def naimark(rnd, label: str) -> list:
    """The round's assembled embedding is unitary and dilates its POVM.

    Block j of the embedding acts on the auxiliary register for data
    state j; its first column carries amplitude sqrt(A_m[j]) into aux
    state m wherever the elements sum to 1 (the support).
    """
    emb = rnd.embedding
    elements = np.array([np.asarray(el, dtype=float) for el in rnd.povm.elements])
    u = np.asarray(emb.assemble(), dtype=complex)
    ka = 2**emb.aux_count
    out = []
    unit = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
    if unit > STATE_TOL:
        out.append(f"{label}: embedding not unitary ({unit:.3e})")
    m = elements.shape[0]
    if m > ka:
        return out + [f"{label}: {m} outcomes on {emb.aux_count} aux qubits"]
    support = np.abs(elements.sum(axis=0) - 1.0) <= STATE_TOL
    for j in np.nonzero(support)[0]:
        col = np.abs(u[j * ka : (j + 1) * ka, j * ka]) ** 2
        want = np.zeros(ka)
        want[:m] = elements[:, j]
        err = float(np.max(np.abs(col - want)))
        if err > STATE_TOL:
            out.append(f"{label}: block {j} first column off by {err:.3e}")
            break
    return out
