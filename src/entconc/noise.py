"""Noisy two-qubit state preparation and gate-noise primitives.

Models an entangled pair shared between parties A and B where B's qubit is
the one exposed to noise: a coherent preparation error rotates the ideal
Bell state toward the other Bell states, and a probabilistic Pauli channel
acts on B's qubit afterwards. Also extracts the pure surrogate state (top
eigenvector) that the compilation pipeline plans against.

Weight tuples are ordered (x, z, y) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qmath import UNIT_TOL, _check_probability, _dims_for, top_eigenstate

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT3 = 1.0 / np.sqrt(3.0)
# s_a s_b of one qubit's row and column indices, shaped for the (a, R, L, b, R)
# axes of _depolarize_qubits' view: Z rho Z multiplies each entry by it
_ZZ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, None, :, None]
_EQUAL_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)
_EQUAL_AMPLITUDES = (_INV_SQRT3, _INV_SQRT3, _INV_SQRT3)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) * _INV_SQRT2
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) * _INV_SQRT2
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) * _INV_SQRT2
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) * _INV_SQRT2


class BellBasis(NamedTuple):
    """The four maximally entangled two-qubit basis states."""

    phi_plus: np.ndarray
    phi_minus: np.ndarray
    psi_plus: np.ndarray
    psi_minus: np.ndarray


BELL = BellBasis(PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)


@dataclass(frozen=True)
class NoiseParams:
    """Preparation and gate noise settings for one entangled pair.

    Parameters
    ----------
    a : float
        Coherent preparation error probability in [0, 1].
    coh_weights : tuple of complex
        Amplitudes (eps_x, eps_z, eps_y) distributing the coherent error
        over the non-target Bell states; squared magnitudes must sum to 1.
    p_d : float
        Pauli (depolarizing-type) error probability on B's qubit.
    depol_weights : tuple of float
        Probabilities (x, z, y) splitting p_d across the Pauli errors;
        must sum to 1.
    p_g : float
        Per-MCX-gate depolarizing probability during protocol execution.
    """

    a: float = 0.0
    coh_weights: tuple = _EQUAL_AMPLITUDES
    p_d: float = 0.0
    depol_weights: tuple = _EQUAL_WEIGHTS
    p_g: float = 0.0

    def __post_init__(self):
        for name in ("a", "p_d", "p_g"):
            _check_probability(getattr(self, name), name)
        if len(self.coh_weights) != 3 or len(self.depol_weights) != 3:
            raise ValueError("weight tuples must have three entries (x, z, y)")
        _coherent_weights(self.coh_weights)
        _pauli_weights(self.depol_weights)


def _coherent_weights(weights) -> tuple:
    """The amplitudes (x, z, y) as complex numbers, of unit squared norm within UNIT_TOL."""
    ex, ez, ey = (complex(w) for w in weights)
    if not abs(abs(ex) ** 2 + abs(ez) ** 2 + abs(ey) ** 2 - 1.0) <= UNIT_TOL:
        raise ValueError("coherent weights must have unit squared norm")
    return ex, ez, ey


def _pauli_weights(weights) -> tuple:
    """The probabilities (x, z, y) as floats, nonnegative and summing to 1 within UNIT_TOL."""
    wx, wz, wy = (float(w) for w in weights)
    if not abs(wx + wz + wy - 1.0) <= UNIT_TOL or min(wx, wz, wy) < 0:
        raise ValueError("depolarizing weights must be probabilities summing to 1")
    return wx, wz, wy


def coherent_state(a: float, weights=None) -> np.ndarray:
    """Two-qubit pure state with coherent error probability ``a``.

    Superposes the target Bell state (weight 1-a) with the three error
    Bell states reached by single-qubit X, Z, and Y flips, with complex
    amplitudes sqrt(a) * weights. ``weights`` defaults to the symmetric
    choice 1/sqrt(3) each and is ordered (x, z, y).
    """
    ex, ez, ey = _coherent_weights(_EQUAL_AMPLITUDES if weights is None else weights)
    _check_probability(a, "a")
    psi = np.sqrt(1.0 - a) * PHI_PLUS + np.sqrt(a) * (
        ex * PSI_PLUS + ez * PHI_MINUS + ey * PSI_MINUS
    )
    return psi


def depolarize(rho: np.ndarray, p_d: float, weights=None, qubit: int = 1) -> np.ndarray:
    """Apply the probabilistic Pauli error channel to one qubit.

    rho -> (1-p_d) rho + p_d (w_x X rho X + w_z Z rho Z + w_y Y rho Y) on
    qubit ``qubit`` of an n-qubit register (qubit 0 most significant), with
    probabilities ``weights`` (default 1/3 each, ordered (x, z, y)): the
    checks of its arguments, then ``_depolarize_qubits`` on the one qubit.
    Leading axes of ``rho`` batch. ``qmath.apply_channel`` with the four Kraus
    operators is the reference. Raises ValueError for invalid weights or
    ``p_d``, a dimension that is not a power of two, or a qubit outside
    [0, n).
    """
    weights = _pauli_weights(_EQUAL_WEIGHTS if weights is None else weights)
    _check_probability(p_d, "p_d")
    rho = np.asarray(rho, dtype=complex)
    n = len(_dims_for(rho.shape[-1]))
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} is outside a register of {n} qubits")
    return _depolarize_qubits(rho, p_d, (qubit,), weights)


def _depolarize_qubits(rho, p_d: float, qubits, weights=_EQUAL_WEIGHTS) -> np.ndarray:
    """``depolarize`` on each of ``qubits`` in turn, without its checks.

    Equals the chained ``depolarize`` calls bit for bit. In closed form on
    the (L, 2, R, L, 2, R) view of rho: Z rho Z multiplies the entry with
    qubit indices (a, b) by s_a s_b (s = 1, -1), X rho X reverses both
    qubit axes, and Y rho Y = X (Z rho Z) X. The keep and flip factors are
    built once for all qubits. ``weights`` are the floats (w_x, w_z, w_y).
    """
    wx, wz, wy = weights
    keep = (1.0 - p_d) + p_d * wz * _ZZ_SIGNS
    flip = p_d * (wx + wy * _ZZ_SIGNS)
    rho = np.asarray(rho, dtype=complex)
    shape, dim = rho.shape, rho.shape[-1]
    for q in qubits:
        t = rho.reshape(shape[:-2] + (2**q, 2, dim >> (q + 1)) * 2)
        rho = (keep * t + flip * t[..., ::-1, :, :, ::-1, :]).reshape(shape)
    return rho


def prepare_state(params: NoiseParams) -> np.ndarray:
    """Density matrix of one noisy entangled pair.

    Builds the coherent-error pure state, then sends B's qubit (index 1)
    through the Pauli error channel with probability ``params.p_d``.
    """
    psi = coherent_state(params.a, params.coh_weights)
    rho = np.outer(psi, psi.conj())
    return depolarize(rho, params.p_d, params.depol_weights, qubit=1)


def surrogate(rho: np.ndarray) -> np.ndarray:
    """Pure state the planner treats as the actual preparation.

    The eigenvector of the largest eigenvalue. Degeneracy of that
    eigenvalue raises a RuntimeWarning from the eigensolver wrapper.
    """
    return top_eigenstate(rho)[1]
