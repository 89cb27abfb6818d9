"""Direct forms of the execution path, against the forms they replace.

``protocols._parties`` builds the party-ordered product in one broadcast
product, ``qmath.partial_trace`` sums slices, and ``run_schedule`` takes an
outcome whose correction is the identity without gathering it; each must
equal the composed form byte for byte, the sign of every zero included,
since a result's document writes -0.0 and 0.0 apart. The code-line counter
of ``scripts/code_lines.py`` is checked here too.
"""

import itertools
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import random_pure_state

from entconc import (
    PHI_MINUS, PHI_PLUS, PSI_MINUS, PSI_PLUS, NoiseParams, catalyst_from_schmidt,
    compile_schedule, partial_trace, permute_subsystems, prepare_state, tensor,
)
from entconc.protocols import _parties, cec_planning_states, nec_planning_states

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from code_lines import code_lines  # noqa: E402


def signed_zero_matrix(rng, d):
    """Complex d x d matrix whose parts are drawn from 0.0, -0.0, 1, -1 and 0.5."""
    parts = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(d, d, 2))
    return parts.view(complex)[..., 0]


def pair_vectors(rng) -> list:
    """Bell states, product states and random pair vectors, exact zeros included."""
    zero_one = np.array([0, 1, 0, 0], dtype=complex)
    signed = np.array([-0.0, 1.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
    return [PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS, zero_one, -zero_one, signed,
            random_pure_state(rng, 4), random_pure_state(rng, 4)]


def reference_parties(*pairs) -> np.ndarray:
    n = len(pairs)
    perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    return permute_subsystems(tensor(*pairs), perm)


def reference_partial_trace(rho, keep) -> np.ndarray:
    """The sequential ``np.trace`` loop ``partial_trace`` replaced."""
    n = rho.shape[0].bit_length() - 1
    t = rho.reshape((2,) * (2 * n))
    for i in reversed([i for i in range(n) if i not in keep]):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    return t.reshape(2 ** len(keep), 2 ** len(keep))


class TestParties:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vectors_bit_equal_to_permuted_tensor(self, rng, n):
        vectors = pair_vectors(rng)
        for pairs in itertools.product(vectors, repeat=n):
            got = _parties(*pairs)
            want = reference_parties(*pairs)
            assert got.shape == want.shape == (4**n,)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrices_bit_equal_to_permuted_tensor(self, rng, n):
        vectors = pair_vectors(rng)
        matrices = [np.outer(v, v.conj()) for v in vectors]
        matrices += [signed_zero_matrix(rng, 4) for _ in range(3)]
        combos = list(itertools.product(range(len(matrices)), repeat=n))
        picks = rng.choice(len(combos), size=min(len(combos), 200), replace=False)
        for pick in picks:
            pairs = [matrices[i] for i in combos[pick]]
            got = _parties(*pairs)
            want = reference_parties(*pairs)
            assert got.shape == want.shape == (4**n, 4**n)
            assert got.tobytes() == want.tobytes()

    def test_signed_zeros_show(self, rng):
        """The test inputs hold products that give -0.0, which a sign change would flip."""
        pairs = [signed_zero_matrix(rng, 4) for _ in range(3)]
        out = _parties(*pairs).view(float)
        assert (np.signbit(out) & (out == 0)).any() and (~np.signbit(out) & (out == 0)).any()


class TestPartialTrace:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bit_equal_to_trace_loop_for_every_keep_set(self, rng, n):
        d = 2**n
        bell = np.outer(PHI_PLUS, PHI_PLUS.conj())
        product = np.outer(*[np.eye(d, dtype=complex)[3]] * 2)
        states = [
            tensor(*[bell] * (n // 2) + [np.diag([1.0, 0.0]).astype(complex)] * (n % 2)),
            product,
            -product,
            signed_zero_matrix(rng, d),
            np.full((d, d), complex(-0.0, -0.0)),
        ]
        psi = random_pure_state(rng, d)
        states.append(np.outer(psi, psi.conj()))
        for size in range(n + 1):
            for keep in itertools.combinations(range(n), size):
                for rho in states:
                    got = partial_trace(rho, keep=list(keep))
                    want = reference_partial_trace(rho, keep)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (n, keep)

    def test_zero_sums_of_negative_zeros_read_positive(self):
        rho = np.full((4, 4), complex(-0.0, -0.0))
        out = partial_trace(rho, keep=[0]).view(float)
        assert not np.signbit(out).any()
        assert np.signbit(partial_trace(rho, keep=[0, 1]).view(float)).all()


class TestIdentityOutcomes:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_flags_mark_exactly_the_identity_corrections(self, g):
        rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
        spec = catalyst_from_schmidt(0.8)
        for planning in (nec_planning_states(rho, rho), cec_planning_states(rho, rho, spec.state)):
            for rnd in compile_schedule(*planning, g).rounds:
                d = rnd.embedding.data_dim
                flags = rnd.identity_outcomes
                assert rnd.identity_outcomes is flags
                assert flags == tuple(np.array_equal(c, np.arange(d)) for c in rnd.corrections)
                relabel, _ = rnd.kraus_rows
                for m, same in enumerate(flags):
                    assert same == np.array_equal(relabel[m], np.arange(d * d))
                if len(rnd.povm.elements) == 2:
                    assert flags[0]


class TestCodeLines:
    def test_counts_statement_lines_only(self):
        source = textwrap.dedent('''\
            """Module docstring,
            on two lines."""

            import os  # a trailing comment


            def f(a,
                  b):
                """Function docstring."""
                # a comment line
                text = """not a
            docstring"""
                return a + b


            class C:
                """Class docstring."""

                x = 1
            ''')
        # import; def header (2 lines); text (2); return; class header; x
        assert code_lines(source) == 8
