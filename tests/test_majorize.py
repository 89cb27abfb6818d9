"""Unit tests for majorization, conversion probability, and decompositions."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_pure_state, random_schmidt_vector

from entconc import (
    NoiseParams,
    PHI_PLUS,
    TTransform,
    birkhoff_decompose,
    build_doubly_stochastic,
    catalyst_from_schmidt,
    compile_schedule,
    fold_ttransforms,
    group_ttransforms,
    is_majorized,
    js_povm,
    majorize,
    prepare_state,
    schmidt_decompose,
    step_terms,
    t_transform_decompose,
    vidal_intermediate,
    vidal_probability,
)
from entconc.majorize import (
    MATCHING_CAP,
    _lex_bottleneck_matching,
    _support_matchings,
    expand_step,
    expand_ttransform,
    permutation_matrix,
)
from entconc.protocols import cec_planning_states, find_catalyst, nec_planning_states
from entconc.qmath import ZERO_TOL


def random_majorized_pair(rng, d):
    """Return (alpha, beta) with alpha majorized by beta."""
    beta = random_schmidt_vector(rng, d)
    mix = np.eye(d)
    for _ in range(rng.integers(1, d + 2)):
        j, k = sorted(rng.choice(d, size=2, replace=False))
        t = rng.random()
        mix = expand_ttransform(TTransform(j, k, t), d) @ mix
    alpha = np.sort(mix @ beta)[::-1]
    return alpha, beta


class TestIsMajorized:
    def test_uniform_by_bell(self):
        assert is_majorized([0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0, 0])

    def test_peaked_not_majorized(self):
        assert not is_majorized([0.81, 0.09, 0.09, 0.01], [0.5, 0.5, 0, 0])

    def test_catalyst_instance(self):
        psi = np.array([0.4, 0.4, 0.1, 0.1])
        phi = np.array([0.5, 0.25, 0.25, 0.0])
        cat = np.array([0.6, 0.4])
        alpha = np.sort(np.outer(psi, cat).ravel())[::-1]
        beta = np.sort(np.outer(phi, cat).ravel())[::-1]
        assert is_majorized(alpha, beta)
        # without the catalyst the conversion is not deterministic
        assert not is_majorized(psi, phi)

    def test_pads_unequal_lengths(self):
        assert is_majorized([0.5, 0.5], [1.0])

    def test_iff_unit_probability(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            alpha = random_schmidt_vector(rng, d)
            beta = random_schmidt_vector(rng, d)
            p = vidal_probability(alpha, beta)
            assert is_majorized(alpha, beta) == (abs(p - 1.0) < 1e-12)


class TestVidalProbability:
    def test_desk_value(self):
        assert abs(vidal_probability([0.8, 0.2], [0.5, 0.5]) - 0.4) < 1e-9

    def test_equal_vectors(self):
        v = [0.6, 0.3, 0.1]
        assert abs(vidal_probability(v, v) - 1.0) < 1e-12

    def test_two_copy_instance(self):
        alpha = [0.5625, 0.1875, 0.1875, 0.0625]
        assert abs(vidal_probability(alpha, [0.5, 0.5, 0, 0]) - 0.875) < 1e-9

    def test_rank_deficiency_returns_zero(self):
        assert vidal_probability([1.0, 0.0], [0.5, 0.5]) == 0.0

    def test_range(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            alpha = random_schmidt_vector(rng, d)
            beta = random_schmidt_vector(rng, d)
            p = vidal_probability(alpha, beta)
            assert 0.0 <= p <= 1.0 + 1e-12

    def test_rounding_past_one_is_clipped(self, rng):
        # the Schmidt sum of a random 8x8 source rounds apart from the
        # target's, and the l = 0 tail ratio can land an ulp above 1
        beta = np.zeros(8)
        beta[:2] = 0.5
        for _ in range(200):
            psi = random_pure_state(rng, 64)
            alpha = schmidt_decompose(psi, 8, 8).coefficients
            assert 0.0 <= vidal_probability(alpha, beta) <= 1.0
        assert vidal_probability([0.5 + 1e-13] * 2, [0.5, 0.5]) == 1.0

    def test_excess_beyond_rounding_raises(self):
        # negative entries within UNIT_TOL each, but their sum leaves the
        # l = 2 tail at -1.9e-12: a ratio of -9.5
        alpha = [0.5 + 1.9e-12, 0.5, 1.1e-12, -1e-12, -1e-12, -1e-12]
        with pytest.raises(ArithmeticError):
            vidal_probability(alpha, [0.5, 0.5 - 2e-13, 2e-13])

    def test_sum_off_within_input_tol_reads_one(self):
        # the l = 0 ratio is 1 + 5e-10, a sum error the input check accepts
        assert vidal_probability([0.5 + 2.5e-10] * 2, [0.5, 0.5]) == 1.0

    def test_batch_rows_equal_1d_calls(self, rng):
        beta = np.zeros((3, 8))
        beta[:, :2] = 0.5
        alpha = [random_schmidt_vector(rng, 8) for _ in range(60)]
        alpha += [schmidt_decompose(random_pure_state(rng, 64), 8, 8).coefficients
                  for _ in range(60)]
        alpha += [np.pad([1.0 - 1e-15, 1e-15], (0, 6)),  # rank 1 < 2: the 0.0 path
                  np.pad([0.5 + 1e-13] * 2, (0, 6))]  # sums round apart: clipped
        alpha = np.array(alpha).reshape(-1, 1, 8)
        beta = np.concatenate([beta, [random_schmidt_vector(rng, 8)]])
        batch = vidal_probability(alpha, beta)
        loop = np.array([[vidal_probability(a[0], b) for b in beta] for a in alpha])
        assert batch.shape == (alpha.shape[0], beta.shape[0])
        assert batch.tobytes() == loop.tobytes()
        assert batch[-2, 0] == 0.0 and batch[-1, 0] == 1.0
        assert isinstance(vidal_probability(alpha[0, 0], beta[0]), float)

    def test_batch_checks_every_row(self):
        with pytest.raises(ValueError, match="sum"):
            vidal_probability([[0.5, 0.5], [0.6, 0.5]], [0.5, 0.5])


@pytest.mark.parametrize("call", [
    lambda: vidal_probability([np.nan, 0.5], [0.5, 0.5]),
    lambda: vidal_intermediate([0.5, 0.5], [np.nan, 0.5]),
    lambda: is_majorized([np.nan, 0.5], [1.0, 0.0]),
], ids=["vidal_probability", "vidal_intermediate", "is_majorized"])
def test_nan_schmidt_vector_raises(call):
    with pytest.raises(ValueError, match="non-finite"):
        call()


class TestVidalIntermediate:
    def test_desk_case(self):
        gamma = vidal_intermediate(np.array([0.8, 0.2]), np.array([0.5, 0.5]))
        assert np.allclose(gamma, [0.8, 0.2], atol=1e-12)

    def test_majorized_case_returns_target(self):
        alpha = np.array([0.25, 0.25, 0.25, 0.25])
        beta = np.array([0.5, 0.3, 0.2, 0.0])
        gamma = vidal_intermediate(alpha, beta)
        assert np.allclose(gamma, beta, atol=1e-12)

    def test_two_copy_case(self):
        alpha = np.array([0.5625, 0.1875, 0.1875, 0.0625])
        beta = np.array([0.5, 0.5, 0.0, 0.0])
        gamma = vidal_intermediate(alpha, beta)
        assert np.allclose(gamma, [0.5625, 0.4375, 0.0, 0.0], atol=1e-12)

    def test_postconditions_random(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            alpha = random_schmidt_vector(rng, d)
            beta = random_schmidt_vector(rng, d)
            r = vidal_probability(alpha, beta)
            gamma = vidal_intermediate(alpha, beta)
            assert abs(gamma.sum() - 1.0) < 1e-10
            assert np.all(np.diff(gamma) <= 1e-12)
            assert is_majorized(alpha, gamma)
            on = beta > 1e-14
            assert abs(np.min(gamma[on] / beta[on]) - r) < 1e-9
            # filter feasibility: r*beta never exceeds gamma anywhere
            assert np.all(r * beta <= gamma + 1e-12)


class TestBuildDoublyStochastic:
    def test_two_level(self):
        d = build_doubly_stochastic(np.array([0.75, 0.25]), np.array([1.0, 0.0]))
        assert np.allclose(d, [[0.75, 0.25], [0.25, 0.75]], atol=1e-10)

    def test_identity_case(self):
        v = np.array([0.7, 0.2, 0.1])
        assert np.allclose(build_doubly_stochastic(v, v), np.eye(3), atol=1e-12)

    def test_flat_from_biased(self):
        d = build_doubly_stochastic(np.array([0.5, 0.5]), np.array([0.75, 0.25]))
        assert np.allclose(d, [[0.5, 0.5], [0.5, 0.5]], atol=1e-10)

    def test_majorization_required(self):
        with pytest.raises(ValueError):
            build_doubly_stochastic(np.array([0.9, 0.1]), np.array([0.5, 0.5]))

    def test_random_pairs(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            alpha, beta = random_majorized_pair(rng, d)
            mat = build_doubly_stochastic(alpha, beta)
            assert np.allclose(mat @ beta, alpha, atol=1e-10)
            assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-10)
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-10)
            assert mat.min() > -1e-12


class TestTTransformDecompose:
    def test_two_level(self):
        ts = t_transform_decompose(np.array([0.75, 0.25]), np.array([1.0, 0.0]))
        assert len(ts) == 1
        assert (ts[0].j, ts[0].k) == (0, 1)
        assert abs(ts[0].t - 0.75) < 1e-12

    def test_identity_case(self):
        v = np.array([0.5, 0.3, 0.2])
        assert t_transform_decompose(v, v) == []

    def test_two_copy_case(self):
        alpha = np.array([0.5625, 0.1875, 0.1875, 0.0625])
        beta = np.array([0.5625, 0.4375, 0.0, 0.0])
        ts = t_transform_decompose(alpha, beta)
        assert len(ts) <= 3
        mat = np.eye(4)
        for t in ts:
            mat = expand_ttransform(t, 4) @ mat
        assert np.allclose(mat @ beta, alpha, atol=1e-10)

    def test_count_bound_random(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            alpha, beta = random_majorized_pair(rng, d)
            ts = t_transform_decompose(alpha, beta)
            assert len(ts) <= d - 1
            mat = np.eye(d)
            for t in ts:
                mat = expand_ttransform(t, d) @ mat
            assert np.allclose(mat @ beta, alpha, atol=1e-10)


    @pytest.mark.parametrize("alpha, beta", [
        # the entry over its target is the last one: no k > j exists
        ([0.5, 0.5 - 5e-13], [0.5, 0.5]),
        # over at j = 2 with nothing short after it
        ([0.5, 0.5, 0.0, 0.0], [0.5, 0.5 - 8e-13, 4e-13, 4e-13]),
    ])
    def test_majorized_within_unit_tol(self, alpha, beta):
        assert is_majorized(alpha, beta)
        assert t_transform_decompose(alpha, beta) == []

    @settings(max_examples=300)
    @given(
        d=st.integers(2, 8),
        n=st.integers(0, 8),
        log_eps=st.floats(-14.0, np.log10(3e-12)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_accepted_pair_decomposes(self, d, n, log_eps, seed):
        # alpha a few T-transforms from beta, moved by rounding-sized noise
        rng = np.random.default_rng(seed)
        beta = random_schmidt_vector(rng, d)
        mix = np.eye(d)
        for _ in range(n):
            j, k = sorted(rng.choice(d, size=2, replace=False))
            mix = expand_ttransform(TTransform(j, k, rng.random()), d) @ mix
        alpha = np.sort(mix @ beta + rng.normal(size=d) * 10**log_eps)[::-1]
        assume(alpha.min() >= -1e-12 and is_majorized(alpha, beta))
        ts = t_transform_decompose(alpha, beta)
        assert len(ts) <= d - 1 and all(0.0 <= t.t <= 1.0 for t in ts)
        mat = np.eye(d)
        for t in ts:
            mat = expand_ttransform(t, d) @ mat
        assert abs(mat @ beta - alpha).max() <= 1e-10


class TestGroupTTransforms:
    def _chain(self, rng, d, n):
        ts = []
        for _ in range(n):
            j, k = sorted(rng.choice(d, size=2, replace=False))
            ts.append(TTransform(int(j), int(k), float(rng.random())))
        return ts

    def test_granularities(self, rng):
        d = 5
        ts = self._chain(rng, d, 4)
        full = np.eye(d)
        for t in ts:
            full = expand_ttransform(t, d) @ full
        steps = [(t,) for t in ts]
        ones = group_ttransforms(steps, 1, d)
        assert len(ones) == 4
        alls = group_ttransforms(steps, len(steps), d)
        assert len(alls) == 1
        assert np.allclose(alls[0], full, atol=1e-10)
        twos = group_ttransforms(steps, 2, d)
        assert len(twos) == 2
        prod = np.eye(d)
        for mat in twos:
            prod = mat @ prod
        assert np.allclose(prod, full, atol=1e-10)

    def test_groups_are_doubly_stochastic(self, rng):
        d = 6
        steps = [(t,) for t in self._chain(rng, d, 5)]
        for g in (1, 2, 3, 10):
            for mat in group_ttransforms(steps, g, d):
                assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-10)
                assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-10)
                assert mat.min() > -1e-12

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            group_ttransforms([], 0, 3)


class TestFoldTTransforms:
    def test_disjoint_equal_weights_fold_into_one_step(self):
        # weights 5e-13 apart share the first one's t exactly, so the step
        # is t I + (1-t) P with two Birkhoff terms, not three
        ts = [TTransform(0, 2, 0.5), TTransform(1, 3, 0.5 + 5e-13)]
        steps = fold_ttransforms(ts)
        assert steps == [tuple(ts)]
        (mat,) = group_ttransforms(steps, 1, 4)
        swap = permutation_matrix(np.array([2, 3, 0, 1]))
        assert np.array_equal(mat, 0.5 * np.eye(4) + 0.5 * swap)
        assert len(birkhoff_decompose(mat)) == 2

    def test_overlap_or_unequal_weight_splits(self):
        shared = [TTransform(0, 1, 0.5), TTransform(1, 2, 0.5)]
        assert len(fold_ttransforms(shared)) == 2
        unequal = [TTransform(0, 2, 0.5), TTransform(1, 3, 0.6)]
        assert len(fold_ttransforms(unequal)) == 2

    def test_only_consecutive_runs_fold(self):
        ts = [TTransform(0, 1, 0.3), TTransform(2, 3, 0.7), TTransform(4, 5, 0.3)]
        assert len(fold_ttransforms(ts)) == 3

    def test_steps_replay_the_chain(self, rng):
        d = 6
        ts = [TTransform(0, 3, 0.4), TTransform(1, 4, 0.4), TTransform(2, 5, 0.4),
              TTransform(0, 1, 0.8)]
        full = np.eye(d)
        for t in ts:
            full = expand_ttransform(t, d) @ full
        steps = fold_ttransforms(ts)
        assert [len(s) for s in steps] == [3, 1]
        for g in (1, 2):
            prod = np.eye(d)
            for mat in group_ttransforms(steps, g, d):
                prod = mat @ prod
            assert np.allclose(prod, full, atol=1e-12)


# t near the places where the Birkhoff search changes course: the tie at 0.5
# (1e-15 tolerance) and a second term below the 1e-13 cutoff near 1 and 0
EDGE_T = st.sampled_from([
    0.5, 0.5 - 2**-53, 0.5 + 2**-53, 0.5 - 5e-16, 0.5 + 5e-16, 0.5 - 1e-15,
    0.5 + 1e-15, 0.5 - 2e-15, 1.0, 1.0 - 2**-53, 1.0 - 1e-15, 1.0 - 5e-14,
    1.0 - 1e-13, 1.0 - 2e-13, 0.0, 1e-16, 9.99e-16, 5e-14, 1e-13, 2e-13,
])


class TestStepTerms:
    @settings(max_examples=300)
    @given(
        d=st.integers(2, 8),
        pair_frac=st.floats(0.0, 1.0),
        t=st.one_of(EDGE_T, st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=4, pair_frac=1.0, t=0.5, seed=0)
    @example(d=5, pair_frac=1.0, t=0.5 - 5e-16, seed=1)
    @example(d=3, pair_frac=0.0, t=0.5 + 1e-15, seed=2)
    @example(d=8, pair_frac=1.0, t=1.0 - 5e-14, seed=3)
    @example(d=7, pair_frac=0.5, t=1e-16, seed=4)
    # t below 1/2 goes to the peel: t is below the cutoff, but the fixed
    # diagonal's 1 - (1 - t) = 1.0003e-13 is not, so the identity term stays
    @example(d=3, pair_frac=0.0, t=float(np.nextafter(1e-13, 0)), seed=5)
    @example(d=5, pair_frac=0.0, t=float(np.nextafter(1e-13, 0)), seed=6)
    def test_equals_birkhoff_of_step_matrix(self, d, pair_frac, t, seed):
        order = np.random.default_rng(seed).permutation(d)
        n_pairs = 1 + int(pair_frac * (d // 2 - 1))
        step = tuple(
            TTransform(int(min(j, k)), int(max(j, k)), t)
            for j, k in order[: 2 * n_pairs].reshape(-1, 2)
        )
        got = step_terms(step, d)
        want = birkhoff_decompose(expand_step(step, d))
        assert len(got) == len(want)
        for (q_got, p_got), (q_want, p_want) in zip(got, want):
            assert q_got == q_want
            assert p_got.dtype == p_want.dtype and np.array_equal(p_got, p_want)

    def test_two_terms_of_a_two_pair_step(self):
        step = (TTransform(0, 2, 0.7), TTransform(1, 3, 0.7))
        (q0, p0), (q1, p1) = step_terms(step, 5)
        assert (q0, q1) == (0.7 / (0.7 + (1.0 - 0.7)), (1.0 - 0.7) / (0.7 + (1.0 - 0.7)))
        assert list(p0) == [0, 1, 2, 3, 4] and list(p1) == [2, 3, 0, 1, 4]


class TestCompiledChainSteps:
    """Every step a compile folds has t >= 1/2, so ``step_terms`` takes its closed form.

    ``t_transform_decompose`` levels the smaller gap: with a_j >= a_k the
    gap delta is at most (c_j - c_k) / 2, so t = 1 - delta / (c_j - c_k)
    is at least 1/2, within the ZERO_TOL tie ``step_terms`` grants.
    """

    @given(
        kind=st.sampled_from(["nec", "cec", "random4", "random8"]),
        g=st.integers(1, 3),
        a=st.floats(0.0, 0.5),
        p_d=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="cec", g=1, a=0.1, p_d=0.05, seed=0)
    def test_every_transform_has_t_at_least_half(self, kind, g, a, p_d, seed):
        rho = prepare_state(NoiseParams(a=a, p_d=p_d))
        if kind == "nec":
            planning = nec_planning_states(rho, rho)
        elif kind == "cec":
            spec = find_catalyst(*nec_planning_states(rho, rho))
            planning = cec_planning_states(rho, rho, spec.state)
        else:
            dim = 16 if kind == "random4" else 64
            planning = (random_pure_state(np.random.default_rng(seed), dim), PHI_PLUS)
        schedule = compile_schedule(*planning, g)
        for tt in t_transform_decompose(schedule.alpha, schedule.gamma):
            assert not tt.t < 1.0 - tt.t - ZERO_TOL, tt


class TestBirkhoffDecompose:
    def test_two_by_two(self):
        terms = birkhoff_decompose(np.array([[0.75, 0.25], [0.25, 0.75]]))
        assert len(terms) == 2
        weights = sorted(w for w, _ in terms)
        assert np.allclose(weights, [0.25, 0.75], atol=1e-10)

    @pytest.mark.parametrize("m", [np.zeros((0, 0)), np.zeros(0), np.full((2, 3), 0.5)],
                             ids=["empty", "one-dimensional", "non-square"])
    def test_rejects_empty_or_non_square(self, m):
        with pytest.raises(ValueError, match="not a nonempty square matrix"):
            birkhoff_decompose(m)

    def test_identity(self):
        terms = birkhoff_decompose(np.eye(3))
        assert len(terms) == 1
        w, perm = terms[0]
        assert abs(w - 1.0) < 1e-12
        assert list(perm) == [0, 1, 2]

    def test_from_ttransform_chain(self, rng):
        d = 4
        mat = np.eye(d)
        for _ in range(3):
            j, k = sorted(rng.choice(d, size=2, replace=False))
            mat = expand_ttransform(TTransform(int(j), int(k), rng.random()), d) @ mat
        terms = birkhoff_decompose(mat)
        assert len(terms) <= (d - 1) ** 2 + 1
        rec = sum(w * permutation_matrix(p) for w, p in terms)
        assert np.allclose(rec, mat, atol=1e-10)

    def test_random_reconstruction(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            mats = [permutation_matrix(rng.permutation(d)) for _ in range(d)]
            w = rng.random(d) + 0.05
            w = w / w.sum()
            dmat = sum(wi * mi for wi, mi in zip(w, mats))
            terms = birkhoff_decompose(dmat)
            assert len(terms) <= (d - 1) ** 2 + 1
            assert abs(sum(q for q, _ in terms) - 1.0) < 1e-10
            assert all(q > 0 for q, _ in terms)
            rec = sum(q * permutation_matrix(p) for q, p in terms)
            assert np.allclose(rec, dmat, atol=1e-10)

    def test_deterministic(self, rng):
        d = 5
        mats = [permutation_matrix(rng.permutation(d)) for _ in range(4)]
        w = np.array([0.4, 0.3, 0.2, 0.1])
        dmat = sum(wi * mi for wi, mi in zip(w, mats))
        a = birkhoff_decompose(dmat)
        b = birkhoff_decompose(dmat.copy())
        assert len(a) == len(b)
        for (wa, pa), (wb, pb) in zip(a, b):
            assert abs(wa - wb) < 1e-15
            assert list(pa) == list(pb)


def brute_force_matching(m):
    """Lex-smallest max-bottleneck permutation, by enumerating all of them.

    B is the largest bottleneck over every permutation; the threshold is
    the largest distinct entry above 1e-15 that B reaches within 1e-15;
    the answer is the first permutation in ``itertools`` (lexicographic)
    order whose entries all clear that threshold less 1e-15.
    """
    d = m.shape[0]
    perms = np.array(list(itertools.permutations(range(d))))
    entries = m[np.arange(d), perms]
    bottleneck = entries.min(axis=1).max()
    vals = np.unique(m[m > 1e-15])
    best = vals[vals - 1e-15 <= bottleneck].max()
    return perms[np.flatnonzero((entries >= best - 1e-15).all(axis=1))[0]]


def brute_force_birkhoff(dmat):
    """birkhoff_decompose's greedy loop over the brute-force matching."""
    m = np.array(dmat, dtype=float)
    d = m.shape[0]
    terms = []
    while m.max() >= 1e-13:
        perm = brute_force_matching(m)
        q = float(m[np.arange(d), perm].min())
        m[np.arange(d), perm] -= q
        m[m < 1e-15] = 0.0
        terms.append((q, perm))
    total = sum(q for q, _ in terms)
    return [(q / total, p) for q, p in terms]


NEAR = (-1e-15, -5e-16, -2**-53, 2**-53, 5e-16, 1e-15)


@st.composite
def permutation_mixtures(draw):
    """Doubly-stochastic mixtures of permutations with ties and near-ties.

    Weights are equal, rounded to one decimal (so entries tie), or free;
    optionally some positive entries then move by at most 1e-15, so they
    sit within the matching threshold's 1e-15 of one another.
    """
    d = draw(st.integers(2, 6))
    k = draw(st.integers(1, d + 1))
    perms = [draw(st.permutations(range(d))) for _ in range(k)]
    kind = draw(st.sampled_from(["equal", "rounded", "free"]))
    if kind == "equal":
        w = np.full(k, 1.0 / k)
    else:
        raw = np.array(draw(st.lists(st.floats(0.15, 1.0), min_size=k, max_size=k)))
        w = np.round(raw, 1) if kind == "rounded" else raw
        w = w / w.sum()
    m = np.zeros((d, d))
    for wi, p in zip(w, perms):
        m[np.arange(d), p] += wi
    if draw(st.booleans()):
        pos = np.flatnonzero(m > 1e-12)
        picks = draw(st.lists(st.sampled_from(list(pos)), min_size=1, max_size=4))
        for i in picks:
            m.flat[i] += draw(st.sampled_from(NEAR))
    return m


class TestLexBottleneckReference:
    """The matching and the decomposition equal an independent brute force."""

    @settings(max_examples=200)
    @given(m=permutation_mixtures())
    @example(m=np.full((4, 4), 0.25))
    @example(m=np.array([[0.5, 0.5 + 1e-15, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]))
    def test_matching_equals_brute_force(self, m):
        got = _lex_bottleneck_matching(m)
        assert np.array_equal(got, brute_force_matching(m))

    @settings(max_examples=200)
    @given(m=permutation_mixtures())
    def test_birkhoff_equals_greedy_brute_force(self, m):
        got = birkhoff_decompose(m)
        want = brute_force_birkhoff(m)
        assert len(got) == len(want)
        for (q_got, p_got), (q_want, p_want) in zip(got, want):
            assert q_got == q_want
            assert np.array_equal(p_got, p_want)

    @given(d=st.integers(3, 6), g=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_grouped_round_matrices(self, d, g, seed):
        # the matrices the compiler decomposes: products of g folded steps
        rng = np.random.default_rng(seed)
        alpha, beta = random_majorized_pair(rng, d)
        steps = fold_ttransforms(t_transform_decompose(alpha, beta))
        for mat in group_ttransforms(steps, g, d):
            got = birkhoff_decompose(mat)
            want = brute_force_birkhoff(mat)
            assert [q for q, _ in got] == [q for q, _ in want]
            assert all(np.array_equal(p, r) for (_, p), (_, r) in zip(got, want))


def assert_same_terms(got, want):
    assert len(got) == len(want)
    for (q_got, p_got), (q_want, p_want) in zip(got, want):
        assert q_got == q_want
        assert np.array_equal(p_got, p_want)


def dense_step_product(t):
    """Product of the three 4-pair steps j <-> j xor b, b = 1, 2, 4, on 8 coordinates.

    Every entry is positive, so all 8! = 40320 permutations are perfect
    matchings of its support.
    """
    m = np.eye(8)
    for bit in (1, 2, 4):
        step = tuple(TTransform(j, j ^ bit, t) for j in range(8) if j < j ^ bit)
        m = expand_step(step, 8) @ m
    return m


class TestSupportMatchings:
    """Birkhoff's listed matchings, and the binary search past the cap."""

    @given(m=permutation_mixtures())
    def test_lists_positive_permutations_in_order(self, m):
        d = m.shape[0]
        want = [p for p in itertools.permutations(range(d)) if (m[np.arange(d), p] > 0).all()]
        assert _support_matchings(m.tolist(), len(want)) == want
        assert _support_matchings(m.tolist(), len(want) - 1) is None

    @pytest.mark.parametrize("t", [0.7, 0.5])
    def test_dense_product_falls_back_to_the_search(self, monkeypatch, t):
        m = dense_step_product(t)
        assert (m > 0).all()
        assert _support_matchings(m.tolist(), MATCHING_CAP) is None
        calls = []
        monkeypatch.setattr(
            majorize, "_lex_bottleneck_matching",
            lambda mat: calls.append(1) or _lex_bottleneck_matching(mat),
        )
        got = birkhoff_decompose(m)
        assert len(calls) == len(got)
        assert_same_terms(got, brute_force_birkhoff(m))

    @settings(max_examples=100)
    @given(m=permutation_mixtures())
    def test_search_equals_listed_matchings(self, m):
        listed = birkhoff_decompose(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(majorize, "MATCHING_CAP", 0)
            searched = birkhoff_decompose(m)
        assert_same_terms(searched, listed)


class TestCompiledRoundTerms:
    """The grouped rounds of g = 4..6 compiles hold brute-force Birkhoff terms.

    One-step rounds take ``step_terms``, held to Birkhoff by ``TestStepTerms``;
    the brute force enumerates all 8! matchings at each peel, so it runs on
    the grouped rounds only.
    """

    @settings(max_examples=6)
    @given(
        kind=st.sampled_from(["cec", "random8"]),
        g=st.integers(4, 6),
        a=st.floats(0.05, 0.3),
        p_d=st.floats(0.0, 0.1),
        c1=st.floats(0.5, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="cec", g=6, a=0.1, p_d=0.05, c1=0.8, seed=0)
    def test_grouped_rounds_equal_brute_force_povms(self, kind, g, a, p_d, c1, seed):
        if kind == "cec":
            rho = prepare_state(NoiseParams(a=a, p_d=p_d))
            planning = cec_planning_states(rho, rho, catalyst_from_schmidt(c1).state)
        else:
            planning = (random_pure_state(np.random.default_rng(seed), 64), PHI_PLUS)
        schedule = compile_schedule(*planning, g)
        d = schedule.dim
        steps = fold_ttransforms(t_transform_decompose(schedule.alpha, schedule.gamma))
        groups = group_ttransforms(steps, g, d)
        sizes = [len(steps[i : i + g]) for i in range(0, len(steps), g)]
        assert len(schedule.rounds) == len(groups)
        assert max(sizes) > 1
        for rnd, mat, size in zip(schedule.rounds, reversed(groups), reversed(sizes)):
            if size > 1:
                want = js_povm(brute_force_birkhoff(mat), rnd.target_vector)
                assert np.array_equal(rnd.povm.elements, want.elements)
                assert np.array_equal(rnd.povm.corrections, want.corrections)

class TestExpandTTransform:
    def test_matrix_form(self):
        mat = expand_ttransform(TTransform(0, 2, 0.75), 3)
        expected = np.array(
            [[0.75, 0.0, 0.25], [0.0, 1.0, 0.0], [0.25, 0.0, 0.75]]
        )
        assert np.allclose(mat, expected, atol=1e-12)
