"""Unit tests for the concentration protocols and the distillation baseline."""

import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import bell_diagonal, random_pure_state, werner

import entconc.protocols as protocols
from entconc.protocols import CLIFFORDS
from entconc import (
    NoiseParams,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_PLUS,
    PSI_PLUS,
    CatalystSpec,
    DistillationPlan,
    ProtocolResult,
    assert_density_matrix,
    catalyst_from_schmidt,
    compile_schedule,
    dejmps_plan,
    fidelity,
    find_catalyst,
    optimize_distillation,
    partial_trace,
    prepare_state,
    result_to_document,
    reuse_catalyst,
    run_cec,
    run_distillation,
    run_nec,
    run_schedule,
    schmidt_decompose,
    surrogate,
    vidal_probability,
)


def pure_pair(lam):
    """Two-qubit pure state with Schmidt vector (lam, 1-lam)."""
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(lam)
    v[3] = np.sqrt(1.0 - lam)
    return np.outer(v, v.conj())


def diag_state(schmidt):
    """Bipartite pure state vector with the given Schmidt vector."""
    s = np.asarray(schmidt, dtype=float)
    return np.diag(np.sqrt(s)).ravel().astype(complex)


class TestJointSurrogate:
    def test_matches_full_eigensolve(self, rng):
        rho = prepare_state(NoiseParams(a=0.2, p_d=0.05))
        sur = protocols.nec_planning_states(rho, rho)[0]
        full = np.kron(rho, rho)
        perm_axes = [0, 2, 1, 3]
        t = full.reshape([2] * 8)
        t = t.transpose(perm_axes + [4 + p for p in perm_axes])
        full_party = t.reshape(16, 16)
        evals, evecs = np.linalg.eigh(full_party)
        top = evecs[:, -1]
        assert abs(abs(np.vdot(top, sur)) - 1.0) < 1e-9

    def test_perfect_pairs(self):
        bell_dm = np.outer(PHI_PLUS, PHI_PLUS.conj())
        sur = protocols.nec_planning_states(bell_dm, bell_dm)[0]
        assert abs(np.linalg.norm(sur) - 1.0) < 1e-12


class TestRunNec:
    def test_perfect_inputs(self):
        bell_dm = np.outer(PHI_PLUS, PHI_PLUS.conj())
        res = run_nec(bell_dm, bell_dm)
        assert abs(res.success_probability - 1.0) < 1e-9
        assert abs(res.output_fidelity - 1.0) < 1e-9

    def test_depolarized_inputs(self):
        rho = prepare_state(NoiseParams(p_d=0.05))
        res = run_nec(rho, rho)
        assert abs(res.success_probability - 1.0) < 1e-6
        assert abs(res.infidelity - 0.05) < 0.02

    def test_pure_partially_entangled(self):
        rho = pure_pair(0.75)
        res = run_nec(rho, rho)
        assert abs(res.success_probability - 0.875) < 1e-9
        assert abs(res.output_fidelity - 1.0) < 1e-9

    def test_grouping_preserves_success(self):
        rho = pure_pair(0.75)
        fine = run_nec(rho, rho, g=1)
        coarse = run_nec(rho, rho, g=4)
        assert abs(fine.success_probability - coarse.success_probability) < 1e-9
        assert abs(fine.output_fidelity - coarse.output_fidelity) < 1e-9

    def test_gate_counts_reported(self):
        rho = pure_pair(0.75)
        res = run_nec(rho, rho)
        assert res.gate_counts["B"] == 0
        assert res.mcx_total == res.gate_counts["A"]
        assert res.mcx_total > 0
        assert res.catalyst_post is None


class TestFindCatalyst:
    def test_deterministic_input_gets_product_catalyst(self):
        sur = diag_state([0.25, 0.25, 0.25, 0.25])
        tgt = diag_state([0.5, 0.5, 0.0, 0.0])
        spec = find_catalyst(sur, tgt)
        assert abs(spec.schmidt[0] - 1.0) < 1e-12
        assert abs(spec.achieved_probability - 1.0) < 1e-12

    def test_known_lift_instance(self):
        psi = np.array([0.4, 0.4, 0.1, 0.1])
        phi = np.array([0.5, 0.25, 0.25, 0.0])
        assert abs(vidal_probability(psi, phi) - 0.8) < 1e-12
        spec = find_catalyst(diag_state(psi), diag_state(phi))
        assert abs(spec.achieved_probability - 1.0) < 1e-9
        cat = np.array([0.6, 0.4])
        a = np.sort(np.outer(psi, cat).ravel())[::-1]
        b = np.sort(np.outer(phi, cat).ravel())[::-1]
        assert abs(vidal_probability(a, b) - 1.0) < 1e-12

    def test_matches_dense_grid(self, rng):
        def dense_best(sigma, tau, n=50001):
            c1 = np.linspace(0.5, 1.0, n)
            cats = np.stack([c1, 1.0 - c1], axis=1)
            a = np.sort((sigma[None, :, None] * cats[:, None, :])
                        .reshape(n, 8), axis=1)[:, ::-1]
            b = np.sort((tau[None, :, None] * cats[:, None, :])
                        .reshape(n, 8), axis=1)[:, ::-1]
            ea = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
            eb = np.cumsum(b[:, ::-1], axis=1)[:, ::-1]
            ratios = np.where(eb > 1e-14, ea / np.maximum(eb, 1e-300), np.inf)
            p = np.minimum(1.0, ratios.min(axis=1))
            return float(p.max())

        for _ in range(10):
            sigma = np.sort(rng.random(4) + 0.02)[::-1]
            sigma = sigma / sigma.sum()
            tau = np.sort(rng.random(4) + 0.02)[::-1]
            tau = tau / tau.sum()
            spec = find_catalyst(diag_state(sigma), diag_state(tau))
            oracle = dense_best(sigma, tau)
            assert abs(spec.achieved_probability - oracle) < 1e-3

    @staticmethod
    def loop_catalyst(surrogate, target):
        """The grid scan as a loop of 1-D vidal_probability calls, keeping
        the last c1 within 1e-12 of the running best."""
        sigma = schmidt_decompose(surrogate, 4, 4).coefficients
        tau = schmidt_decompose(target, 2, 2).coefficients
        best_c1, best_p = 1.0, -1.0
        for i in range(5001):
            c1 = 0.5 + i * 1e-4
            cat = np.array([c1, 1.0 - c1])
            p = vidal_probability(np.sort(np.outer(sigma, cat).ravel())[::-1],
                                  np.sort(np.outer(tau, cat).ravel())[::-1])
            if p > best_p - 1e-12:
                best_p, best_c1 = max(best_p, p), c1
        return best_c1, best_p

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=-1)
    @example(seed=-2)
    @example(seed=-3)
    @example(seed=0)
    def test_matches_loop_of_1d_calls(self, seed):
        if seed < 0:
            # deterministically convertible: every c1 ties at 1, so c1 = 1
            source = {
                -1: np.eye(4).ravel().astype(complex) / 2.0,
                # the same four equal coefficients, as the surrogate path builds them
                -2: protocols.nec_planning_states(*[np.outer(PHI_PLUS, PHI_PLUS.conj())] * 2)[0],
                # an equal pair and two zeros
                -3: diag_state([0.5, 0.5, 0.0, 0.0]),
            }[seed]
        else:
            source = random_pure_state(np.random.default_rng(seed), 16)
        c1, prob = self.loop_catalyst(source, PHI_PLUS)
        spec = find_catalyst(source, PHI_PLUS)
        assert spec.schmidt[0] == min(c1, 1.0)
        assert spec.achieved_probability == prob
        if seed < 0:
            assert c1 == 1.0 and prob == 1.0

    def test_one_probability_call(self, monkeypatch):
        calls = []
        score = protocols.vidal_probability
        monkeypatch.setattr(protocols, "vidal_probability",
                            lambda a, b: calls.append(1) or score(a, b))
        rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
        find_catalyst(protocols.nec_planning_states(rho, rho)[0], PHI_PLUS)
        assert len(calls) == 1

    @pytest.mark.parametrize("which", [0, 1])
    def test_state_off_equal_halves_raises(self, which):
        states = [diag_state([0.5, 0.3, 0.2, 0.0]), PHI_PLUS]
        states[which] = np.ones(8, dtype=complex) / np.sqrt(8)
        with pytest.raises(ValueError, match="equal halves"):
            find_catalyst(*states)

    def test_three_by_three_source_is_accepted(self):
        sigma = np.array([0.6, 0.3, 0.1])
        spec = find_catalyst(diag_state(sigma), PHI_PLUS)
        joint = (np.sort(np.outer(v, spec.schmidt).ravel())[::-1] for v in (sigma, [0.5, 0.5]))
        assert abs(spec.achieved_probability - vidal_probability(*joint)) < 1e-12
        assert spec.achieved_probability >= vidal_probability(sigma, [0.5, 0.5])

    @pytest.mark.parametrize("which", [0, 1])
    def test_nan_state_raises(self, which):
        states = [diag_state([0.4, 0.3, 0.2, 0.1]), PHI_PLUS.copy()]
        states[which][0] = np.nan
        with pytest.raises(ValueError, match="norm"):
            find_catalyst(*states)

    def test_schmidt_ordering(self):
        spec = catalyst_from_schmidt(0.7)
        assert spec.schmidt[0] >= spec.schmidt[1]
        assert abs(np.linalg.norm(spec.state) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            catalyst_from_schmidt(0.3)


class TestRunCec:
    def test_perfect_inputs_product_catalyst(self):
        bell_dm = np.outer(PHI_PLUS, PHI_PLUS.conj())
        res = run_cec(bell_dm, bell_dm, catalyst_from_schmidt(1.0))
        assert abs(res.success_probability - 1.0) < 1e-9
        assert abs(res.output_fidelity - 1.0) < 1e-9
        assert abs(res.catalyst_fidelity_after - 1.0) < 1e-9

    def test_pure_lift_instance(self):
        rho = pure_pair(0.85)
        nec = run_nec(rho, rho)
        assert abs(nec.success_probability - 0.555) < 1e-9
        from entconc.protocols import nec_planning_states

        sur, tgt = nec_planning_states(rho, rho)
        spec = find_catalyst(sur, tgt)
        assert spec.achieved_probability > nec.success_probability + 0.1
        res = run_cec(rho, rho, spec)
        assert abs(res.success_probability - spec.achieved_probability) < 1e-9
        assert abs(res.output_fidelity - 1.0) < 1e-9
        assert abs(res.catalyst_fidelity_after - 1.0) < 1e-9

    def test_catalyst_degrades_with_pair_noise(self):
        rho = prepare_state(NoiseParams(p_d=0.05))
        res = run_cec(rho, rho, catalyst_from_schmidt(0.75))
        assert res.catalyst_fidelity_before == pytest.approx(1.0, abs=1e-12)
        assert res.catalyst_fidelity_after < 1.0 - 1e-6
        worse = run_cec(
            prepare_state(NoiseParams(p_d=0.1)),
            prepare_state(NoiseParams(p_d=0.1)),
            catalyst_from_schmidt(0.75),
        )
        assert worse.catalyst_fidelity_after < res.catalyst_fidelity_after


class TestDegenerateTopEigenspace:
    """At a = 0 and p_d > 3/4 both pairs plan against Phi-, a deterministic conversion."""

    @pytest.mark.parametrize("p_d", [0.8, 0.825])
    def test_nec_and_cec_succeed_at_eight_mcx(self, p_d):
        from entconc.protocols import nec_planning_states

        rho = prepare_state(NoiseParams(a=0.0, p_d=p_d))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            nec = run_nec(rho, rho)
            spec = find_catalyst(*nec_planning_states(rho, rho))
            cec = run_cec(rho, rho, spec)
        for res in (nec, cec):
            assert res.success_probability == pytest.approx(1.0, abs=1e-12)
            assert res.schedule.mcx_total == 8


class TestCleanPairSacrifice:
    """At a = 0 one pair is sacrificed and the output keeps only its own noise."""

    PDS = (0.01, 0.02, 0.03, 0.04, 0.05)

    def _infidelities(self, p_d):
        from entconc.protocols import nec_planning_states

        rho = prepare_state(NoiseParams(a=0.0, p_d=p_d))
        cat = find_catalyst(*nec_planning_states(rho, rho))
        return run_nec(rho, rho).infidelity, run_cec(rho, rho, cat).infidelity

    def test_product_catalyst_is_inert(self):
        for p_d in (0.02, 0.05):
            rho = prepare_state(NoiseParams(a=0.0, p_d=p_d))
            nec = run_nec(rho, rho)
            cec = run_cec(rho, rho, catalyst_from_schmidt(1.0))
            assert np.max(np.abs(cec.output_state - nec.output_state)) < 1e-12
            assert cec.catalyst_fidelity_after == pytest.approx(1.0, abs=1e-12)

    def test_catalyst_fidelity_stays_in_unit_interval(self):
        # rounding once carried this fidelity to 1.0000000000000002
        rho = prepare_state(NoiseParams(a=0.0, p_d=0.02))
        cec = run_cec(rho, rho, catalyst_from_schmidt(1.0))
        assert 0.0 <= cec.catalyst_fidelity_after <= 1.0

    def test_infidelity_equals_pd_and_is_ulp_stable(self):
        for p_d in self.PDS:
            base = self._infidelities(p_d)
            bumped = self._infidelities(p_d * (1 + 1e-13))
            for value, moved in zip(base, bumped):
                assert abs(value - p_d) < 1e-9
                assert abs(moved - value) <= 1e-9


class TestReuseCatalyst:
    def test_perfect_reuse_is_identical(self):
        bell_dm = np.outer(PHI_PLUS, PHI_PLUS.conj())
        first = run_cec(bell_dm, bell_dm, catalyst_from_schmidt(1.0))
        again = reuse_catalyst(first, bell_dm, bell_dm)
        assert abs(again.success_probability - first.success_probability) < 1e-9
        assert abs(again.output_fidelity - first.output_fidelity) < 1e-9
        assert abs(again.catalyst_fidelity_after - first.catalyst_fidelity_after) < 1e-9

    def test_reuse_degrades_output(self):
        rho = prepare_state(NoiseParams(p_d=0.05))
        first = run_cec(rho, rho, catalyst_from_schmidt(1.0))
        second = reuse_catalyst(first, rho, rho)
        assert second.infidelity >= first.infidelity - 1e-9
        nec = run_nec(rho, rho)
        assert second.success_probability >= nec.success_probability - 1e-9

    def test_chained_reuse_monotone_catalyst_fidelity(self):
        rho = prepare_state(NoiseParams(p_d=0.05))
        res = run_cec(rho, rho, catalyst_from_schmidt(0.75))
        fids = [res.catalyst_fidelity_after]
        for _ in range(3):
            res = reuse_catalyst(res, rho, rho)
            fids.append(res.catalyst_fidelity_after)
        assert all(b < a for a, b in zip(fids, fids[1:]))

    def test_requires_catalyst(self):
        rho = pure_pair(0.75)
        nec = run_nec(rho, rho)
        with pytest.raises(ValueError):
            reuse_catalyst(nec, rho, rho)


class TestScheduleReplay:
    """Reuse replays the schedule compiled for the ideal catalyst."""

    RHO = prepare_state(NoiseParams(a=0.1, p_d=0.05))

    @pytest.fixture(scope="class")
    def spec(self):
        return find_catalyst(*protocols.nec_planning_states(self.RHO, self.RHO))

    def test_reuse_compiles_only_when_recompiling(self, monkeypatch, spec):
        calls = []
        compile_ = protocols.compile_schedule
        monkeypatch.setattr(protocols, "compile_schedule",
                            lambda src, tgt, g: calls.append(g) or compile_(src, tgt, g))
        first = run_cec(self.RHO, self.RHO, spec, 2)
        assert calls == [2]
        second = reuse_catalyst(first, self.RHO, self.RHO)
        assert calls == [2]
        third = reuse_catalyst(second, self.RHO, self.RHO, recompile_from_state=True)
        assert calls == [2, 2]
        # pairs other than the original run's still replay its schedule
        other = prepare_state(NoiseParams(a=0.2, p_d=0.01))
        fourth = reuse_catalyst(third, other, other)
        assert calls == [2, 2]
        for res in (second, third, fourth):
            assert res.schedule is first.schedule
            assert res.catalyst_spec is spec
        assert fourth.mcx_total == first.mcx_total

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("p_g", [0.0, 0.01])
    def test_links_match_explicit_reference(self, spec, g, p_g):
        rho = self.RHO
        planned = compile_schedule(*protocols.cec_planning_states(rho, rho, spec.state), g)
        res = run_cec(rho, rho, spec, g, p_g)
        assert res.schedule.group_size == g
        for recompile in (False, True, False):
            cat = res.catalyst_post
            schedule = planned
            if recompile:
                planning = protocols.cec_planning_states(rho, rho, surrogate(cat))
                schedule = compile_schedule(*planning, g)
            state = protocols._parties(rho, rho, cat)
            prob, rho_out = run_schedule(schedule, state, p_g)
            first = res
            res = reuse_catalyst(first, rho, rho, p_g, recompile_from_state=recompile)
            assert res.success_probability == prob
            assert np.array_equal(res.output_state, partial_trace(rho_out, keep=[0, 3]))
            assert np.array_equal(res.catalyst_post, partial_trace(rho_out, keep=[2, 5]))
            assert res.catalyst_fidelity_before == fidelity(cat, spec.state)
            assert res.catalyst_fidelity_after == fidelity(res.catalyst_post, spec.state)
            assert res.mcx_total == schedule.mcx_total
            assert res.schedule is first.schedule

    @pytest.mark.parametrize("a, p_d, g, p_g", [
        (0.1, 0.05, 2, 0.02), (0.1, 0.05, 3, 0.015), (0.2, 0.02, 3, 0.01),
    ])
    def test_recompile_at_gate_noise(self, a, p_d, g, p_g):
        rho = prepare_state(NoiseParams(a=a, p_d=p_d))
        spec = find_catalyst(protocols.nec_planning_states(rho, rho)[0], PHI_PLUS)
        first = run_cec(rho, rho, spec, g, p_g)
        reuse_catalyst(first, rho, rho, p_g, recompile_from_state=True)

    def test_distillation_carries_no_schedule(self):
        res = run_distillation(self.RHO, self.RHO, dejmps_plan())
        assert res.schedule is None
        assert run_nec(self.RHO, self.RHO).schedule is not None


class TestInputValidation:
    RHO = prepare_state(NoiseParams(a=0.1, p_d=0.05))

    def test_unnormalized_pair_raises(self):
        with pytest.raises(ValueError, match="trace"):
            run_nec(2.0 * self.RHO, self.RHO)

    def test_non_positive_pair_raises(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            run_cec(self.RHO, bad, catalyst_from_schmidt(0.75))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="4x4"):
            run_distillation(np.eye(8) / 8, self.RHO, dejmps_plan())

    def test_reuse_checks_its_pairs(self):
        first = run_cec(self.RHO, self.RHO, catalyst_from_schmidt(0.75))
        with pytest.raises(ValueError, match="Hermitian"):
            reuse_catalyst(first, self.RHO + 0.1j * np.eye(4), self.RHO)

    GATE_NOISE_RUNNERS = {
        "run_nec": lambda rho, p_g: run_nec(rho, rho, p_g=p_g),
        "run_cec": lambda rho, p_g: run_cec(rho, rho, catalyst_from_schmidt(0.75), p_g=p_g),
        "reuse_catalyst": lambda rho, p_g: reuse_catalyst(
            run_cec(rho, rho, catalyst_from_schmidt(0.75)), rho, rho, p_g=p_g
        ),
        "run_distillation": lambda rho, p_g: run_distillation(rho, rho, dejmps_plan(), p_g),
        "optimize_distillation": lambda rho, p_g: optimize_distillation(rho, rho, p_g),
    }

    # 1.5 is the even-power case: lambda = -1 and lambda^2 = 1 would look noiseless
    @pytest.mark.parametrize("p_g", [-0.01, 1.2, 1.5, float("nan")])
    @pytest.mark.parametrize("runner", sorted(GATE_NOISE_RUNNERS))
    def test_invalid_gate_noise_raises(self, runner, p_g):
        with pytest.raises(ValueError, match="p_g"):
            self.GATE_NOISE_RUNNERS[runner](self.RHO, p_g)

    def count_checks(self, monkeypatch) -> list:
        calls = []
        check = protocols.assert_density_matrix
        monkeypatch.setattr(protocols, "assert_density_matrix",
                            lambda rho: calls.append(1) or check(rho))
        return calls

    def test_search_validates_once(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        # a copy holds the same value, so the memoized check runs once
        optimize_distillation(self.RHO, self.RHO.copy())
        assert len(calls) == 1

    def test_one_object_as_both_pairs_is_checked_once(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        optimize_distillation(self.RHO, self.RHO)
        assert len(calls) == 1

    BAD_PAIRS = {
        "unnormalized": (3.0 * RHO, "trace"),
        "non-positive": (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), "eigenvalue"),
        "non-Hermitian": (RHO + 0.1j * np.eye(4), "Hermitian"),
        "3x3": (np.eye(3) / 3, "4x4"),
    }

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", sorted(BAD_PAIRS))
    def test_planners_check_pairs_as_runners_do(self, bad, which):
        pairs = [self.RHO, self.RHO]
        pairs[which], match = self.BAD_PAIRS[bad]
        spec = catalyst_from_schmidt(0.75)
        calls = [
            (lambda: protocols.nec_planning_states(*pairs), lambda: run_nec(*pairs)),
            (lambda: protocols.cec_planning_states(*pairs, spec.state),
             lambda: run_cec(*pairs, spec)),
        ]
        for plan, run in calls:
            with pytest.raises(ValueError, match=match) as planned:
                plan()
            with pytest.raises(ValueError) as ran:
                run()
            assert str(planned.value) == str(ran.value)

    @pytest.mark.parametrize("catalyst", [
        np.array([2.0, 0.0, 0.0, 0.0], dtype=complex),
        np.array([np.nan, 0.0, 0.0, 1.0], dtype=complex),
        np.array([np.inf, 0.0, 0.0, 0.0], dtype=complex),
        np.array([1.0 + 2e-12, 0.0, 0.0, 0.0], dtype=complex),
    ], ids=["norm 2", "NaN", "inf", "norm 1 + 2e-12"])
    def test_catalyst_must_have_unit_norm(self, catalyst):
        with pytest.raises(ValueError, match="catalyst must have finite entries and unit norm"):
            protocols.cec_planning_states(self.RHO, self.RHO, catalyst)
        spec = CatalystSpec(schmidt=np.array([1.0, 0.0]), state=catalyst)
        with pytest.raises(ValueError, match="catalyst must have finite entries and unit norm"):
            run_cec(self.RHO, self.RHO, spec)

    def test_catalyst_norm_within_unit_tol_passes(self):
        catalyst = np.array([1.0 + 5e-13, 0.0, 0.0, 0.0], dtype=complex)
        source, target = protocols.cec_planning_states(self.RHO, self.RHO, catalyst)
        assert source.shape == target.shape == (64,)

    @pytest.mark.parametrize("catalyst", [
        np.array([1.0, 0.0, 0.0], dtype=complex),
        np.array([1.0, 0.0, 0.0, 0.0, 0.0], dtype=complex),
        np.eye(4, dtype=complex) / 4,
    ], ids=["3 entries", "5 entries", "4x4 matrix"])
    def test_catalyst_must_be_a_pair_vector(self, catalyst):
        with pytest.raises(ValueError, match="catalyst must be a 4-entry pair vector"):
            protocols.cec_planning_states(self.RHO, self.RHO, catalyst)
        spec = CatalystSpec(schmidt=np.array([1.0, 0.0]), state=catalyst)
        with pytest.raises(ValueError, match="catalyst must be a 4-entry pair vector"):
            run_cec(self.RHO, self.RHO, spec)

    @pytest.mark.parametrize("gates", [
        (np.eye(3), np.eye(3)),
        (np.eye(2),),
        (2.0 * np.eye(2), 2.0 * np.eye(2)),
        (np.eye(2), np.full((2, 2), np.nan)),
    ], ids=["3x3", "one gate", "2I", "NaN"])
    def test_distillation_plan_gates_checked(self, gates):
        with pytest.raises(ValueError, match="distillation plan must hold two unitary 2x2 gates"):
            run_distillation(self.RHO, self.RHO, DistillationPlan(gates, "Z"))

    def test_clifford_plans_pass_the_gate_check(self):
        for gate in CLIFFORDS:
            run_distillation(self.RHO, self.RHO, DistillationPlan((gate, CLIFFORDS[-1]), "X"))
        run_distillation(self.RHO, self.RHO, dejmps_plan())


class TestWarmSweepPoint:
    """A four-protocol sweep point checks and plans each distinct pair once."""

    ARGS = ["sweep", "--protocols", "nec,cec,catalyst-reuse,distillation",
            "--axis", "pd", "--range", "0.05:0.05:0.05", "--a", "0.1"]

    @staticmethod
    def counted(monkeypatch) -> dict:
        counts = {"surrogate": 0, "assert_density_matrix": 0}
        for name in counts:
            func = getattr(protocols, name)

            def counted(*args, _name=name, _func=func):
                counts[_name] += 1
                return _func(*args)

            monkeypatch.setattr(protocols, name, counted)
        return counts

    def test_surrogates_and_checks_per_point(self, monkeypatch, capsys):
        from entconc.cli import main

        assert main(self.ARGS) == 0
        counts = self.counted(monkeypatch)
        assert main(self.ARGS) == 0
        capsys.readouterr()
        # the pair and reuse's catalyst_post were checked, and the pair
        # planned, by the first run; the same values hit both memos
        assert counts == {"surrogate": 0, "assert_density_matrix": 0}

    def test_cold_point_checks_two_pairs_and_plans_one(self, monkeypatch, capsys):
        from entconc.cli import main

        counts = self.counted(monkeypatch)
        assert main(self.ARGS) == 0
        # one surrogate of the pair; checks of the pair and of catalyst_post
        assert counts == {"surrogate": 1, "assert_density_matrix": 2}
        assert protocols._pair_surrogate.cache_info().currsize == 1
        assert protocols._check_pair.cache_info().currsize == 2
        assert main(self.ARGS) == 0
        capsys.readouterr()
        assert counts == {"surrogate": 1, "assert_density_matrix": 2}


class TestPairMemos:
    """The check and surrogate memos hold passed checks of pair values only."""

    RHO = prepare_state(NoiseParams(a=0.1, p_d=0.05))

    def test_pair_changed_in_place_is_checked_again(self):
        rho = self.RHO.copy()
        run_nec(rho, rho)
        optimize_distillation(rho, rho)
        rho[0, 1] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            run_nec(rho, rho)
        with pytest.raises(ValueError, match="Hermitian"):
            optimize_distillation(rho, rho)
        with pytest.raises(ValueError, match="Hermitian"):
            protocols.nec_planning_states(rho, rho)

    def test_failed_check_is_not_kept(self, monkeypatch):
        calls = []
        check = protocols.assert_density_matrix
        monkeypatch.setattr(protocols, "assert_density_matrix",
                            lambda rho: calls.append(1) or check(rho))
        bad = self.RHO + 0.1j * np.eye(4)
        for _ in range(3):
            with pytest.raises(ValueError, match="Hermitian"):
                run_nec(bad, bad)
        assert len(calls) == 3
        assert protocols._check_pair.cache_info().currsize == 0
        assert protocols._pair_surrogate.cache_info().currsize == 0

    def test_kept_surrogate_equals_a_fresh_one(self):
        first, _ = protocols.nec_planning_states(self.RHO, self.RHO)
        again, _ = protocols.nec_planning_states(self.RHO.copy(), self.RHO)
        top = protocols._pair_surrogate(self.RHO.tobytes())
        assert top.tobytes() == surrogate(self.RHO).tobytes()
        assert not top.flags.writeable
        assert first.tobytes() == again.tobytes()
        assert protocols._pair_surrogate.cache_info().misses == 1

    def test_degenerate_surrogate_warns_on_a_cold_call(self):
        rho = prepare_state(NoiseParams(a=0.0, p_d=0.8))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            protocols.nec_planning_states(rho, rho)
        protocols._pair_surrogate.cache_clear()
        with pytest.warns(RuntimeWarning, match="degenerate"):
            run_nec(rho, rho)

    def test_recompiled_reuse_takes_the_catalyst_surrogate_afresh(self, monkeypatch):
        spec = catalyst_from_schmidt(0.75)
        first = run_cec(self.RHO, self.RHO, spec)
        calls = []
        monkeypatch.setattr(protocols, "surrogate", lambda rho: calls.append(1) or surrogate(rho))
        reuse_catalyst(first, self.RHO, self.RHO, recompile_from_state=True)
        reuse_catalyst(first, self.RHO, self.RHO, recompile_from_state=True)
        assert len(calls) == 2
        assert protocols._pair_surrogate.cache_info().currsize == 1


class TestRunDistillation:
    def test_perfect_inputs(self):
        bell_dm = np.outer(PHI_PLUS, PHI_PLUS.conj())
        res = run_distillation(bell_dm, bell_dm, dejmps_plan())
        assert abs(res.success_probability - 1.0) < 1e-9
        assert abs(res.output_fidelity - 1.0) < 1e-9

    def test_werner_oracle(self):
        rho = werner(0.8)
        res = run_distillation(rho, rho, dejmps_plan())
        assert abs(res.output_fidelity - 0.8381502890173411) < 1e-9
        assert abs(res.success_probability - 0.7688888888888889) < 1e-9

    def test_fully_mixed_fixed_point(self):
        rho = np.eye(4, dtype=complex) / 4.0
        res = run_distillation(rho, rho, dejmps_plan())
        assert abs(res.output_fidelity - 0.25) < 1e-12

    def test_gate_noise_reduces_fidelity(self):
        rho = werner(0.9)
        clean = run_distillation(rho, rho, dejmps_plan(), p_g=0.0)
        noisy = run_distillation(rho, rho, dejmps_plan(), p_g=0.02)
        assert noisy.output_fidelity < clean.output_fidelity

    def test_invalid_basis(self):
        rho = werner(0.9)
        plan = DistillationPlan(alice_gates=dejmps_plan().alice_gates, basis="W")
        with pytest.raises(ValueError):
            run_distillation(rho, rho, plan)

    def test_plan_that_never_accepts_raises(self):
        # phi+ (x) psi+ after the bilateral CNOT always shows unequal Z outcomes
        plan = DistillationPlan(alice_gates=(np.eye(2), np.eye(2)), basis="Z")
        phi = np.outer(PHI_PLUS, PHI_PLUS.conj())
        psi = np.outer(PSI_PLUS, PSI_PLUS.conj())
        with pytest.raises(ArithmeticError):
            run_distillation(phi, psi, plan)


def on_qubits(ops):
    """16x16 operator: ops[q] on qubit q of four, identity elsewhere."""
    return reduce(np.kron, [ops.get(q, np.eye(2)) for q in range(4)])


P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
REF_BASES = {
    "Z": (np.array([1, 0]), np.array([0, 1])),
    "X": (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)),
    "Y": (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)),
}


def reference_family(rho_a, rho_b, p_g):
    """Acceptance and fidelity of every mirrored-Clifford plan, in plan
    index order, from the four-qubit state: mirrored gates, then per CNOT
    the depolarizing Kraus sums on its two qubits and the 16x16 CNOT, then
    the equal-outcome projectors on the second pair."""
    gates = np.array([
        on_qubits({0: gi, 1: gi.conj(), 2: gj, 3: gj.conj()})
        for gi in CLIFFORDS for gj in CLIFFORDS
    ])
    rho = gates @ np.kron(rho_a, rho_b) @ gates.conj().transpose(0, 2, 1)
    for c, t in ((0, 2), (1, 3)):
        for q in (c, t):
            kraus = [np.sqrt(1.0 - p_g) * np.eye(16)] + [
                np.sqrt(p_g / 3) * on_qubits({q: p}) for p in (PAULI_X, PAULI_Z, PAULI_Y)
            ]
            rho = sum(k @ rho @ k.conj().T for k in kraus)
        cnot = on_qubits({c: P0}) + on_qubits({c: P1, t: PAULI_X})
        rho = cnot @ rho @ cnot.T
    weights, fids = [], []
    for basis in ("Z", "X", "Y"):
        projs = [on_qubits({2: np.outer(v, v.conj()), 3: np.outer(v, v.conj())})
                 for v in REF_BASES[basis]]
        acc = sum(p @ rho @ p for p in projs)
        out = np.trace(acc.reshape(-1, 4, 4, 4, 4), axis1=2, axis2=4)
        w = np.trace(out, axis1=1, axis2=2).real
        weights.append(w)
        fids.append(np.einsum("a,nab,b->n", PHI_PLUS.conj(), out, PHI_PLUS).real / w)
    return np.stack(weights, axis=1).ravel(), np.stack(fids, axis=1).ravel()


def chain_choice(weights, fids):
    """First plan to beat the incumbent by more than 1e-12, in index order,
    skipping acceptance below 1e-9."""
    best, best_fid = None, -1.0
    for index, (w, f) in enumerate(zip(weights, fids)):
        if w >= 1e-9 and f > best_fid + 1e-12:
            best, best_fid = index, f
    return best


def family_scores(rho_a, rho_b, p_g):
    """Acceptance and fidelity of every plan, from the states ``_distill`` forms."""
    stack = np.array(CLIFFORDS)
    acc = protocols._distill(rho_a, rho_b, stack, stack, p_g).reshape(-1, 4, 4)
    weights = np.einsum("naa->n", acc).real
    return weights, np.einsum("a,nab,b->n", PHI_PLUS.conj(), acc, PHI_PLUS).real / weights


class TestDistillationFamily:
    @given(
        kind=st.sampled_from(["bell", "full"]),
        p_g=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="bell", p_g=0.0, seed=0)
    @example(kind="full", p_g=0.05, seed=1)
    def test_matches_four_qubit_reference(self, kind, p_g, seed):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(2):
            if kind == "bell":
                w = rng.random(4) + 0.01
                pairs.append(bell_diagonal(w / w.sum()))
            else:
                m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                pairs.append(m @ m.conj().T / np.trace(m @ m.conj().T).real)
        rho_a, rho_b = pairs
        weights, fids = reference_family(rho_a, rho_b, p_g)
        got_w, got_f = family_scores(rho_a, rho_b, p_g)
        assert np.max(np.abs(got_w - weights)) <= 1e-12
        assert np.max(np.abs(got_f - fids)) <= 1e-12
        plan = optimize_distillation(rho_a, rho_b, p_g)
        assert plan.index == chain_choice(weights, fids)
        res = run_distillation(rho_a, rho_b, plan, p_g)
        assert abs(res.success_probability - weights[plan.index]) <= 1e-12
        assert abs(res.output_fidelity - fids[plan.index]) <= 1e-12


class TestTieScan:
    @pytest.mark.parametrize("fids", [
        [0.5, 0.5 + 0.8e-12, 0.5 + 1.6e-12, 0.5 + 2.4e-12],
        [0.5, 0.5 + 1e-12, 0.5 + 2e-12, 0.5 + 3e-12],
        [0.5, 0.5 + 1.2e-12, 0.5 + 2.4e-12, 0.5 + 3.6e-12],
        [0.3, 0.7, 0.7, 0.7 + 1e-13, 0.7, 0.9, 0.9],
        [0.9, 0.8, 0.7, 0.6, 0.5],
        [0.25] * 6,
        [0.0],
    ])
    def test_matches_plain_loop(self, fids):
        fids = np.array(fids)
        assert protocols._first_best(fids) == chain_choice(np.ones(fids.size), fids)

    def test_matches_plain_loop_on_fine_ladders(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            steps = rng.choice([-1e-12, 0.0, 0.8e-12, 1e-12, 1.2e-12], size=40)
            fids = 0.5 + np.cumsum(steps)
            assert protocols._first_best(fids) == chain_choice(np.ones(fids.size), fids)

    @pytest.mark.parametrize("p_g", [0.0, 0.01])
    @pytest.mark.parametrize("rho_a, rho_b", [
        (werner(0.8), werner(0.8)),
        (werner(0.6), werner(0.9)),
        (bell_diagonal([0.4, 0.2, 0.2, 0.2]), bell_diagonal([0.4, 0.2, 0.2, 0.2])),
        (bell_diagonal([0.7, 0.1, 0.1, 0.1]), bell_diagonal([0.5, 0.5, 0.0, 0.0])),
        (bell_diagonal([0.25] * 4), werner(0.75)),
    ])
    def test_search_matches_family_on_ties(self, rho_a, rho_b, p_g):
        weights, fids = family_scores(rho_a, rho_b, p_g)
        plan = optimize_distillation(rho_a, rho_b, p_g)
        assert plan.index == chain_choice(weights, fids)

    def test_full_gate_noise_ties_every_plan(self):
        rho = werner(0.9)
        weights, fids = family_scores(rho, rho, 0.75)
        assert np.allclose(fids, 0.25, atol=1e-12)
        assert optimize_distillation(rho, rho, 0.75).index == chain_choice(weights, fids)


class TestOptimizeDistillation:
    def test_never_worse_than_reference_plan(self, rng):
        w = rng.random(4) + 0.05
        w = w / w.sum()
        w = np.sort(w)[::-1]
        rho = bell_diagonal(w)
        plan = optimize_distillation(rho, rho)
        best = run_distillation(rho, rho, plan)
        ref = run_distillation(rho, rho, dejmps_plan())
        assert best.output_fidelity >= ref.output_fidelity - 1e-12

    def test_perfect_inputs_reach_unit_fidelity(self):
        bell_dm = np.outer(PHI_PLUS, PHI_PLUS.conj())
        plan = optimize_distillation(bell_dm, bell_dm)
        res = run_distillation(bell_dm, bell_dm, plan)
        assert abs(res.output_fidelity - 1.0) < 1e-9

    def test_deterministic_plan_choice(self):
        rho = werner(0.75)
        p1 = optimize_distillation(rho, rho)
        p2 = optimize_distillation(rho, rho)
        assert p1.index == p2.index
        assert p1.basis == p2.basis


class TestResultDocument:
    def test_document_roundtrips_to_json(self):
        rho = pure_pair(0.75)
        res = run_nec(rho, rho)
        doc = result_to_document(res) | {"params": {"a": 0.0, "p_d": 0.0, "g": 1}}
        blob = json.loads(json.dumps(doc))
        assert abs(blob["success_probability"] - 0.875) < 1e-9
        assert blob["catalyst_post"] is None
        assert blob["params"]["g"] == 1
        assert blob["mcx_total"] == res.mcx_total
        assert blob["branch_count"] == res.branch_count

    def test_catalytic_fields_present(self):
        rho = prepare_state(NoiseParams(p_d=0.02))
        res = run_cec(rho, rho, catalyst_from_schmidt(0.75))
        doc = result_to_document(res)
        assert doc["catalyst_fidelity_after"] < 1.0
        assert len(doc["catalyst_post"]["real"]) == 4


UNIT_OR_ZERO = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


def converted(run, *args):
    """``run(*args)``, or None where the rank rule rejects the conversion."""
    try:
        return run(*args)
    except ValueError as exc:
        assert "target Schmidt rank exceeds the source rank" in str(exc)
        return None


def run_every_protocol(rho, g, p_g):
    """NEC, CEC, both reuse modes and distillation at one point, by name.

    A conversion the rank rule rejects (a pair with a product surrogate)
    maps to None; any other error propagates.
    """
    spec = find_catalyst(*protocols.nec_planning_states(rho, rho))
    cec = converted(run_cec, rho, rho, spec, g, p_g)
    out = {"nec": converted(run_nec, rho, rho, g, p_g), "cec": cec}
    if cec is not None and cec.success_probability > 0:
        out["reuse"] = reuse_catalyst(cec, rho, rho, p_g)
        out["recompiled"] = reuse_catalyst(cec, rho, rho, p_g, recompile_from_state=True)
    plan = optimize_distillation(rho, rho, p_g)
    out["distillation"] = run_distillation(rho, rho, plan, p_g)
    return spec, out


def result_bytes(result):
    if result is None:
        return None
    post = None if result.catalyst_post is None else result.catalyst_post.tobytes()
    return json.dumps(result_to_document(result)), result.output_state.tobytes(), post


class TestProtocolProperties:
    """Every protocol, at any (a, p_d, p_g, g), gives valid and reproducible results."""

    @pytest.mark.filterwarnings("ignore:top eigenvalue degenerate:RuntimeWarning")
    @given(
        a=UNIT_OR_ZERO,
        p_d=UNIT_OR_ZERO,
        p_g=st.one_of(st.just(0.0), st.floats(1e-5, 1.0)),
        g=st.integers(1, 3),
    )
    @example(a=0.1, p_d=0.05, p_g=0.01, g=2)
    @example(a=0.1, p_d=0.8, p_g=0.0, g=1)
    @example(a=0.0, p_d=1.0, p_g=1.0, g=3)
    def test_outputs_valid_and_cold_rerun_equal(self, a, p_d, p_g, g):
        rho = prepare_state(NoiseParams(a=a, p_d=p_d))
        run_every_protocol(rho, g, p_g)
        spec, warm = run_every_protocol(rho, g, p_g)
        assert 0.0 <= spec.achieved_probability <= 1.0
        for result in filter(None, warm.values()):
            numbers = (
                result.success_probability, result.output_fidelity,
                result.catalyst_fidelity_before, result.catalyst_fidelity_after,
            )
            assert all(0.0 <= x <= 1.0 for x in numbers if x is not None)
            if result.success_probability > 0:
                assert_density_matrix(result.output_state)
                if result.catalyst_post is not None:
                    assert_density_matrix(result.catalyst_post)
        compile_schedule.cache_clear()
        find_catalyst.cache_clear()
        cold_spec, cold = run_every_protocol(rho, g, p_g)
        assert cold_spec.schmidt.tobytes() == spec.schmidt.tobytes()
        assert cold.keys() == warm.keys()
        for name in warm:
            assert result_bytes(cold[name]) == result_bytes(warm[name]), name
