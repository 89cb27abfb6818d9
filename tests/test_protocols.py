"""Unit tests for the concentration protocols and the distillation baseline."""

import json

import numpy as np
import pytest

from conftest import bell_diagonal, werner

from entconc import (
    NoiseParams,
    PHI_PLUS,
    CatalystSpec,
    DistillationPlan,
    ProtocolResult,
    catalyst_from_schmidt,
    dejmps_plan,
    fidelity,
    find_catalyst,
    joint_surrogate,
    optimize_distillation,
    prepare_state,
    result_to_document,
    reuse_catalyst,
    run_cec,
    run_distillation,
    run_nec,
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
        sur = joint_surrogate(rho, rho)
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
        sur = joint_surrogate(bell_dm, bell_dm)
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

    def test_accepts_density_matrix_catalyst(self):
        rho = prepare_state(NoiseParams(p_d=0.02))
        spec = catalyst_from_schmidt(0.75)
        cat_dm = np.outer(spec.state, spec.state.conj())
        by_spec = run_cec(rho, rho, spec)
        hinted = run_cec(rho, rho, cat_dm, ideal_catalyst=spec)
        assert abs(by_spec.success_probability - hinted.success_probability) < 1e-12
        assert abs(by_spec.output_fidelity - hinted.output_fidelity) < 1e-12
        inferred = run_cec(rho, rho, cat_dm)
        assert abs(inferred.catalyst_spec.schmidt[0] - 0.75) < 1e-9
        assert abs(by_spec.output_fidelity - inferred.output_fidelity) < 5e-3


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


class TestInputValidation:
    RHO = prepare_state(NoiseParams(a=0.1, p_d=0.05))

    def test_unnormalized_pair_raises(self):
        with pytest.raises(ValueError, match="trace"):
            run_nec(2.0 * self.RHO, self.RHO)

    def test_non_positive_pair_raises(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            run_cec(self.RHO, bad, catalyst_from_schmidt(0.75))

    def test_density_matrix_catalyst_is_checked(self):
        with pytest.raises(ValueError, match="trace"):
            run_cec(self.RHO, self.RHO, 2.0 * pure_pair(0.75))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="4x4"):
            run_distillation(np.eye(8) / 8, self.RHO, dejmps_plan())

    def test_reuse_checks_its_pairs(self):
        first = run_cec(self.RHO, self.RHO, catalyst_from_schmidt(0.75))
        with pytest.raises(ValueError, match="Hermitian"):
            reuse_catalyst(first, self.RHO + 0.1j * np.eye(4), self.RHO)

    def test_search_validates_once(self, monkeypatch):
        import entconc.protocols as protocols

        calls = []
        check = protocols.assert_density_matrix
        monkeypatch.setattr(protocols, "assert_density_matrix",
                            lambda rho: calls.append(1) or check(rho))
        optimize_distillation(self.RHO, self.RHO)
        assert len(calls) == 2


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
        doc = result_to_document(res, params={"a": 0.0, "p_d": 0.0, "g": 1})
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
