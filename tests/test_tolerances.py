"""Edge tests of the tolerance table at the top of ``entconc.qmath``.

Each class pins one table entry: an input just inside its cutoff and one
just outside, at half and at twice the cutoff (for a tie, a gap of that
size), so that the entry scaled by 10 or by 0.1 fails one of them.
``scripts/tolerance_sweep.py`` runs that check. As in ``TestTieScan``, the
gaps are written as numbers, never read from the table, which would move
them with the entry. The last tests hold every tolerance literal of
``src/entconc`` to the table.
"""

import ast
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import bell_diagonal
from entconc import cli, locc, majorize, protocols, qmath
from entconc.locc import DiagonalPOVM, compile_schedule, embed_povm, execute_filter
from entconc.majorize import (
    TTransform,
    birkhoff_decompose,
    fold_ttransforms,
    is_majorized,
    step_terms,
    t_transform_decompose,
    vidal_probability,
)
from entconc.noise import NoiseParams
from entconc.protocols import DistillationPlan, run_distillation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from tolerance_sweep import table  # noqa: E402  (one rule for what the table is)


class TestZeroTol:
    """1e-15: Birkhoff bottlenecks within it tie, and the tie goes to I."""

    @pytest.mark.parametrize("gap, swap", [(0.5e-15, False), (2e-15, True)])
    def test_peel_tie(self, gap, swap):
        x = 0.5 - gap / 2
        assert (1.0 - x) - x == pytest.approx(gap, rel=0.25)
        (_, first), _ = birkhoff_decompose(np.array([[x, 1.0 - x], [1.0 - x, x]]))
        assert (first.tolist() == [1, 0]) is swap

    @pytest.mark.parametrize("gap, swap", [(0.5e-15, False), (2e-15, True)])
    def test_step_terms_tie(self, gap, swap):
        t = 0.5 - gap / 2
        (_, first), _ = step_terms((TTransform(0, 1, t),), 2)
        assert (first.tolist() == [1, 0]) is swap

    @pytest.mark.parametrize("gap, swap", [(0.5e-15, False), (2e-15, True)])
    def test_binary_search_tie(self, gap, swap):
        x = 0.5 - gap / 2
        perm = majorize._lex_bottleneck_matching(np.array([[x, 1.0 - x], [1.0 - x, x]]))
        assert (perm.tolist() == [1, 0]) is swap


def _schmidt_state(coefficients):
    """Pure state sum_i sqrt(c_i) |i>|i> on two registers of len(c) levels."""
    d = len(coefficients)
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = np.sqrt(coefficients)
    return psi


def _assert_runs_to(schedule, target):
    w, rho = locc.run_schedule(schedule)
    assert w == pytest.approx(schedule.success_probability, rel=1e-9)
    assert qmath.fidelity(rho, target) == pytest.approx(1.0, abs=1e-9)


class TestWeightTol:
    """1e-14: weights and target Schmidt coefficients at most it are zero."""

    # the target's rank counts coefficients above WEIGHT_TOL; the source
    # (0.5, 0.5, 0, 0) has none at the third position
    @pytest.mark.parametrize("c, reachable", [(0.5e-14, True), (2e-14, False)])
    def test_rank_rule_target(self, c, reachable):
        source = [0.5, 0.5, 0.0, 0.0]
        target = [0.5, 0.5 - c, c, 0.0]
        p = vidal_probability(source, target)
        if reachable:
            assert p == 1.0
            _assert_runs_to(
                compile_schedule(_schmidt_state(source), _schmidt_state(target)),
                _schmidt_state(target),
            )
        else:
            assert p == 0.0
            with pytest.raises(ValueError, match="target Schmidt rank exceeds the source rank"):
                compile_schedule(_schmidt_state(source), _schmidt_state(target))

    @pytest.mark.parametrize("w, normalized", [(0.5e-14, False), (2e-14, True)])
    def test_filter_weight(self, w, normalized):
        state = np.zeros((4, 4))
        state[0, 0] = 1.0
        got, out = execute_filter(state, [np.sqrt(w), 1.0])
        assert got == pytest.approx(w, rel=1e-9)
        assert np.trace(out).real == pytest.approx(1.0 if normalized else w, rel=1e-9)

    @pytest.mark.parametrize("v, limit", [(0.5e-14, True), (2e-14, False)])
    def test_embedding_limit(self, v, limit):
        # v = e_0 - col = (0, -s, -s, 0) with 2 s^2 = |v|^2: the limit
        # diag(1, -1, 1, 1) below the cut, the reflection across v above it
        s2 = v * v / 2
        povm = DiagonalPOVM([[1.0], [s2], [s2]], [[0], [0], [0]])
        block = embed_povm(povm).blocks[0]
        assert block[1, 1] == (-1.0 if limit else pytest.approx(0.0, abs=1e-12))


class TestResidualTol:
    """1e-13: a greedy decomposition is done once what is left is below it."""

    @pytest.mark.parametrize("delta, count", [(0.5e-13, 0), (2e-13, 1)])
    def test_t_transform_chain(self, delta, count):
        assert len(t_transform_decompose([0.6, 0.4], [0.6 + delta, 0.4 - delta])) == count

    @pytest.mark.parametrize("delta, count", [(0.5e-13, 1), (2e-13, 2)])
    def test_peel_stop(self, delta, count):
        m = np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])
        assert len(birkhoff_decompose(m)) == count
        assert len(step_terms((TTransform(0, 1, 1.0 - delta),), 2)) == count

    # sums within RESIDUAL_TOL / (2d) = 2.5e-14 of 1 for d = 2
    @pytest.mark.parametrize("eps", [1e-14, 2e-14])
    def test_sum_check_inside(self, eps):
        terms = birkhoff_decompose(np.array([[0.7, 0.3 + eps], [0.3, 0.7]]))
        assert [p.tolist() for _, p in terms] == [[0, 1], [1, 0]]
        assert sum(q for q, _ in terms) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("eps", [5e-14, 1e-13, 1e-12, 1e-9, 1e-6])
    def test_sum_check_outside(self, eps):
        # the check, not the peel's "no positive perfect matching", rejects them
        with pytest.raises(ValueError, match="not doubly stochastic"):
            birkhoff_decompose(np.array([[0.7, 0.3 + eps], [0.3, 0.7]]))

    @pytest.mark.parametrize("x, ok", [(1e-14, True), (5e-14, False)])
    def test_negative_entry(self, x, ok):
        m = np.array([[1.0 + x, -x], [-x, 1.0 + x]])
        if ok:
            assert [p.tolist() for _, p in birkhoff_decompose(m)] == [[0, 1]]
        else:
            with pytest.raises(ValueError, match="not doubly stochastic"):
                birkhoff_decompose(m)


class TestUnitTol:
    """1e-12: rounding of one unit-scale result, told from a real excess."""

    @pytest.mark.parametrize("x, ok", [(1 + 0.5e-12, True), (1 + 2e-12, False),
                                       (-0.5e-12, True), (-2e-12, False)])
    def test_clip_unit(self, x, ok):
        if ok:
            assert qmath.clip_unit(x, "p") in (0.0, 1.0)
        else:
            with pytest.raises(ArithmeticError):
                qmath.clip_unit(x, "p")

    @pytest.mark.parametrize("x, ok", [(-0.5e-12, True), (-2e-12, False)])
    def test_schmidt_entry_below_zero(self, x, ok):
        if ok:
            assert majorize._as_schmidt([1.0, x])[1] == x
        else:
            with pytest.raises(ValueError, match="negative entry"):
                majorize._as_schmidt([1.0, x])

    # the source's rank counts coefficients above UNIT_TOL, the cut of the
    # compile's supports; (1 - 3c, 2c, c) needs its two smallest
    @pytest.mark.parametrize("c, reachable", [(0.5e-12, False), (2e-12, True)])
    @pytest.mark.parametrize("source, target, p", [
        (lambda c: [1.0 - c, c], [0.5, 0.5], lambda c: 2 * c),
        (lambda c: [1.0 - 3 * c, 2 * c, c, 0.0], [0.5, 0.25, 0.25, 0.0], lambda c: 4 * c),
    ], ids=["2x2", "4x4"])
    def test_rank_rule_source(self, c, reachable, source, target, p):
        source = source(c)
        if reachable:
            assert vidal_probability(source, target) == pytest.approx(p(c), rel=1e-6)
            schedule = compile_schedule(_schmidt_state(source), _schmidt_state(target))
            assert schedule.success_probability == pytest.approx(p(c), rel=1e-6)
            _assert_runs_to(schedule, _schmidt_state(target))
        else:
            assert vidal_probability(source, target) == 0.0
            with pytest.raises(ValueError, match="target Schmidt rank exceeds the source rank"):
                compile_schedule(_schmidt_state(source), _schmidt_state(target))
            with pytest.raises(ValueError, match="target Schmidt rank exceeds the source rank"):
                majorize.vidal_intermediate(source, target)

    def test_rank_rule_below_supports(self):
        # coefficients 5e-13 and 1e-13 lie below the supports of the final
        # filter; counting them would give a filter (sqrt(2e-13), 1, 1, 1)
        # and a run of weight 8e-13 at fidelity 0.86 instead of p = 4e-13
        source = _schmidt_state([1.0 - 6e-13, 5e-13, 1e-13, 0.0])
        with pytest.raises(ValueError, match="target Schmidt rank exceeds the source rank"):
            compile_schedule(source, _schmidt_state([0.5, 0.25, 0.25, 0.0]))

    @pytest.mark.parametrize("gap, best", [(0.5e-12, 0), (2e-12, 1)])
    def test_distillation_tie(self, gap, best):
        assert protocols._first_best(np.array([0.5, 0.5 + gap])) == best

    @pytest.mark.parametrize("gap, steps", [(0.5e-12, 1), (2e-12, 2)])
    def test_fold(self, gap, steps):
        chain = [TTransform(0, 1, 0.7), TTransform(2, 3, 0.7 + gap)]
        assert len(fold_ttransforms(chain)) == steps

    @pytest.mark.parametrize("gap, ok", [(0.5e-12, True), (2e-12, False)])
    def test_majorization_prefix(self, gap, ok):
        assert is_majorized([0.6 + gap, 0.4 - gap], [0.6, 0.4]) is ok

    @pytest.mark.parametrize("gap, ok", [(0.5e-12, True), (2e-12, False)])
    def test_state_norm(self, gap, ok):
        psi = np.array([1.0 + gap, 0.0])
        if ok:
            qmath.assert_pure_state(psi)
        else:
            with pytest.raises(ValueError, match="norm"):
                qmath.assert_pure_state(psi)

    @pytest.mark.parametrize("gap, ok", [(0.5e-12, True), (2e-12, False)])
    def test_noise_weights(self, gap, ok):
        weights = (0.5, 0.5 + gap, 0.0)
        if ok:
            NoiseParams(depol_weights=weights)
        else:
            with pytest.raises(ValueError, match="summing to 1"):
                NoiseParams(depol_weights=weights)

    @pytest.mark.parametrize("gap, ok", [(0.5e-12, True), (2e-12, False)])
    def test_catalyst_end(self, gap, ok):
        if ok:
            assert protocols.catalyst_from_schmidt(1.0 + gap).schmidt.tolist() == [1.0, 0.0]
        else:
            with pytest.raises(ValueError, match="c1"):
                protocols.catalyst_from_schmidt(1.0 + gap)

    @pytest.mark.parametrize("gap, merged", [(0.5e-12, True), (2e-12, False)])
    def test_povm_images_merge(self, gap, merged):
        # the two images differ by gap in each entry
        target = np.array([0.5 + gap / 2, 0.5 - gap / 2])
        povm = locc.js_povm([(0.5, np.array([0, 1])), (0.5, np.array([1, 0]))], target)
        assert len(povm.elements) == (1 if merged else 2)


class TestDegeneracyTol:
    """1e-11: singular values closer than it share a gauge block."""

    @pytest.mark.parametrize("gap, blocks", [(0.5e-11, [(0, 2), (2, 3)]),
                                             (2e-11, [(0, 1), (1, 2), (2, 3)])])
    def test_blocks(self, gap, blocks):
        assert qmath._gauge_blocks(np.array([0.6, 0.6 - gap, 0.3])) == blocks

    @pytest.mark.parametrize("s, blocks", [(0.5e-11, [(0, 1)]), (2e-11, [(0, 1), (1, 2)])])
    def test_zero_values(self, s, blocks):
        assert qmath._gauge_blocks(np.array([0.9, s])) == blocks


class TestStructuralTol:
    """1e-10: an identity exact in exact arithmetic, held to rounding."""

    @pytest.mark.parametrize("x, ok", [(0.5e-10, True), (2e-10, False)])
    def test_density_eigenvalue(self, x, ok):
        rho = np.diag([1.0 + x, -x])
        if ok:
            qmath.assert_density_matrix(rho)
        else:
            with pytest.raises(ValueError, match="eigenvalue"):
                qmath.assert_density_matrix(rho)

    @pytest.mark.parametrize("x, ok", [(0.5e-10, True), (2e-10, False), (1e-6, False)])
    def test_kraus_completeness(self, x, ok):
        # every entry is held to the cutoff, with no relative slack on the diagonal
        kraus = [np.sqrt(1.0 + x) * np.eye(2)]
        rho = np.diag([1.0, 0.0, 0.0, 0.0])
        if ok:
            qmath.apply_channel(rho, kraus, 0)
        else:
            with pytest.raises(ValueError, match="not complete"):
                qmath.apply_channel(rho, kraus, 0)

    @pytest.mark.parametrize("x, ok", [(0.5e-10, True), (2e-10, False)])
    def test_povm_completeness(self, x, ok):
        if ok:
            assert DiagonalPOVM([[0.5], [0.5 + x]], [[0], [0]]).support.tolist() == [True]
        else:
            with pytest.raises(ValueError, match="sum to identity"):
                DiagonalPOVM([[0.5], [0.5 + x]], [[0], [0]])

    @pytest.mark.parametrize("x, ok", [(0.5e-10, True), (2e-10, False)])
    def test_filter_bound(self, x, ok):
        # the state carries no weight on the first entry: only the bound is tested
        state = np.diag([0.0, 0.0, 1.0, 0.0])
        if ok:
            execute_filter(state, [np.sqrt(1.0 + x), 1.0])
        else:
            with pytest.raises(ValueError, match="filter entries"):
                execute_filter(state, [np.sqrt(1.0 + x), 1.0])


class TestTopDegeneracyTol:
    """1e-9: top eigenvalues closer than it are degenerate, with a warning."""

    def test_inside_warns(self):
        gap = 0.5e-9
        with pytest.warns(RuntimeWarning, match="degenerate"):
            qmath.top_eigenstate(np.diag([0.5, 0.5 - gap, gap, 0.0]))

    def test_outside_is_simple(self):
        gap = 2e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, vec = qmath.top_eigenstate(np.diag([0.5, 0.5 - gap, gap, 0.0]))
        assert abs(vec).tolist() == [1.0, 0.0, 0.0, 0.0]


class TestInputTol:
    """1e-9: a caller's number is held to nine significant digits."""

    @pytest.mark.parametrize("x, ok", [(0.5e-9, True), (2e-9, False)])
    def test_schmidt_sum(self, x, ok):
        v = [0.5 + x / 2, 0.5 + x / 2]
        if ok:
            assert is_majorized(v, v)
        else:
            with pytest.raises(ValueError, match="does not sum to 1"):
                is_majorized(v, v)

    @pytest.mark.parametrize("x, ok", [(0.5e-9, True), (2e-9, False)])
    def test_schmidt_order(self, x, ok):
        v = [0.5 - x / 2, 0.5 + x / 2]
        if ok:
            majorize.is_majorized(v, [0.5, 0.5])
        else:
            with pytest.raises(ValueError, match="not sorted"):
                majorize.is_majorized(v, [0.5, 0.5])

    # (hi - lo) / step = 3 - 0.5e-9 ends on the grid, 3 - 2e-9 does not
    @pytest.mark.parametrize("hi, count", [("0.29999999995", 4), ("0.2999999998", 3)])
    def test_range_end(self, hi, count):
        assert len(cli._parse_range(f"0:{hi}:0.1")) == count


class TestMinAcceptance:
    """1e-9: a distillation plan accepting less often is not run."""

    @pytest.mark.parametrize("x, ok", [(0.5e-9, False), (2e-9, True)])
    def test_run_distillation(self, x, ok):
        # identity gates, Z basis: a Phi+ pair and one of Phi+ weight x agree with probability x
        plan = DistillationPlan((protocols.CLIFFORDS[0], protocols.CLIFFORDS[0]), "Z")
        pairs = bell_diagonal([1.0, 0.0, 0.0, 0.0]), bell_diagonal([x, 0.0, 1.0 - x, 0.0])
        if ok:
            assert run_distillation(*pairs, plan).success_probability == pytest.approx(x, rel=1e-6)
        else:
            with pytest.raises(ArithmeticError, match="accepts with probability"):
                run_distillation(*pairs, plan)


class TestPinTol:
    """1e-8: overlaps and projections weaker than it cannot pin a gauge."""

    @pytest.mark.parametrize("c, first", [(0.5e-8, False), (2e-8, True)])
    def test_canonical_line(self, c, first):
        col = np.array([[c * np.exp(0.3j)], [np.sqrt(1.0 - c * c) * np.exp(1.1j)]])
        q = qmath._canonical_span(col)
        assert np.angle(q[0, 0]) == pytest.approx(-0.3 if first else -1.1)

    # pinned by its own overlap, the column's first entry comes out real
    # positive; left to the canonical completion, its second entry does
    @pytest.mark.parametrize("c, pinned", [(0.5e-8, False), (2e-8, True)])
    def test_single_value_pin(self, c, pinned):
        left = np.array([[c * 1j, -np.sqrt(1.0 - c * c)], [np.sqrt(1.0 - c * c), -c * 1j]])
        right = np.eye(2, dtype=complex)
        qmath._fix_degenerate_gauge(np.array([0.8, 0.6]), left, right)
        real, turned = (0, 1) if pinned else (1, 0)
        assert np.angle(left[real, 0]) == pytest.approx(0.0, abs=1e-12)
        assert abs(np.angle(left[turned, 0])) == pytest.approx(np.pi / 2)


PACKAGE = Path(qmath.__file__).parent
# Small float literals that are not tolerances: (module, function or None at
# module level, value).
ALLOWED = {
    ("protocols.py", None, 1e-4): "step of the catalyst grid, a search parameter",
    ("cli.py", "_write_svg", 1e-6): "least height of the infidelity plot's y axis",
}


def _table():
    """The table entries of the imported qmath, by the sweep script's rule."""
    return table((PACKAGE / "qmath.py").read_text())


def _small_literals():
    """(module, enclosing function, value, line) of every float literal in (0, 1e-3)."""
    found = []
    table_lines = {("qmath.py", line) for _, line in _table().values()}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < node.value < 1e-3
                    and (path.name, node.lineno) not in table_lines):
                found.append((path.name, func, node.value, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def test_no_tolerance_literal_outside_the_table():
    stray = [hit for hit in _small_literals() if hit[:3] not in ALLOWED]
    assert stray == []


def test_allow_list_is_current():
    assert {hit[:3] for hit in _small_literals()} == set(ALLOWED)


def test_table_size_and_documentation():
    entries = _table()
    assert 0 < len(entries) <= 12
    for name in entries:
        assert f"\n{name} = " in qmath.__doc__
    pinned_by = re.findall(r"Test: (Test\w+)\.", qmath.__doc__)
    assert len(pinned_by) == len(entries)
    assert all(isinstance(globals().get(cls), type) for cls in pinned_by)
