import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpnet.dist import (
    Cdf,
    DominanceOrder,
    EPS_PROB,
    JointTable,
    VariableSpec,
    fsd_compare,
    validate,
)
from qpnet.errors import (
    BadProbability,
    DuplicateVariable,
    MassNotOne,
    NegativeMass,
    QpnError,
    ShapeMismatch,
    SupportMismatch,
    UnknownVariable,
)
from qpnet.scenarios import table1_fixture


def two_var(probs, sx=(1, 2), sy=(1, 2)):
    return JointTable.from_flat(
        (VariableSpec("X", sx), VariableSpec("Y", sy)), probs
    )


class TestValidate:
    def test_table1_ok(self):
        validate(table1_fixture())

    def test_single_cell_shape_rejected(self):
        with pytest.raises(ShapeMismatch):
            VariableSpec("X", (1,))

    def test_mass_not_one(self):
        with pytest.raises(MassNotOne) as exc:
            two_var([0.5, 0.4, 0.0, 0.0])
        assert exc.value.actual_sum == pytest.approx(0.9)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            two_var([0.6, 0.5, -0.1, 0.0])

    def test_wrong_length(self):
        with pytest.raises(ShapeMismatch):
            two_var([1.0])

    def test_array_shape_must_match_supports(self):
        variables = (VariableSpec("X", (1, 2)), VariableSpec("Y", (1, 2)))
        with pytest.raises(ShapeMismatch, match=r"shape \(2, 3\) != supports \(2, 2\)"):
            JointTable(variables, np.full((2, 3), 1 / 6))

    def test_empty_variable_name_rejected(self):
        with pytest.raises(ShapeMismatch, match="non-empty"):
            VariableSpec("", (1, 2))

    def test_duplicate_variable_names_rejected(self):
        with pytest.raises(DuplicateVariable):
            JointTable((VariableSpec("X", (1, 2)),) * 2, np.full((2, 2), 0.25))

    def test_non_increasing_support(self):
        with pytest.raises(ShapeMismatch):
            VariableSpec("X", (2, 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_probability(self, bad):
        with pytest.raises(BadProbability):
            two_var([0.5, 0.5, bad, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_support(self, bad):
        with pytest.raises(ShapeMismatch):
            VariableSpec("X", (1, bad))
        with pytest.raises(ShapeMismatch):
            VariableSpec("X", (bad, 1))


class TestMarginalize:
    def test_table1_x_margin(self):
        m = table1_fixture().marginalize({"X"})
        assert np.allclose(m.probabilities, [0.325, 0.4, 0.275])

    def test_table1_y_margin(self):
        m = table1_fixture().marginalize({"Y"})
        assert np.allclose(m.probabilities, [0.425, 0.3, 0.275])

    def test_keep_all_is_identity(self):
        t = table1_fixture()
        m = t.marginalize({"X", "Y"})
        assert m.names == t.names
        assert np.array_equal(m.probabilities, t.probabilities)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            table1_fixture().marginalize({"Z"})

    def test_keep_nothing_rejected(self):
        with pytest.raises(QpnError, match="keep must be non-empty"):
            table1_fixture().marginalize(set())

    def test_mass_conserved(self):
        m = table1_fixture().marginalize({"Y"})
        assert abs(m.probabilities.sum() - 1.0) <= EPS_PROB


class TestCallerArrayStaysWriteable:
    """A table freezes its own copy of the cells, never the caller's array."""

    def test_joint_table(self):
        spec = (VariableSpec("X", (1, 2)), VariableSpec("Y", (1, 2)))
        cells = np.full((2, 2), 0.25)
        table = JointTable(spec, cells)
        assert cells.flags.writeable
        assert not table.probabilities.flags.writeable
        cells[0, 0] = 0.7
        assert table.probabilities[0, 0] == 0.25

    def test_cdf(self):
        cumulative = np.array([0.5, 1.0])
        cdf = Cdf((1, 2), cumulative)
        assert cumulative.flags.writeable
        cumulative[0] = 0.1
        assert cdf.cumulative[0] == 0.5


def cells_cdf(cells, support):
    """The cdf of one row or column of a table, normalized."""
    return Cdf(support, np.cumsum(cells) / cells.sum())


class TestCdf:
    def test_running_sum(self):
        c = cells_cdf(table1_fixture().probabilities[1], (1, 2, 3))
        assert np.allclose(c.cumulative, [0.375, 0.75, 1.0])

    def test_point_mass_at_top(self):
        # flat at 0 up to the last level is non-decreasing
        c = Cdf((1, 2, 3), [0, 0, 1.0])
        assert c.cumulative.tolist() == [0, 0, 1.0]

    def test_uniform(self):
        # an end within EPS_PROB of 1 passes
        c = Cdf((1, 2), [0.5, 1.0 - EPS_PROB / 2])
        assert c.cumulative.tolist() == [0.5, 1.0 - EPS_PROB / 2]

    @pytest.mark.parametrize(
        "values, error",
        [
            ([np.nan, np.nan], BadProbability),
            ([-np.inf, 1.0], BadProbability),
            ([-0.5, 1.0], ShapeMismatch),  # falls from 0 at the first level
            ([1.0], ShapeMismatch),  # one value for two levels
            ([0.2, 0.9], ShapeMismatch),  # ends below 1
        ],
    )
    def test_rejects_what_no_cdf_holds(self, values, error):
        with pytest.raises(error):
            Cdf((1, 2), values)


class TestFsdCompare:
    """Cdfs of table1's rows (given X) and columns (given Y)."""

    def test_paper_rows_dominate(self):
        p = table1_fixture().probabilities
        f = cells_cdf(p[1], (1, 2, 3))
        g = cells_cdf(p[0], (1, 2, 3))
        assert fsd_compare(f, g) is DominanceOrder.DOMINATES

    def test_reflexive_equal(self):
        f = cells_cdf(table1_fixture().probabilities.sum(axis=1), (1, 2, 3))
        assert fsd_compare(f, f) is DominanceOrder.EQUAL

    def test_paper_asymmetry_columns_incomparable(self):
        p = table1_fixture().probabilities
        f = cells_cdf(p[:, 2], (1, 2, 3))
        g = cells_cdf(p[:, 1], (1, 2, 3))
        assert np.allclose(f.cumulative, [0.272727, 0.636363, 1.0], atol=1e-5)
        assert np.allclose(g.cumulative, [0.166667, 0.666667, 1.0], atol=1e-5)
        assert fsd_compare(f, g) is DominanceOrder.INCOMPARABLE

    def test_support_mismatch(self):
        f = Cdf((1, 2), np.array([0.5, 1.0]))
        g = Cdf((1, 3), np.array([0.5, 1.0]))
        with pytest.raises(SupportMismatch):
            fsd_compare(f, g)


def cdf_strategy(n=3):
    return st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
    ).map(lambda xs: Cdf(tuple(range(n)), np.cumsum(xs) / sum(xs)))


@given(cdf_strategy(), cdf_strategy())
def test_fsd_antisymmetric_pairing(f, g):
    rel = fsd_compare(f, g)
    rev = fsd_compare(g, f)
    expected = {
        DominanceOrder.DOMINATES: DominanceOrder.DOMINATED_BY,
        DominanceOrder.DOMINATED_BY: DominanceOrder.DOMINATES,
        DominanceOrder.EQUAL: DominanceOrder.EQUAL,
        DominanceOrder.INCOMPARABLE: DominanceOrder.INCOMPARABLE,
    }[rel]
    assert rev is expected


@given(cdf_strategy(), cdf_strategy(), cdf_strategy())
def test_fsd_transitive(f, g, h):
    dom = DominanceOrder.DOMINATES
    eq = DominanceOrder.EQUAL
    if fsd_compare(f, g) in (dom, eq) and fsd_compare(g, h) in (dom, eq):
        assert fsd_compare(f, h) in (dom, eq)


def test_marginalization_order_commutes():
    rng = np.random.default_rng(7)
    draw = rng.exponential(size=(2, 3, 2))
    t = JointTable(
        (
            VariableSpec("A", (0, 1)),
            VariableSpec("B", (0, 1, 2)),
            VariableSpec("C", (0, 1)),
        ),
        draw / draw.sum(),
    )
    one = t.marginalize({"B", "C"}).marginalize({"C"})
    two = t.marginalize({"A", "C"}).marginalize({"C"})
    assert np.allclose(one.probabilities, two.probabilities, atol=EPS_PROB)


def test_marginalize_sums_the_dropped_axes_bytewise():
    """``marginalize`` goes through ``stack_marginal``; on every keep set of
    seeded 2-4-variable tables its bytes equal ``probabilities.sum`` over the
    dropped axes."""
    rng = np.random.default_rng(14)
    keep_sets = 0
    for _ in range(300):
        shape = tuple(int(s) for s in rng.integers(2, 5, size=int(rng.integers(2, 5))))
        draw = rng.exponential(size=shape)
        t = JointTable(
            tuple(VariableSpec(f"V{k}", tuple(range(s))) for k, s in enumerate(shape)),
            draw / draw.sum(),
        )
        for size in range(1, len(shape) + 1):
            for kept in itertools.combinations(range(len(shape)), size):
                dropped = tuple(k for k in range(len(shape)) if k not in kept)
                want = t.probabilities.sum(axis=dropped) if dropped else t.probabilities
                # keep sets are unordered; the result keeps the table's order
                got = t.marginalize({t.names[k] for k in reversed(kept)})
                assert got.names == tuple(t.names[k] for k in kept)
                assert got.probabilities.tobytes() == want.tobytes()
                keep_sets += 1
    assert keep_sets > 2000
