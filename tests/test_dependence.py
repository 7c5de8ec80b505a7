import collections
import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qpnet import dependence, dist
from qpnet.dependence import (
    MEETS,
    VERDICTS,
    AssociationViolation,
    ConditionalTable,
    PairResult,
    Verdict,
    _cells,
    _least_excess,
    _pair,
    _upper_set_masks,
    association_check,
    influence_sign,
    mlrp_check,
    prop1_forward,
    prop1_witness_search,
    stack_verdict_codes,
    tp2_check,
)
from qpnet.dist import EPS_PROB, JointTable, VariableSpec
from qpnet.errors import (
    BadProbability, ContextOverlap, IsMlrp, MassNotOne, NegativeMass, NotMlrp, QpnError,
    ShapeMismatch, SupportTooLarge, ZeroColumn,
)
from qpnet.scenarios import shuttle_distribution, table1_fixture
from qpnet.signs import Sign


def bivariate(rows, sx=None, sy=None):
    rows = np.asarray(rows, dtype=float)
    sx = sx or tuple(range(1, rows.shape[0] + 1))
    sy = sy or tuple(range(1, rows.shape[1] + 1))
    return JointTable(
        (VariableSpec("X", sx), VariableSpec("Y", sy)), rows / rows.sum()
    )


def product_table(px, py):
    return bivariate(np.outer(px, py))


def table1_conditional_x_given_y():
    t = table1_fixture()
    probs = t.probabilities
    cond = probs / probs.sum(axis=0, keepdims=True)
    return ConditionalTable(t.variables[0], t.variables[1], cond)


class TestInfluenceSign:
    def test_table1_forward_positive(self):
        assert influence_sign(table1_fixture(), "X", "Y").verdict is Verdict.POSITIVE

    def test_table1_reverse_ambiguous_with_witness(self):
        v = influence_sign(table1_fixture(), "Y", "X")
        assert v.verdict is Verdict.AMBIGUOUS
        assert (v.witness.upper, v.witness.lower) == (3.0, 2.0)
        assert v.witness.offending_level == 1.0

    def test_independent_pair_is_zero(self):
        t = product_table([0.3, 0.7], [0.2, 0.8])
        assert influence_sign(t, "X", "Y").verdict is Verdict.ZERO

    def test_context_overlap_rejected(self):
        with pytest.raises(ContextOverlap):
            influence_sign(table1_fixture(), "X", "Y", context=("X",))
        with pytest.raises(ContextOverlap):
            influence_sign(table1_fixture(), "X", "X")

    def test_repeated_context_rejected(self):
        with pytest.raises(ContextOverlap):
            influence_sign(
                shuttle_distribution(), "HeOxTemp", "OxTankLeak",
                context=["HighOxTemp", "HighOxTemp"],
            )

    def test_skipped_contexts_reported(self):
        t = bivariate([[0.5, 0.0], [0.0, 0.0], [0.25, 0.25]])
        v = influence_sign(t, "X", "Y")
        assert any(("X", 2.0) in ctx for ctx in v.skipped_contexts)

    def test_positive_verdict_has_no_witness(self):
        # only an ambiguous verdict names a witness comparison
        v = influence_sign(table1_fixture(), "X", "Y")
        assert v.verdict is Verdict.POSITIVE
        assert v.witness is None
        assert v.to_jsonable()["witness"] is None


class TestMlrp:
    def test_table1_fails_with_paper_ratios(self):
        result = mlrp_check(table1_fixture(), "X", "Y")
        assert not result.holds
        w = result.witness
        assert (w.x_upper, w.x_lower, w.y_upper, w.y_lower) == (3.0, 1.0, 3.0, 2.0)
        assert w.ratio_upper == pytest.approx(1.0909, abs=1e-4)
        assert w.ratio_lower == pytest.approx(1.6364, abs=1e-4)

    def test_product_distribution_holds(self):
        t = product_table([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
        assert mlrp_check(t, "X", "Y").holds

    def test_diagonal_2x2_holds(self):
        assert mlrp_check(bivariate([[0.4, 0.1], [0.1, 0.4]]), "X", "Y").holds

    def test_zero_column_reported(self):
        t = bivariate([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ZeroColumn):
            mlrp_check(t, "X", "Y")


class TestTp2:
    def test_table1_fails_and_agrees_with_mlrp(self):
        assert not tp2_check(table1_fixture(), "X", "Y").holds

    def test_product_distribution_holds(self):
        t = product_table([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
        assert tp2_check(t, "X", "Y").holds

    def test_diagonal_2x2_holds(self):
        assert tp2_check(bivariate([[0.4, 0.1], [0.1, 0.4]]), "X", "Y").holds


class TestAssociation:
    def test_table1_holds(self):
        assert association_check(table1_fixture(), "X", "Y").holds

    def test_product_distribution_holds(self):
        t = product_table([0.2, 0.8], [0.4, 0.6])
        assert association_check(t, "X", "Y").holds

    def test_antidiagonal_2x2_fails_with_witness(self):
        result = association_check(bivariate([[0.1, 0.4], [0.4, 0.1]]), "X", "Y")
        assert not result.holds
        w = result.witness
        # U is the row X=1 and V the column Y=1: P(U and V) P(neither) is
        # 0.1 * 0.1, P(U only) P(V only) is 0.4 * 0.4
        assert w.p_concordant == pytest.approx(0.01)
        assert w.p_discordant == pytest.approx(0.16)

    def test_guard_on_large_grids(self):
        n = 16
        probs = np.full((n, n), 1.0 / n**2)
        t = bivariate(probs, tuple(range(n)), tuple(range(n)))
        with pytest.raises(SupportTooLarge):
            association_check(t, "X", "Y")

    def test_minors_guard_on_large_grids(self):
        # 72x72 has 72**4 2x2 minors at 41 bytes each: 1.03 GiB
        n = 72
        probs = np.full((n, n), 1.0 / n**2)
        t = bivariate(probs, tuple(range(n)), tuple(range(n)))
        lik = ConditionalTable(t.variables[0], t.variables[1], np.full((n, n), 1.0 / n))
        for check in (lambda: mlrp_check(t, "X", "Y"), lambda: tp2_check(t, "X", "Y"), lik.mlrp_violations):
            with pytest.raises(SupportTooLarge, match="MLRP/TP2 check's 1 GiB budget"):
                check()


@pytest.mark.parametrize("check", [mlrp_check, tp2_check, association_check])
def test_pair_checks_reject_same_variable(check):
    with pytest.raises(ContextOverlap):
        check(table1_fixture(), "X", "X")


class TestProp1:
    def test_caller_array_stays_writeable(self):
        x, y = VariableSpec("X", (1, 2)), VariableSpec("Y", (1, 2))
        cells = np.full((2, 2), 0.5)
        lik = ConditionalTable(x, y, cells)
        assert cells.flags.writeable
        assert not lik.probabilities.flags.writeable
        cells[0, 0] = 0.9
        assert lik.probabilities[0, 0] == 0.5

    def test_forward_with_random_mlrp_likelihoods(self):
        rng = np.random.default_rng(3)
        x = VariableSpec("X", (1, 2, 3))
        y = VariableSpec("Y", (1, 2, 3))
        accepted = 0
        while accepted < 20:
            draw = rng.exponential(size=(3, 3))
            cond = draw / draw.sum(axis=0, keepdims=True)
            lik = ConditionalTable(x, y, cond)
            if lik.mlrp_violations():
                continue
            accepted += 1
            priors = [p / p.sum() for p in rng.exponential(size=(5, 3))]
            assert prop1_forward(lik, priors)

    def test_identity_likelihood(self):
        x = VariableSpec("X", (1, 2, 3))
        y = VariableSpec("Y", (1, 2, 3))
        lik = ConditionalTable(x, y, np.eye(3))
        assert prop1_forward(lik, [np.array([0.2, 0.3, 0.5])])

    def test_table1_conditional_not_mlrp(self):
        with pytest.raises(NotMlrp):
            prop1_forward(table1_conditional_x_given_y(), [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_likelihood_rejected(self, bad):
        cond = table1_conditional_x_given_y().probabilities.copy()
        cond[1, 2] = bad
        lik_vars = table1_fixture().variables
        with pytest.raises(BadProbability, match="finite"):
            ConditionalTable(*lik_vars, cond)

    @pytest.mark.parametrize("cells, prior, error, match", [
        (np.full((2, 3), 0.5), None, ShapeMismatch, r"shape \(2, 3\) != \(2, 2\)"),
        ([[0.5, 0.5], [0.4, 0.5]], None, MassNotOne, "0.9"),
        (np.full((2, 2), 0.5), [0.5, 0.25, 0.25], ShapeMismatch, "prior length"),
        (np.full((2, 2), 0.5), [0.5, 0.4], MassNotOne, "0.9"),
    ], ids=["likelihood-shape", "likelihood-column-mass", "prior-length", "prior-mass"])
    def test_malformed_likelihood_or_prior_rejected(self, cells, prior, error, match):
        x, y = VariableSpec("X", (1, 2)), VariableSpec("Y", (1, 2))
        with pytest.raises(error, match=match):
            ConditionalTable(x, y, cells).joint_with_prior(prior)

    def test_negative_cell_raises_what_a_joint_table_raises(self):
        x, y = VariableSpec("X", (1, 2)), VariableSpec("Y", (1, 2))
        with pytest.raises(NegativeMass):
            JointTable((x, y), np.array([[-0.1, 0.5], [0.3, 0.3]]))
        with pytest.raises(NegativeMass):
            ConditionalTable(x, y, np.array([[-0.1, 0.5], [1.1, 0.5]]))

    def test_witness_search_finds_refuting_prior(self):
        lik = table1_conditional_x_given_y()
        prior = prop1_witness_search(lik, seed=42, trials=10_000)
        assert prior is not None
        # the returned prior must re-verify as a refutation
        joint = lik.joint_with_prior(prior)
        verdict = influence_sign(joint, "X", "Y").verdict
        assert verdict in (Verdict.NEGATIVE, Verdict.AMBIGUOUS)

    @pytest.mark.parametrize("seed_cells", [None, 18])
    def test_witness_search_matches_per_trial_search(self, monkeypatch, seed_cells):
        if seed_cells:  # small chunks, so that hits land past the first chunk
            monkeypatch.setattr(dist, "SEED_CELLS", seed_cells)
        lik = table1_conditional_x_given_y()
        chunk = max(1, dist.SEED_CELLS // 9)

        def per_trial(seed, trials):
            """One prior at a time, trial t from row t % C of
            default_rng([seed, t // C]): the first refuting prior and its trial."""
            for t in range(trials):
                rng = np.random.default_rng([seed, t // chunk])
                draw = rng.standard_exponential((t % chunk + 1, 3))[-1]
                prior = draw / draw.sum()
                verdict = influence_sign(lik.joint_with_prior(prior), "X", "Y").verdict
                if verdict in (Verdict.NEGATIVE, Verdict.AMBIGUOUS):
                    return prior, t
            return None, None

        seen = collections.Counter()
        for seed in range(30):
            for trials in (1, 3, 100):
                want, t = per_trial(seed, trials)
                got = prop1_witness_search(lik, seed, trials)
                if want is None:
                    assert got is None
                else:
                    assert got.tobytes() == want.tobytes()
                seen["none"] += want is None
                seen["hit past the first chunk"] += t is not None and t >= chunk
        assert seen["none"] > 0
        assert seen["hit past the first chunk"] > 0 or seed_cells is None

    def test_witness_search_rejects_mlrp_likelihood(self):
        x = VariableSpec("X", (1, 2, 3))
        y = VariableSpec("Y", (1, 2, 3))
        with pytest.raises(IsMlrp):
            prop1_witness_search(ConditionalTable(x, y, np.eye(3)), 0, 10)

    def test_witness_search_negative_seed_rejected(self):
        with pytest.raises(QpnError, match="seed must be non-negative"):
            prop1_witness_search(table1_conditional_x_given_y(), -1, 10)

    def test_witness_search_zero_trials(self):
        # None would read as "no refuting prior found"; find_counterexample
        # rejects the same input
        for trials in (0, -5):
            with pytest.raises(QpnError, match="trials must be positive"):
                prop1_witness_search(table1_conditional_x_given_y(), 0, trials)

    def test_witness_search_deterministic(self):
        lik = table1_conditional_x_given_y()
        a = prop1_witness_search(lik, 7, 1000)
        b = prop1_witness_search(lik, 7, 1000)
        assert np.array_equal(a, b)


def random_bivariate(rng, shape):
    draw = rng.exponential(size=shape)
    return bivariate(draw)


def tp2_bivariate(rng):
    """p proportional to exp(g x y + a_x + b_y) with g >= 0, on 2-5 levels
    each: TP2 by construction.  Every fourth has g = 0 (independent), and
    every third some rows scaled by 1e-6 to 1e-12, which keeps TP2."""
    nx, ny = (int(n) for n in rng.integers(2, 6, size=2))
    x, y = (np.cumsum(rng.uniform(0.2, 1.0, n)) for n in (nx, ny))
    g = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 2.0)
    p = np.exp(g * np.outer(x, y) + rng.normal(size=nx)[:, None] + rng.normal(size=ny))
    tiny = (rng.random(nx) < 0.5) & (rng.random() < 1 / 3)
    p[tiny] *= 10.0 ** -rng.uniform(6, 12, int(tiny.sum()))[:, None]
    return bivariate(p), g == 0.0, tiny.any()


class TestCrossProperties:
    def test_mlrp_iff_tp2_and_symmetric(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t = random_bivariate(rng, (3, 3))
            m_xy = mlrp_check(t, "X", "Y").holds
            m_yx = mlrp_check(t, "Y", "X").holds
            tp2 = tp2_check(t, "X", "Y").holds
            assert m_xy == m_yx == tp2

    def test_implication_chain(self):
        # few random tables are MLRP, so tables TP2 by construction ride
        # along, non-binary tiny-cell ones among them
        rng = np.random.default_rng(23)
        ok = (Verdict.POSITIVE, Verdict.ZERO)
        tables = [(random_bivariate(rng, (3, 3)), False) for _ in range(200)]
        seen = collections.Counter()
        for _ in range(300):
            t, independent, tiny = tp2_bivariate(rng)
            tables.append((t, True))
            seen["independent"] += independent
            seen["tiny rows, 3 or more levels"] += tiny and max(t.probabilities.shape) > 2
        for t, built in tables:
            assert tp2_check(t, "X", "Y").holds or not built
            if mlrp_check(t, "X", "Y").holds:
                fwd = influence_sign(t, "X", "Y").verdict
                rev = influence_sign(t, "Y", "X").verdict
                assert fwd in ok and rev in ok
                assert association_check(t, "X", "Y").holds
        for key in ("independent", "tiny rows, 3 or more levels"):
            assert seen[key] > 0, key

    def test_binary_collapse(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            t = random_bivariate(rng, (2, 2))
            positive = {
                influence_sign(t, "X", "Y").verdict is Verdict.POSITIVE,
                influence_sign(t, "Y", "X").verdict is Verdict.POSITIVE,
                mlrp_check(t, "X", "Y").holds,
                tp2_check(t, "X", "Y").holds,
                association_check(t, "X", "Y").holds,
            }
            assert len(positive) == 1

    def test_table1_documents_asymmetry(self):
        t = table1_fixture()
        assert influence_sign(t, "X", "Y").verdict is Verdict.POSITIVE
        assert influence_sign(t, "Y", "X").verdict is Verdict.AMBIGUOUS


class TestProductTolerance:
    def test_tiny_cells_fail_tp2_and_mlrp_both_ways(self):
        # 3e-5 off the diagonal, 1e-7 on it, the rest on the top corner:
        # every 2x2 minor mixing the two small levels fails by a factor of
        # 9e4, though each cell product is below EPS_PROB
        p = np.full((3, 3), 3e-5)
        np.fill_diagonal(p, 1e-7)
        p[2, 2] = 0.0
        p[2, 2] = 1.0 - p.sum()
        t = bivariate(p)
        assert not tp2_check(t, "X", "Y").holds
        assert not mlrp_check(t, "X", "Y").holds
        assert not mlrp_check(t, "Y", "X").holds

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-12.0, 0.0), min_size=9, max_size=9))
    # a level of Y, then of X, with mass below EPS_PROB: TP2, TP2, not TP2
    @example([-0.5, -0.5, -11.5, -0.5, -0.25, -11.0, -0.5, 0.0, -10.5])
    @example([-0.5, -0.5, -0.5, -0.5, -0.25, 0.0, -11.5, -11.0, -10.5])
    @example([0.0, -0.5, -12.0, -0.5, 0.0, -12.0, -12.0, -12.0, -12.0])
    def test_mlrp_iff_tp2_on_tiny_cells(self, exponents):
        t = bivariate(np.reshape(np.power(10.0, exponents), (3, 3)))
        m_xy = mlrp_check(t, "X", "Y").holds
        m_yx = mlrp_check(t, "Y", "X").holds
        assert m_xy == m_yx == tp2_check(t, "X", "Y").holds

    def test_mlrp_answers_on_levels_of_tiny_mass(self):
        # TP2 tables with rows scaled by 1e-6 to 1e-12: MLRP is TP2 of the
        # joint, so conditioning on a level of mass below EPS_PROB answers
        rng = np.random.default_rng(41)
        tiny_levels = 0
        for _ in range(600):
            t, _, _ = tp2_bivariate(rng)
            assert tp2_check(t, "X", "Y").holds
            assert mlrp_check(t, "X", "Y").holds and mlrp_check(t, "Y", "X").holds
            tiny_levels += bool((t.probabilities.sum(axis=1) <= EPS_PROB).any())
        assert tiny_levels > 0

    def test_tiny_cells_fail_association_on_2x2(self):
        # p00 p11 is a third of p01 p10, a gap below EPS_PROB in absolute
        # terms; for binary variables association, TP2 and MLRP coincide
        t = bivariate([[0.5 - 3e-9, 0.5], [2e-9, 1e-9]])
        assert not tp2_check(t, "X", "Y").holds
        assert not mlrp_check(t, "X", "Y").holds
        result = association_check(t, "X", "Y")
        assert not result.holds
        assert result.witness.p_concordant < result.witness.p_discordant

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-12.0, 0.0), min_size=4, max_size=4))
    def test_association_iff_tp2_on_tiny_2x2_cells(self, exponents):
        t = bivariate(np.reshape(np.power(10.0, exponents), (2, 2)))
        p = t.probabilities
        diag, cross = p[0, 0] * p[1, 1], p[0, 1] * p[1, 0]
        # near a tie the two checks may round to different sides
        assume(abs(diag - cross) > 1e-6 * max(diag, cross))
        result = association_check(t, "X", "Y")
        assert result.holds == tp2_check(t, "X", "Y").holds
        if not result.holds:
            assert result.witness.p_concordant < result.witness.p_discordant


# ---- differential oracle: nested loops written from the definitions -----


def _oracle_influence(table, i, j, context):
    """Influence of i on j: every context cell row-major, then upper level
    ascending, then lower level descending; zero-mass rows are skipped.
    Only an ambiguous verdict has a witness."""
    names = table.names
    keep = [*context, i, j]
    drop = tuple(k for k, n in enumerate(names) if n not in keep)
    summed = table.probabilities.sum(axis=drop) if drop else table.probabilities
    rest = [n for n in names if n in keep]
    probs = np.transpose(summed, [rest.index(n) for n in keep])
    specs = [table.variable(n) for n in keep]
    ctx_specs, i_spec, j_spec = specs[:-2], specs[-2], specs[-1]
    skipped, comparisons = [], []
    for cell in itertools.product(*(range(s.size) for s in ctx_specs)):
        levels = {s.name: s.support[k] for s, k in zip(ctx_specs, cell)}
        cdfs = []
        for xi in range(i_spec.size):
            row = probs[cell + (xi,)]
            if row.sum() <= EPS_PROB:
                skipped.append({**levels, i: i_spec.support[xi]})
                cdfs.append(None)
            else:
                cdfs.append(np.cumsum(row / row.sum()))
        for hi in range(1, i_spec.size):
            for lo in range(hi - 1, -1, -1):
                if cdfs[hi] is None or cdfs[lo] is None:
                    continue
                diff = cdfs[hi] - cdfs[lo]
                below = all(d <= EPS_PROB for d in diff)
                above = all(d >= -EPS_PROB for d in diff)
                rel = {
                    (True, True): "equal",
                    (True, False): "dominates",
                    (False, True): "dominated_by",
                    (False, False): "incomparable",
                }[below, above]
                offending = None
                if rel == "incomparable":
                    offending = j_spec.support[
                        next(k for k, d in enumerate(diff) if d > EPS_PROB)
                    ]
                witness = {
                    "context": levels,
                    "upper": i_spec.support[hi],
                    "lower": i_spec.support[lo],
                    "relation": rel,
                    "offending_level": offending,
                }
                comparisons.append((witness, rel))

    def first(*rels):
        return next(w for w, r in comparisons if r in rels)

    rels = {r for _, r in comparisons}
    witness = None
    if rels <= {"equal"}:
        verdict = "zero"
    elif rels <= {"dominates", "equal"}:
        verdict = "positive"
    elif rels <= {"dominated_by", "equal"}:
        verdict = "negative"
    else:
        verdict = "ambiguous"
        if "incomparable" in rels:
            witness = first("incomparable")
        elif first("dominates", "dominated_by")["relation"] == "dominates":
            witness = first("dominated_by")
        else:
            witness = first("dominates")
    return {"verdict": verdict, "witness": witness, "skipped_contexts": skipped}


def _oracle_mlrp(table, x, y):
    """Every violation, upper x descending, lower x ascending, upper y
    descending, lower y ascending; the first is the witness."""
    probs = table.marginalize({x, y}).probabilities
    if table.names.index(x) > table.names.index(y):
        probs = probs.T
    cond = probs / probs.sum(axis=0)
    xs, ys = table.variable(x).support, table.variable(y).support
    violations = []
    for xh in range(len(xs) - 1, -1, -1):
        for xl in range(xh):
            for yh in range(len(ys) - 1, -1, -1):
                for yl in range(yh):
                    lhs = cond[xh, yh] * cond[xl, yl]
                    rhs = cond[xh, yl] * cond[xl, yh]
                    if lhs < rhs - EPS_PROB * max(abs(lhs), abs(rhs)):
                        violations.append({
                            "x": xs[xh], "x_prime": xs[xl],
                            "y": ys[yh], "y_prime": ys[yl],
                            "ratio_at_x": (
                                cond[xh, yh] / cond[xh, yl] if cond[xh, yl] > 0 else math.inf
                            ),
                            "ratio_at_x_prime": (
                                cond[xl, yh] / cond[xl, yl] if cond[xl, yl] > 0 else math.inf
                            ),
                        })
    return {
        "holds": not violations,
        "witness": violations[0] if violations else None,
        "violation_count": len(violations),
    }


def _oracle_tp2(table, x, y):
    """The first violation in (x_lower, x_upper, y_lower, y_upper) order."""
    probs = table.marginalize({x, y}).probabilities
    if table.names.index(x) > table.names.index(y):
        probs = probs.T
    xs, ys = table.variable(x).support, table.variable(y).support
    for xl, xh in itertools.combinations(range(len(xs)), 2):
        for yl, yh in itertools.combinations(range(len(ys)), 2):
            cross = probs[xl, yh] * probs[xh, yl]
            diag = probs[xl, yl] * probs[xh, yh]
            if diag < cross - EPS_PROB * max(abs(diag), abs(cross)):
                return {"holds": False, "witness": {
                    "x": xs[xl], "x_prime": xs[xh], "y": ys[yl], "y_prime": ys[yh],
                    "cross_product": cross, "diagonal_product": diag,
                }}
    return {"holds": True, "witness": None}


def _oracle_association(table, x, y):
    """The association scan with every row U compared against every upper
    set V, rows in ``_upper_set_masks`` order: each failing row's first V
    and its two products, as witnesses."""
    probs, x_spec, y_spec = _pair(table, x, y)
    masks = _upper_set_masks(x_spec.size, y_spec.size)
    n = len(masks)
    flat = probs.reshape(-1)
    inside = masks.reshape(n, -1).astype(float)
    outside = 1.0 - inside
    sides = np.concatenate([inside, outside])
    weights = np.stack([inside * flat, outside * flat], axis=2)
    for a in range(n):
        m = sides @ weights[a]
        both, v_only, u_only, neither = m[:n, 0], m[:n, 1], m[n:, 0], m[n:, 1]
        concordant, discordant = both * neither, u_only * v_only
        bad = dist.product_below(concordant, discordant)
        if np.any(bad):
            b = int(np.argmax(bad))
            yield AssociationViolation(
                _cells(masks[a], x_spec, y_spec),
                _cells(masks[b], x_spec, y_spec),
                float(concordant[b]),
                float(discordant[b]),
            )


def _brute_least_excess(probs, masks):
    """T P(U and V) - P(U) P(V) for every pair of upper sets, least over the
    V other than the empty set and the whole grid (first and last in
    ``_upper_set_masks`` order), U taken 512 at a time."""
    n = len(masks)
    inside = masks.reshape(n, -1).astype(float)
    flat = probs.reshape(-1)
    mass = inside @ flat
    least = []
    for a in range(0, n, 512):
        u = slice(a, a + 512)
        excess = flat.sum() * ((inside[u] * flat) @ inside.T) - np.outer(mass[u], mass)
        least.append(excess[:, 1:-1].min(axis=1))
    return np.concatenate(least)


def _counting_block_screen(monkeypatch):
    """The number of rows that reach association_check's block screen, one
    entry per block."""
    counts = []
    block_cleared = dependence._block_cleared

    def counted(sides, flat, rows, factor):
        counts.append(len(rows))
        return block_cleared(sides, flat, rows, factor)

    monkeypatch.setattr(dependence, "_block_cleared", counted)
    return counts


def _association_table(rng, kind, shape):
    """An nx-by-ny joint of one kind: exponential cells, log-uniform cells
    from 1e-12 to 1, independent (every pair of upper sets ties), log-linear
    with g > 0 (TP2), a prior times an FSD-increasing CPT (associated), or
    log-linear with g < 0 (fails on many rows)."""
    nx, ny = shape
    if kind == "exponential":
        p = rng.exponential(size=shape)
    elif kind == "log-uniform":
        p = 10.0 ** rng.uniform(-12, 0, size=shape)
    elif kind == "independent":
        p = np.outer(rng.exponential(size=nx), rng.exponential(size=ny))
    elif kind == "prior x monotone":
        # each row's cdf at or below the row before it: FSD-increasing in x
        cdf = np.minimum.accumulate(np.sort(rng.random((nx, ny - 1)), axis=1), axis=0)
        p = rng.dirichlet(np.ones(nx))[:, None] * np.diff(cdf, prepend=0.0, append=1.0, axis=1)
    elif kind == "log-uniform to 1e-300":
        p = 10.0 ** rng.uniform(-300, 0, size=shape)
    else:
        x, y = (np.cumsum(rng.uniform(0.2, 1.0, n)) for n in shape)
        g = rng.uniform(0.1, 2.0) * (1 if kind == "log-linear" else -1)
        p = np.exp(g * np.outer(x, y) + rng.normal(size=nx)[:, None] + rng.normal(size=ny))
    return bivariate(p)


def _near_threshold_table(rng, n, delta):
    """An n-by-n joint whose pair U = {X >= i}, V = {Y >= j} has
    P(U and V) P(neither) / (P(U only) P(V only)) = (1 - EPS_PROB)(1 + delta)
    before rounding: a 2x2 table over (X >= i, Y >= j) with independent
    exponential cells inside each of its four blocks."""
    corner = 0.25 * math.sqrt((1 - EPS_PROB) * (1 + delta))
    coarse = np.array([[corner, 0.25], [0.25, corner]])
    split = [np.arange(n) >= k for k in rng.integers(1, n, size=2)]
    margins = [rng.exponential(size=n) for _ in split]
    for m, upper in zip(margins, split):
        m[upper] /= m[upper].sum()
        m[~upper] /= m[~upper].sum()
    x, y = (upper.astype(int) for upper in split)
    return bivariate(coarse[np.ix_(x, y)] * np.outer(*margins))


def _tiny_row_table(rng, n):
    """An n-by-n joint whose row X = 1 holds 1e-20 of the mass, none of it
    at Y = 1, on top of an independent table: the lowest X puts its mass
    higher in Y than the others do, and the pairs it makes fail by ratios
    far from the threshold, with excesses near 1e-21."""
    rest = np.outer(rng.exponential(size=n - 1), rng.exponential(size=n))
    row = rng.exponential(size=n - 1)
    first = 1e-20 * np.concatenate([[0.0], row / row.sum()])
    return bivariate(np.vstack([first, rest / rest.sum()]))


EDGE_KINDS = ("weak log-linear", "clipped monotone", "zero rows", "sparse SI", "perturbed SI")


def _edge_table(rng, kind, shape):
    """An nx-by-ny joint at the edges of association_check's
    stochastic-increase certificate: log-linear exp(g x y + a_x + b_y) with
    g from 1e-15 to 1e-3, near a tie; a prior times a monotone CPT whose
    cdfs are clipped to 0 and 1, with zero cells and tied rows; log-linear
    with g > 0 or g < 0 and some rows of X or of Y zeroed; log-linear on a
    band of cells, TP2 with many zero cells; or log-linear with g from
    1e-12 to 0.1 and one cell scaled by 1 + 10^-k or 1 - 10^-k."""
    nx, ny = shape
    x, y = (np.cumsum(rng.uniform(0.2, 1.0, n)) for n in shape)

    def log_linear(g):
        return np.exp(g * np.outer(x, y) + rng.normal(size=nx)[:, None] + rng.normal(size=ny))

    if kind == "weak log-linear":
        p = log_linear(10.0 ** rng.uniform(-15, -3))
    elif kind == "clipped monotone":
        cdf = np.clip(np.sort(rng.uniform(-0.5, 1.5, (nx, ny - 1)), axis=1), 0.0, 1.0)
        cdf = np.minimum.accumulate(cdf, axis=0)
        p = rng.dirichlet(np.ones(nx))[:, None] * np.diff(cdf, prepend=0.0, append=1.0, axis=1)
    elif kind == "zero rows":
        p = log_linear(rng.uniform(0.1, 2.0) * rng.choice([1, -1]))
        axis = int(rng.integers(2))
        zeroed = rng.random(shape[axis]) < 0.4
        zeroed[rng.integers(shape[axis])] = False
        np.moveaxis(p, axis, 0)[zeroed] = 0.0
    elif kind == "sparse SI":
        u, v = np.arange(nx)[:, None] / (nx - 1), np.arange(ny) / (ny - 1)
        p = log_linear(rng.uniform(0.1, 2.0)) * (np.abs(u - v) <= rng.uniform(0.2, 0.7))
    else:
        p = log_linear(10.0 ** rng.uniform(-12, -1))
        p[rng.integers(nx), rng.integers(ny)] *= 1 + rng.choice([1, -1]) * 10.0 ** -rng.integers(1, 17)
    return bivariate(p)


def _raised_corners(n):
    """exp(3 u v) on the n-by-n grid of u, v in [0, 1], with the corners
    (0, 1) and (1, 0) raised from 1 to 2.  From 4 levels on it is
    associated, every row clearing the staircase screen, but stochastically
    increasing in neither direction, so the certificate leaves it to the
    screen."""
    u = np.linspace(0.0, 1.0, n)
    p = np.exp(3.0 * np.outer(u, u))
    p[0, -1] = p[-1, 0] = 2.0
    return bivariate(p)


def _counting_staircase(monkeypatch):
    """The number of upper sets that reach association_check's staircase
    screen, one entry per call."""
    counts = []
    least_excess = dependence._least_excess

    def counted(probs, masks):
        counts.append(len(masks))
        return least_excess(probs, masks)

    monkeypatch.setattr(dependence, "_least_excess", counted)
    return counts


def _random_table(rng, shape=None):
    """2-4 variables of 2-4 levels, unless ``shape`` is given: an independent
    table, random cells with about 30% zeros, or small integer counts with
    or without zeros (ties and exactly equal rows)."""
    if shape is None:
        shape = tuple(int(n) for n in rng.integers(2, 5, size=rng.integers(2, 5)))
    kind = rng.integers(4)
    if kind == 0:
        probs = functools.reduce(np.multiply.outer, [rng.exponential(size=n) for n in shape])
    elif kind == 1:
        probs = rng.exponential(size=shape) * (rng.random(shape) > 0.3)
    else:
        probs = rng.integers(kind - 2, 4, size=shape).astype(float)
    if probs.sum() == 0:
        probs.flat[0] = 1.0
    names = tuple(f"V{k}" for k in range(len(shape)))
    specs = tuple(VariableSpec(n, tuple(range(1, s + 1))) for n, s in zip(names, shape))
    return JointTable(specs, probs / probs.sum())


# the verdicts that meet each sign, by the definition: dominance is
# non-strict, so independence meets '+' and '-' as well as '0'
_MEETING = {
    Sign.PLUS: (Verdict.POSITIVE, Verdict.ZERO),
    Sign.MINUS: (Verdict.NEGATIVE, Verdict.ZERO),
    Sign.ZERO: (Verdict.ZERO,),
}


class TestDifferential:
    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(31)
        stack_rng = np.random.default_rng(32)
        seen = collections.Counter()
        for _ in range(600):
            t = _random_table(rng)
            i, j, *others = rng.permutation(t.names).tolist()
            context = [c for c in others if rng.random() < 0.7]
            v = influence_sign(t, i, j, context)
            assert v.to_jsonable() == _oracle_influence(t, i, j, context)

            # the same comparison on a stack of tables of this shape
            stack = [t] + [_random_table(stack_rng, t.probabilities.shape) for _ in range(3)]
            codes = stack_verdict_codes(
                np.stack([s.probabilities for s in stack]),
                t.axis(i), t.axis(j), [t.axis(c) for c in context],
            )
            verdicts = [influence_sign(s, i, j, context) for s in stack]
            assert [VERDICTS[c] for c in codes] == [v.verdict for v in verdicts]
            seen["stacked skipped"] += any(v.skipped_contexts for v in verdicts)
            # the search's block decision: which rows do not meet a sign
            for sign, meeting in _MEETING.items():
                assert (~MEETS[sign][codes]).tolist() == [v.verdict not in meeting for v in verdicts]
            for v in verdicts:
                seen[f"row {v.verdict.value}"] += 1
            for a, b in ((i, j), (j, i)):
                try:
                    got = mlrp_check(t, a, b).to_jsonable()
                except ZeroColumn:
                    seen["zero column"] += 1
                    continue
                assert got == _oracle_mlrp(t, a, b)
            assert tp2_check(t, i, j).to_jsonable() == _oracle_tp2(t, i, j)

            seen[v.verdict.value] += 1
            seen["skipped"] += bool(v.skipped_contexts)
            relation = v.witness.relation.value if v.witness else None
            if v.verdict is Verdict.AMBIGUOUS and relation != "incomparable":
                seen["ambiguous without incomparable"] += 1
            if v.witness and context:
                first_cell = {c: t.variable(c).support[0] for c in context}
                seen["witness past first cell"] += dict(v.witness.context) != first_cell
        for key in ("positive", "negative", "zero", "ambiguous", "skipped", "zero column",
                    "ambiguous without incomparable", "witness past first cell", "stacked skipped",
                    "row positive", "row negative", "row zero", "row ambiguous"):
            assert seen[key] > 0, key

    def test_ambiguous_witness_conflicts_with_first_strict(self):
        # positive in context C=1, negative in C=2: no incomparable pair, so
        # the witness is the first dominated_by comparison, in C=2
        rows = np.array([[[0.3, 0.2], [0.1, 0.4]], [[0.1, 0.4], [0.3, 0.2]]])
        specs = tuple(VariableSpec(n, (1, 2)) for n in "CXY")
        t = JointTable(specs, rows / rows.sum())
        v = influence_sign(t, "X", "Y", ["C"])
        assert v.verdict is Verdict.AMBIGUOUS
        assert v.witness.to_jsonable() == {
            "context": {"C": 2.0}, "upper": 2.0, "lower": 1.0,
            "relation": "dominated_by", "offending_level": None,
        }


class TestAssociationScan:
    KINDS = ("exponential", "log-uniform", "independent", "log-linear",
             "prior x monotone", "anti log-linear")

    def check(self, t, x, y):
        """The scan's JSON bytes against the full-row oracle's; the number
        of failing rows, up to two."""
        failures = _oracle_association(t, x, y)
        first = next(failures, None)
        expected = PairResult(first is None, first).to_jsonable()
        assert json.dumps(association_check(t, x, y).to_jsonable()) == json.dumps(expected)
        return 0 if first is None else 1 + (next(failures, None) is not None)

    def test_matches_full_row_oracle(self):
        rng = np.random.default_rng(53)
        seen = collections.Counter()
        for k in range(540):
            kind = self.KINDS[k % len(self.KINDS)]
            shape = tuple(int(n) for n in rng.integers(2, 7, size=2))
            x, y = ("X", "Y") if rng.random() < 0.5 else ("Y", "X")
            failing = self.check(_association_table(rng, kind, shape), x, y)
            seen[kind, "fails" if failing else "holds"] += 1
            seen["several failing rows"] += failing == 2
            seen["6x6 holds"] += shape == (6, 6) and not failing
        for kind in ("independent", "log-linear", "prior x monotone"):
            assert seen[kind, "fails"] == 0 and seen[kind, "holds"] > 0, kind
        for kind in ("exponential", "log-uniform", "anti log-linear"):
            assert seen[kind, "fails"] > 0, kind
        assert seen["several failing rows"] > 0 and seen["6x6 holds"] > 0

    def test_a_set_of_negative_mass_fails_against_itself(self):
        # a cell of -5e-10, inside the EPS_PROB allowance, is an upper set of
        # negative mass: P(U) P(not U) < 0 = P(U only) P(U only)
        t = bivariate([[0.5, 0.25], [0.25 + 5e-10, -5e-10]])
        assert self.check(t, "X", "Y") > 0
        assert association_check(t, "X", "Y").witness.upper_set_v == ((2, 2),)

    @pytest.mark.parametrize("shape", [(7, 7), (7, 3), (2, 7)])
    def test_matches_full_row_oracle_on_seven_levels(self, shape):
        # failing tables only: both scans of a holding 7x7 table take a second
        rng = np.random.default_rng(shape)
        for _ in range(3):
            t = _association_table(rng, "anti log-linear", shape)
            for x, y in (("X", "Y"), ("Y", "X")):
                assert self.check(t, x, y) > 0

    def test_blocked_screen_matches_full_row_oracle(self):
        # 504 tables of 2-7 levels, through many blocks of rows on the larger
        # grids; cells down to 1e-300 take the unscreened path, where every
        # row is decided by its own product
        rng = np.random.default_rng(24)
        kinds = self.KINDS + ("log-uniform to 1e-300",)
        seen = collections.Counter()
        for k in range(504):
            kind = kinds[k % len(kinds)]
            shape = tuple(int(n) for n in rng.integers(2, 8, size=2))
            if shape == (7, 7) and kind in ("independent", "log-linear", "prior x monotone"):
                shape = (7, 6)  # both scans of a holding 7x7 table take a second
            x, y = ("X", "Y") if rng.random() < 0.5 else ("Y", "X")
            failing = self.check(_association_table(rng, kind, shape), x, y)
            seen[kind, "fails" if failing else "holds"] += 1
            seen["seven levels"] += 7 in shape
        for kind in ("independent", "log-linear", "prior x monotone"):
            assert seen[kind, "fails"] == 0 and seen[kind, "holds"] > 0, kind
        for kind in ("exponential", "log-uniform", "anti log-linear", "log-uniform to 1e-300"):
            assert seen[kind, "fails"] > 0, kind
        assert seen["seven levels"] > 100

    def test_near_threshold_rows_are_decided_by_their_own_product(self, monkeypatch):
        # one pair's ratio stepped across 1 - EPS_PROB by 5e-17 near it and
        # by powers of ten out to 1e-12, past the screen's rounding margin;
        # product_below runs only when a row is decided by its own product
        decided = []
        monkeypatch.setattr(dependence, "product_below",
                            lambda *a: decided.append(1) or dist.product_below(*a))
        screened = _counting_block_screen(monkeypatch)
        steps = [k * 5e-17 for k in range(-20, 21)]
        steps += [s * 10.0**e for e in np.arange(-15, -11.9, 0.5) for s in (1, -1)]
        for n in range(2, 7):
            rng = np.random.default_rng(n)
            verdicts = collections.Counter()
            for delta in sorted(steps):
                t = _near_threshold_table(rng, n, delta)
                decided.clear()
                failing = self.check(t, "X", "Y")
                verdicts["fails" if failing else "holds"] += 1
                if not failing:
                    verdicts["re-decided" if decided else "cleared"] += 1
                    # up to 1e-14 from the threshold a row is decided by its
                    # own product; at 1e-12 every row clears the screen
                    assert decided or delta > 1e-14, (n, delta)
                    assert not decided or delta < 1e-12, (n, delta)
            assert min(verdicts.values()) > 0, (n, verdicts)
        # the staircase screen cannot clear the pair near the threshold
        assert sum(screened) > 0

    @pytest.mark.parametrize("rows", [1, 3, 10**6])
    def test_block_shape_does_not_change_the_bytes(self, monkeypatch, rows):
        # one row per block, three, and every row in one block
        rng = np.random.default_rng(rows)
        shapes = [tuple(int(n) for n in rng.integers(2, 7, size=2)) for _ in range(60)]
        tables = [_association_table(rng, self.KINDS[k % len(self.KINDS)], shape)
                  for k, shape in enumerate(shapes)]
        tables += [_near_threshold_table(rng, n, k * 1e-15)
                   for n in range(2, 7) for k in (-3, 0, 3)]

        def scanned():
            return [json.dumps(association_check(t, "X", "Y").to_jsonable()) for t in tables]

        expected = scanned()
        monkeypatch.setattr(dependence, "_BLOCK_ROWS", rows)
        screened = _counting_block_screen(monkeypatch)
        assert scanned() == expected
        # rows the staircase screen leaves, such as those near the
        # threshold and the sets {X >= x} of an independent table, go
        # through the blocks
        assert sum(screened) > 0
        assert rows == 1 or max(screened) > 1

    def test_rows_failing_below_the_rounding_are_not_cleared(self):
        # excesses near 1e-21 sit far below the staircase screen's
        # rounding, which lifts some failing rows' least excess to 0 or
        # above: only its margin keeps them from being cleared
        rng = np.random.default_rng(2028)
        lifted = 0
        for n in (3, 4, 5):
            masks = _upper_set_masks(n, n)
            for _ in range(40):
                t = _tiny_row_table(rng, n)
                assert self.check(t, "X", "Y") > 0
                spec = t.variable("X")
                witness = association_check(t, "X", "Y").witness.upper_set_u
                u = [_cells(m, spec, spec) for m in masks].index(witness)
                lifted += _least_excess(t.probabilities, masks)[u] >= 0
        assert lifted > 0

    def test_staircase_minimum_matches_brute_force(self):
        # 301 tables of 2-7 levels, every kind of non-negative cells: the
        # dynamic program's least excess is the least over every
        # non-trivial V, within association_check's margin of
        # 16 cells eps T^2.  On an independent table no excess is
        # negative, and {X >= x} and {Y >= y} are independent of each
        # other, so on those sets the least is 0
        rng = np.random.default_rng(28)
        kinds = self.KINDS + ("log-uniform to 1e-300",)
        seen = collections.Counter()
        for k in range(301):
            kind = kinds[k % len(kinds)]
            shape = tuple(int(n) for n in rng.integers(2, 8, size=2))
            probs = _association_table(rng, kind, shape).probabilities
            masks = _upper_set_masks(*probs.shape)
            margin = 16 * probs.size * np.finfo(float).eps * probs.sum() ** 2
            least = _least_excess(probs, masks)
            assert np.abs(least - _brute_least_excess(probs, masks)).max() <= margin, (k, kind)
            if kind == "independent":
                rows_or_columns = [(masks == masks[:, :1]).all(axis=(1, 2)),
                                   (masks == masks[:, :, :1]).all(axis=(1, 2))]
                assert least.min() >= -margin, k
                assert np.abs(least[np.logical_or(*rows_or_columns)]).max() <= margin, k
            cleared = least[1:-1] >= margin
            seen[kind, "cleared"] += cleared.sum()
            seen[kind, "left"] += (~cleared).sum()
            seen["seven levels"] += 7 in probs.shape
        for kind in ("log-linear", "prior x monotone"):
            assert seen[kind, "cleared"] > 0, kind
        for kind in ("independent", "anti log-linear"):
            assert seen[kind, "left"] > 0, kind
        assert seen["seven levels"] > 50

    def test_holding_9x9_table_clears_the_staircase_screen(self, monkeypatch):
        # 48,620 upper sets: comparing every pair of them takes a minute;
        # the certificate does not decide this table, and the staircase
        # screen clears every row, so no pair is compared
        t = _raised_corners(9)
        p = t.probabilities
        assert not dependence._stochastically_increasing(p)
        assert not dependence._stochastically_increasing(p.T)
        staircase = _counting_staircase(monkeypatch)
        screened = _counting_block_screen(monkeypatch)
        assert association_check(t, "X", "Y").holds
        assert staircase == [math.comb(18, 9)] and screened == []

    def test_guard_counts_the_traced_peak(self, monkeypatch):
        # tables the certificate leaves to the staircase screen
        staircase = _counting_staircase(monkeypatch)
        for n in (6, 7):
            t = _raised_corners(n)
            tracemalloc.start()
            try:
                assert association_check(t, "X", "Y").holds
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert staircase[-1] == math.comb(2 * n, n)
            assert peak < dependence._ASSOCIATION_BYTES * math.comb(2 * n, n) * n * n, n
        # 9x9 passes the guard; 10x10 is refused before anything is allocated
        assert dependence._ASSOCIATION_BYTES * math.comb(18, 9) * 81 <= 2**30
        t = bivariate(np.ones((10, 10)))
        tracemalloc.start()
        try:
            with pytest.raises(SupportTooLarge, match="over the association check's 1 GiB budget"):
                association_check(t, "X", "Y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_certificate_matches_the_scan_without_it(self, monkeypatch):
        # 396 tables of 2-6 levels, every kind above and at the
        # certificate's edges, each both with the certificate and with it
        # patched off: the JSON bytes are the same, and the certificate
        # fires only on tables that hold
        si = dependence._stochastically_increasing
        calls = []

        def recorded(p):
            calls.append(si(p))
            return calls[-1]

        rng = np.random.default_rng(29)
        kinds = self.KINDS + ("log-uniform to 1e-300",) + EDGE_KINDS
        seen = collections.Counter()
        for k in range(396):
            kind = kinds[k % len(kinds)]
            shape = tuple(int(n) for n in rng.integers(2, 7, size=2))
            make = _edge_table if kind in EDGE_KINDS else _association_table
            t = make(rng, kind, shape)
            x, y = ("X", "Y") if rng.random() < 0.5 else ("Y", "X")
            calls.clear()
            monkeypatch.setattr(dependence, "_stochastically_increasing", recorded)
            got = association_check(t, x, y)
            certified = any(calls)
            monkeypatch.setattr(dependence, "_stochastically_increasing", lambda p: False)
            expected = association_check(t, x, y)
            assert json.dumps(got.to_jsonable()) == json.dumps(expected.to_jsonable()), (k, kind)
            assert expected.holds or not certified, (k, kind)
            seen[kind, "certified" if certified else "holds" if expected.holds else "fails"] += 1
        # every log-linear table is strictly SI; a tie is never certified
        assert seen["log-linear", "holds"] == 0 and seen["log-linear", "certified"] > 0
        assert seen["independent", "certified"] == 0
        for kind in ("prior x monotone", "weak log-linear", "zero rows", "sparse SI", "perturbed SI"):
            assert seen[kind, "certified"] > 0, (kind, seen)
        # near ties and exact ones are left to the scan
        for kind in ("weak log-linear", "clipped monotone", "sparse SI"):
            assert seen[kind, "holds"] > 0, (kind, seen)
        for kind in ("anti log-linear", "zero rows", "perturbed SI"):
            assert seen[kind, "fails"] > 0, (kind, seen)

    def refused(self, t):
        """The table fails both ways, and the certificate refuses it."""
        p = t.probabilities
        assert not dependence._stochastically_increasing(p)
        assert not dependence._stochastically_increasing(p.T)
        for x, y in (("X", "Y"), ("Y", "X")):
            assert self.check(t, x, y) > 0

    def test_certificate_needs_its_rounding_margin(self):
        # p(1,2) p(2,1) is twice p(1,1) p(2,2), so the table fails; the
        # tiny cells vanish from the row sums, and both sides of Y's tail
        # comparison at Y = 2 read 0.25: only the margin refuses it
        self.refused(bivariate([[1e-20, 0.5], [2e-20, 0.5]]))

    def test_certificate_skips_rows_of_no_mass(self):
        # X = 1 puts its mass at Y = 2 and X = 3 at Y = 1, so the table
        # fails; compared through the empty row X = 2, each step ties at 0
        self.refused(bivariate(np.array([[0, 1], [0, 0], [1, 0]]) / 2))

    def test_certificate_is_not_tried_on_a_negative_cell(self):
        # X in Y has one column of positive mass, so nothing to compare,
        # but the set {(2, 2)} has negative mass and fails against itself
        t = bivariate([[0.4, 0], [0.6 + 1e-10, -1e-10]])
        assert self.check(t, "X", "Y") > 0
        assert association_check(t, "X", "Y").witness.upper_set_v == ((2, 2),)

    def test_holding_9x9_table_with_tiny_cells_builds_no_upper_set(self, monkeypatch):
        # the output digest's log_linear(default_rng(9), 9): its cells, down
        # to 1.2e-16, sit below the staircase screen's margin, and the scan
        # took a minute; it is SI, so it holds before any upper set is built
        rng = np.random.default_rng(9)
        n = np.arange(9)
        cells = np.exp(rng.uniform(0.1, 0.6) * np.outer(n, n) + rng.normal(size=9)[:, None]
                       + rng.normal(size=9))

        def unbuilt(nx, ny):
            raise AssertionError(f"upper sets of a {nx}x{ny} grid built")

        monkeypatch.setattr(dependence, "_upper_set_masks", unbuilt)
        t = bivariate(cells)
        assert t.probabilities.min() < 2e-16
        assert association_check(t, "X", "Y").holds
        assert association_check(t, "Y", "X").holds
