import collections
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qpnet import dist
from qpnet.dependence import (
    MEETS,
    VERDICTS,
    ConditionalTable,
    Verdict,
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
    def test_mlrp_iff_tp2_on_tiny_cells(self, exponents):
        t = bivariate(np.reshape(np.power(10.0, exponents), (3, 3)))
        # MLRP conditions on every level of the other variable; a level
        # without mass is a ZeroColumn error, not a verdict
        assume(np.all(t.probabilities.sum(axis=0) > EPS_PROB))
        assume(np.all(t.probabilities.sum(axis=1) > EPS_PROB))
        m_xy = mlrp_check(t, "X", "Y").holds
        m_yx = mlrp_check(t, "Y", "X").holds
        assert m_xy == m_yx == tp2_check(t, "X", "Y").holds

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
