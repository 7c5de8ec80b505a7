"""Exact-arithmetic oracles for the tolerance-sensitive pairwise checkers.

MLRP, TP2, FSD influence and association are written here from their
definitions over ``fractions.Fraction`` cells, so no tolerance enters
them.  The float checkers decide with the tolerance EPS_PROB.  On seeded
tables of small-denominator rational cells they must give the exact
verdict wherever its margin exceeds that tolerance.  An exact tie (two
equal products, or two equal cdf values) has margin zero, a near tie a
margin within the tolerance; the tests record which way the tolerance
resolved each.
"""

import collections
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qpnet.dependence import (
    ConditionalTable,
    Verdict,
    association_check,
    influence_sign,
    mlrp_check,
    tp2_check,
)
from qpnet.dist import EPS_PROB, JointTable, VariableSpec
from qpnet.errors import ZeroColumn
from qpnet.scenarios import PROBE, TEMP, shuttle_distribution, table1_fixture


def _minor_gaps(p):
    """Relative gap of each 2x2 minor of a Fraction matrix, rows x and
    columns y, for x < x' and y < y': (p(x,y) p(x',y') - p(x,y') p(x',y))
    over the larger product, in (x, x', y, y') order; 0 for a tie."""
    gaps = {}
    for xl, xh in itertools.combinations(range(len(p)), 2):
        for yl, yh in itertools.combinations(range(len(p[0])), 2):
            diag, cross = p[xl][yl] * p[xh][yh], p[xl][yh] * p[xh][yl]
            gaps[xl, xh, yl, yh] = (diag - cross) / max(diag, cross) if diag != cross else 0
    return gaps


def _verdict(gaps):
    """(holds, margin): the property holds when no minor has a negative gap.
    A failure's margin is its largest gap below zero; a pass's is its
    smallest gap, zero when a minor ties."""
    failing = [-g for g in gaps.values() if g < 0]
    if failing:
        return False, max(failing)
    return True, min(gaps.values())


def exact_tp2(p):
    """TP2 of the joint: p(x,y) p(x',y') >= p(x,y') p(x',y) whenever
    x < x' and y < y'."""
    return _minor_gaps(p)


def exact_mlrp(p):
    """MLRP of p(x|y): for y < y' the likelihood ratio p(x|y') / p(x|y) is
    non-decreasing in x, cross-multiplied as p(x|y) p(x'|y') >= p(x|y')
    p(x'|y) for x < x'.  None when a level of y has no mass."""
    mass = [sum(col) for col in zip(*p)]
    if 0 in mass:
        return None
    return _minor_gaps([[c / m for c, m in zip(row, mass)] for row in p])


def _transpose(p):
    return [list(col) for col in zip(*p)]


def _rational_table(rng, n):
    """An n-by-n joint of Fraction cells: random small fractions with
    zeros; an outer product (every minor ties); the same with one cell
    scaled by 1 + 2**-k, k in 20..39, so that its minors miss a tie by
    about 2**-k, on either side of the tolerance; a * b * 2**(x*y), strictly
    TP2; or the last with two cells swapped."""
    def small():
        return Fraction(int(rng.integers(0, 5)), int(rng.integers(1, 7)))

    kind = int(rng.integers(5))
    if kind == 0:
        cells = [[small() for _ in range(n)] for _ in range(n)]
    elif kind <= 2:
        a, b = ([small() + 1 for _ in range(n)] for _ in range(2))
        cells = [[ax * by for by in b] for ax in a]
        if kind == 2:
            r, c = rng.integers(n, size=2)
            cells[r][c] *= 1 + Fraction(1, 2 ** int(rng.integers(20, 40)))
    else:
        a, b = ([small() + 1 for _ in range(n)] for _ in range(2))
        cells = [[a[x] * b[y] * 2 ** (x * y) for y in range(n)] for x in range(n)]
        if kind == 4:
            (r1, c1), (r2, c2) = rng.choice(n, size=(2, 2))
            cells[r1][c1], cells[r2][c2] = cells[r2][c2], cells[r1][c1]
    total = sum(map(sum, cells))
    if total == 0:
        cells[0][0] = total = Fraction(1)
    return [[c / total for c in row] for row in cells]


@pytest.mark.parametrize("n, seed", [(3, 71), (4, 72)])
def test_float_checkers_match_exact_oracles(n, seed):
    rng = np.random.default_rng(seed)
    x = VariableSpec("X", tuple(range(n)))
    y = VariableSpec("Y", tuple(range(n)))
    seen = collections.Counter()
    for _ in range(400):
        p = _rational_table(rng, n)
        table = JointTable((x, y), np.array(p, dtype=float))
        checks = [("tp2", exact_tp2(p), lambda: tp2_check(table, "X", "Y").holds)]
        for name, cells, a, b in (("mlrp X|Y", p, "X", "Y"), ("mlrp Y|X", _transpose(p), "Y", "X")):
            gaps = exact_mlrp(cells)
            if gaps is None:
                with pytest.raises(ZeroColumn):
                    mlrp_check(table, a, b)
                seen["zero column"] += 1
                continue
            checks.append((name, gaps, lambda a=a, b=b: mlrp_check(table, a, b).holds))
            if a == "X":
                cond = np.array(p, dtype=float)
                lik = ConditionalTable(x, y, cond / cond.sum(axis=0))
                checks.append(("ConditionalTable", gaps, lambda lik=lik: not lik.mlrp_violations()))
        for name, gaps, float_holds in checks:
            holds, margin = _verdict(gaps)
            got = float_holds()
            if margin > EPS_PROB:
                assert got == holds, (name, p)
                seen[f"decided, holds={holds}"] += 1
            else:
                tie = "tie" if margin == 0 else "near tie"
                seen[f"{name}: {tie}, exact holds={holds}, float holds={got}"] += 1
    for key in ("decided, holds=True", "decided, holds=False", "zero column",
                "tp2: tie, exact holds=True, float holds=True",
                "tp2: near tie, exact holds=False, float holds=True"):
        assert seen[key] > 0, key
    print(f"{n}x{n} exact oracles: " + ", ".join(f"{k}: {v}" for k, v in sorted(seen.items())))


def exact_influence(p):
    """The FSD influence of X (rows) on Y (columns), and the differences
    F(y | x') - F(y | x) of the conditional cdfs, for levels x < x' with
    mass and every y but the last, where both cdfs reach 1.

    Positive when every difference is <= 0, so that each larger level of X
    dominates each smaller one, negative when every one is >= 0, zero when
    all are 0, else ambiguous.  A level of X without mass is skipped."""
    cdfs = [
        list(itertools.accumulate(c / sum(row) for c in row))[:-1]
        for row in p
        if sum(row) > 0
    ]
    diffs = [
        high - low
        for lo, hi in itertools.combinations(cdfs, 2)
        for low, high in zip(lo, hi)
    ]
    if not any(diffs):
        return Verdict.ZERO, diffs
    if all(d <= 0 for d in diffs):
        return Verdict.POSITIVE, diffs
    if all(d >= 0 for d in diffs):
        return Verdict.NEGATIVE, diffs
    return Verdict.AMBIGUOUS, diffs


@functools.lru_cache(maxsize=None)
def _upper_sets(nx, ny):
    """Every subset of the nx-by-ny grid closed under coordinatewise
    increase, as a frozenset of (x, y) cells, the empty set included."""
    grid = list(itertools.product(range(nx), range(ny)))
    sets = []
    for bits in range(2 ** len(grid)):
        cells = frozenset(c for k, c in enumerate(grid) if bits >> k & 1)
        if all((a, b) in cells for x, y in cells for a, b in grid if a >= x and b >= y):
            sets.append(cells)
    return sets


def exact_association(p):
    """Association of (X, Y): P(U and V) >= P(U) P(V) for every pair of
    upper sets U, V of the support grid (symmetric in U and V, so each
    unordered pair once).  Returns whether it holds and, for each pair, the
    relative gap of the float checker's equivalent
    comparison P(U and V) P(neither) against P(U only) P(V only), whose
    difference is the covariance P(U and V) - P(U) P(V) since the table
    sums to 1; 0 for a tie."""
    @functools.lru_cache(maxsize=None)
    def mass(cells):
        return sum((p[x][y] for x, y in cells), Fraction(0))

    sets = _upper_sets(len(p), len(p[0]))
    every = frozenset(itertools.product(range(len(p)), range(len(p[0]))))
    holds, gaps = True, []
    for u, v in itertools.combinations_with_replacement(sets, 2):
        covariance = mass(u & v) - mass(u) * mass(v)
        concordant, discordant = mass(u & v) * mass(every - u - v), mass(u - v) * mass(v - u)
        assert concordant - discordant == covariance
        holds &= covariance >= 0
        gaps.append(covariance / max(concordant, discordant) if covariance else 0)
    return holds, gaps


def test_fsd_and_association_match_exact_oracles():
    # an exact zero difference is an equality, which float rounding far
    # below the tolerance cannot turn; the margin is the smallest nonzero
    # one, and a table whose margin exceeds the tolerance must be decided
    # exactly, ties included
    rng = np.random.default_rng(73)
    x = VariableSpec("X", (0, 1, 2))
    y = VariableSpec("Y", (0, 1, 2))
    seen = collections.Counter()
    for _ in range(300):
        p = _rational_table(rng, 3)
        table = JointTable((x, y), np.array(p, dtype=float))
        checks = [
            ("influence X->Y", *exact_influence(p), lambda: influence_sign(table, "X", "Y").verdict),
            ("influence Y->X", *exact_influence(_transpose(p)),
             lambda: influence_sign(table, "Y", "X").verdict),
            ("association", *exact_association(p), lambda: association_check(table, "X", "Y").holds),
        ]
        for name, exact, gaps, float_verdict in checks:
            got = float_verdict()
            margin = min((abs(g) for g in gaps if g), default=None)
            tie = "with ties" if 0 in gaps else "no ties"
            if margin is None or margin > EPS_PROB:
                assert got == exact, (name, p)
                seen[f"{name}: decided {tie}, exact={exact}"] += 1
            else:
                seen[f"{name}: near tie, exact={exact}, float={got}"] += 1
    for key in ("influence X->Y: decided with ties, exact=Verdict.ZERO",
                "influence X->Y: decided no ties, exact=Verdict.POSITIVE",
                "influence X->Y: decided no ties, exact=Verdict.AMBIGUOUS",
                "association: decided with ties, exact=True",
                "association: decided with ties, exact=False"):
        assert seen[key] > 0, (key, seen)
    assert any("near tie" in key for key in seen), seen
    print("3x3 FSD and association exact oracles: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(seen.items())))


def _certify_influence(table, p, i, j):
    """The exact FSD influence of rows ``i`` on columns ``j`` of the
    Fraction pair marginal ``p``, checked against ``influence_sign``: its
    margin, the smallest nonzero cdf difference, must exceed the tolerance."""
    exact, diffs = exact_influence(p)
    margin = min(abs(d) for d in diffs if d)
    assert margin > EPS_PROB
    assert influence_sign(table, i, j).verdict is exact
    return f"influence {i}->{j}: {exact.value}, margin {margin}"


def test_table1_exact_certificate():
    cells = (("0.2", "0.05", "0.075"), ("0.15", "0.15", "0.1"), ("0.075", "0.1", "0.1"))
    p = [[Fraction(c) for c in row] for row in cells]
    table = table1_fixture()
    assert sum(map(sum, p)) == 1
    assert (np.array(p, dtype=float) == table.probabilities).all()
    lines = [_certify_influence(table, p, "X", "Y"), _certify_influence(table, _transpose(p), "Y", "X")]
    holds, margin = _verdict(exact_mlrp(p))
    result = mlrp_check(table, "X", "Y")
    assert (holds, result.holds) == (False, False) and margin > EPS_PROB
    # the witness's likelihood ratios p(x|y) / p(x|y') at its levels, read
    # from the exact conditional; supports are 1..3
    w = result.witness
    cond = [[c / m for c, m in zip(row, map(sum, zip(*p)))] for row in p]
    yu, yl = int(w.y_upper) - 1, int(w.y_lower) - 1
    upper, lower = (cond[int(x) - 1][yu] / cond[int(x) - 1][yl] for x in (w.x_upper, w.x_lower))
    assert (upper, lower) == (Fraction(12, 11), Fraction(18, 11))
    assert (w.ratio_upper, w.ratio_lower) == pytest.approx((12 / 11, 18 / 11), rel=1e-12)
    lines.append(f"mlrp X|Y: fails, margin {margin}, witness ratios {upper} < {lower}")
    print("table1 exact certificate: PASS (" + "; ".join(lines) + ")")


def test_shuttle_exact_certificate():
    # the (HeOxTemp, HeOxTempProbe) marginal of shuttle_distribution's
    # construction: temperature uniform over ten levels, the probe a copy
    # of it except with the fault probability, when it reads uniformly
    # from {5..9}
    fault = Fraction(1, 20)
    p = [
        [Fraction(1, 10) * ((1 - fault) * (t == r) + (fault / 5 if r >= 5 else 0)) for r in range(10)]
        for t in range(10)
    ]
    table = shuttle_distribution(float(fault))
    pair = table.marginalize({TEMP, PROBE}).probabilities
    assert table.names[:2] == (TEMP, PROBE) and sum(map(sum, p)) == 1
    assert np.allclose(pair, np.array(p, dtype=float), rtol=0, atol=1e-15)
    lines = [_certify_influence(table, p, TEMP, PROBE), _certify_influence(table, _transpose(p), PROBE, TEMP)]
    print("shuttle exact certificate: PASS (" + "; ".join(lines) + ")")
