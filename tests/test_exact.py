"""Exact-arithmetic oracles for the tolerance-sensitive pairwise checkers.

MLRP, TP2, FSD influence and association are written here from their
definitions over ``fractions.Fraction`` cells, so no tolerance enters
them.  The float checkers decide with the tolerance EPS_PROB.  On seeded
tables of small-denominator rational cells they must give the exact
verdict wherever its margin exceeds that tolerance.  An exact tie (two
equal products, or two equal cdf values) has margin zero, a near tie a
margin within the tolerance; the tests record which way the tolerance
resolved each.  The association check's stochastic-increase certificate
must hold only tables that are stochastically increasing and associated
exactly.  Last, the sampler's construction is replayed in Fractions
on the headline test's draws, so that its refutations are proofs.
"""

import collections
import copy
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qpnet.dependence import (
    ConditionalTable,
    Verdict,
    _stochastically_increasing,
    association_check,
    influence_sign,
    mlrp_check,
    tp2_check,
)
from qpnet.dist import EPS_PROB, JointTable, VariableSpec
from qpnet.errors import ZeroColumn
from qpnet.inference import Mode, propagate
from qpnet.scenarios import PROBE, TEMP, sample_factorized, shuttle_distribution, table1_fixture
from qpnet.signs import Sign
from test_inference import _UPHOLDS, signed_qpn


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


def exact_stochastically_increasing(p):
    """Whether P(Y >= y | X = x) does not fall as x rises, over the rows of
    positive mass."""
    tails = [[sum(row[y:]) / sum(row) for y in range(len(row))] for row in p if sum(row)]
    return all(a <= b for lo, up in zip(tails, tails[1:]) for a, b in zip(lo, up))


def test_si_certificate_holds_exactly():
    # association_check holds a table, without the scan, when its float
    # cells are stochastically increasing beyond rounding in either
    # direction; the margin also covers rounding the Fraction cells to
    # floats, so each certified table is SI and associated exactly
    rng = np.random.default_rng(74)
    seen = collections.Counter()
    for _ in range(400):
        p = _rational_table(rng, 3)
        probs = np.array(p, dtype=float)
        for name, cells, q in (("Y in X", p, probs), ("X in Y", _transpose(p), probs.T)):
            certified = _stochastically_increasing(q)
            exact = exact_stochastically_increasing(cells)
            if certified:
                assert exact and exact_association(p)[0], (name, p)
            seen[f"{name}: certified={certified}, exact={exact}"] += 1
    for name in ("Y in X", "X in Y"):
        for key in ("certified=True, exact=True", "certified=False, exact=True",
                    "certified=False, exact=False"):
            assert seen[f"{name}: {key}"] > 0, (name, key, seen)
    print("3x3 SI certificate: " + ", ".join(f"{k}: {v}" for k, v in sorted(seen.items())))


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


# ---- the headline in exact arithmetic ----------------------------------------

def _exact_cpts(qpn, draws):
    """``sample_factorized``'s CPTs replayed in Fractions from its
    exponential draws, as ``scenarios._cpts``' docstring gives the
    construction: each variable's draws, in variable order and laid out
    row-major on its family axes (parents ascending by table axis, then the
    variable), normalized over the variable's levels; each conditional cdf
    then the running minimum along every signed parent, over the parent
    levels at or below its own ('+') or at or above it ('-'); then back to
    pmfs.  Floats are binary fractions, so the replay is exact.  Returns,
    per variable, its parents' axes and a dict from their levels to the
    conditional pmf."""
    names, sizes = qpn.names, [v.size for v in qpn.variables]
    values = iter(map(Fraction, draws.tolist()))
    cpts = []
    for k, v in enumerate(names):
        parents = sorted(names.index(p) for p in qpn.parents(v))
        contexts = list(itertools.product(*(range(sizes[p]) for p in parents)))
        cdf = {}
        for ctx in contexts:
            draw = [next(values) for _ in range(sizes[k])]
            total = sum(draw)
            cdf[ctx] = list(itertools.accumulate(x / total for x in draw))
        for pos, p in enumerate(parents):
            sign = qpn.edge_between(names[p], v).sign
            if sign is Sign.QUESTION:
                continue
            # '+' runs up the parent's levels, '-' down them
            step = 1 if sign is Sign.PLUS else -1
            for ctx in sorted(contexts, key=lambda c: step * c[pos]):
                prev = ctx[:pos] + (ctx[pos] - step,) + ctx[pos + 1:]
                if prev in cdf:
                    cdf[ctx] = [min(a, b) for a, b in zip(cdf[ctx], cdf[prev])]
        cpts.append((parents, {ctx: [b - a for a, b in zip([0] + f, f)] for ctx, f in cdf.items()}))
    return cpts


def _exact_joint(qpn, cpts):
    """The product of the CPTs, each scaled to integers by the lcm of its
    denominators, as an array of Python integers on the table's axes, and
    the integer that scales the joint: their total when the CPTs are exact.
    Conditional cdfs do not see the scale, and integers multiply and add
    far faster than Fractions."""
    shape = [v.size for v in qpn.variables]
    joint, scale = np.ones(shape, dtype=object), 1
    for k, (parents, cpt) in enumerate(cpts):
        lcm = math.lcm(*(q.denominator for pmf in cpt.values() for q in pmf))
        family = np.empty([shape[p] for p in parents] + [shape[k]], dtype=object)
        for ctx, pmf in cpt.items():
            family[ctx] = [int(q * lcm) for q in pmf]
        # parents then the variable, to the table's axes
        axes = np.argsort(parents + [k])
        joint = joint * family.transpose(axes).reshape(
            [shape[a] if a in parents or a == k else 1 for a in range(len(shape))])
        scale *= lcm
    return joint, scale


def _pair(joint, i, j):
    """The (i, j) marginal of a joint array, as a list of rows; ``i`` and
    ``j`` are table axes."""
    pair = joint.sum(axis=tuple(k for k in range(joint.ndim) if k not in (i, j)))
    return (pair if i < j else pair.T).tolist()


def _excess(diffs, sign):
    """How far the cdf differences go against a propagated sign: the
    largest difference for '+', the largest negated one for '-', the
    largest absolute one for '0'.  The answer stands exactly when this is
    at most 0, and in float when it is at most EPS_PROB."""
    against = {Sign.PLUS: lambda d: d, Sign.MINUS: lambda d: -d, Sign.ZERO: abs}[sign]
    return max(map(against, diffs), default=0)


def test_headline_refutations_hold_exactly():
    # test_inference's headline test, replayed: the same generator, QPNs,
    # evidence and draws.  Every classical refutation is certified exactly,
    # and every sound answer is re-decided exactly, those within 1e-6 of
    # flipping in float among them; the float and exact answers must agree
    rng = np.random.default_rng(2022)
    seen = collections.Counter()
    margins = []
    for _ in range(300):
        qpn = signed_qpn(lambda lo, hi: int(rng.integers(lo, hi + 1)))
        evidence = qpn.names[int(rng.integers(len(qpn.names)))]
        e = qpn.names.index(evidence)
        shape = [v.size for v in qpn.variables]
        n_draws = sum(math.prod(shape[qpn.names.index(p)] for p in qpn.parents(v)) * shape[k]
                      for k, v in enumerate(qpn.names))
        answers = {mode: propagate(qpn, evidence, Sign.PLUS, mode).node_signs for mode in Mode}
        for _ in range(4):
            draws = copy.deepcopy(rng).standard_exponential(n_draws)
            table = sample_factorized(qpn, rng)
            joint = None
            for mode in Mode:
                for node, sign in answers[mode].items():
                    if node == evidence or sign is Sign.QUESTION:
                        continue
                    n = qpn.names.index(node)
                    float_holds = influence_sign(table, evidence, node).verdict in _UPHOLDS[sign]
                    float_excess = _excess(exact_influence(_pair(table.probabilities, e, n))[1], sign)
                    assert float_holds == (float_excess <= EPS_PROB)
                    if float_holds and mode is Mode.CLASSICAL:
                        seen[f"{mode.value}: held, not re-decided"] += 1
                        continue
                    if float_holds and EPS_PROB - float_excess < 1e-6:
                        seen[f"{mode.value}: held within 1e-6 of flipping"] += 1
                    if joint is None:
                        joint, scale = _exact_joint(qpn, _exact_cpts(qpn, draws))
                        assert joint.sum() == scale
                        assert np.allclose((joint / scale).astype(float), table.probabilities,
                                           rtol=0, atol=1e-12)
                    pair = [[Fraction(c) for c in row] for row in _pair(joint, e, n)]
                    verdict, diffs = exact_influence(pair)
                    assert (verdict in _UPHOLDS[sign]) == float_holds, (
                        qpn.edges, evidence, node, mode, table.probabilities.tolist())
                    if not float_holds:
                        margins.append(_excess(diffs, sign))
                    seen[f"{mode.value}: {'held' if float_holds else 'refuted'}, decided exactly"] += 1
    refuted = seen[f"{Mode.CLASSICAL.value}: refuted, decided exactly"]
    # the headline test's count of classical refutations, none of them sound
    assert refuted == 188 and not seen[f"{Mode.SOUND.value}: refuted, decided exactly"]
    print(f"headline exact certificate: PASS ({refuted} classical refutations certified exactly, "
          f"smallest exact margin {float(min(margins)):.2g}; "
          + ", ".join(f"{k}: {v}" for k, v in sorted(seen.items())) + ")")
