"""Exact-arithmetic oracles for the tolerance-sensitive pairwise checkers.

MLRP and TP2 are written here from their definitions over
``fractions.Fraction`` cells, so no tolerance enters them.  The float
checkers decide with the relative tolerance EPS_PROB.  On seeded tables
of small-denominator rational cells they must give the exact verdict
wherever its margin exceeds that tolerance.  An exact tie (two equal
products) has margin zero, a near tie a margin within the tolerance; the
tests record which way the tolerance resolved each.
"""

import collections
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qpnet.dependence import ConditionalTable, mlrp_check, tp2_check
from qpnet.dist import EPS_PROB, JointTable, VariableSpec
from qpnet.errors import ZeroColumn


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
