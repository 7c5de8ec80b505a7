"""Reference checkers for the benchmark's output checks.

Written from the definitions, apart from qpnet: they import only numpy
and see tables as plain arrays whose axes are named by a tuple of
strings, and networks as a list of ``(source, target, sign)`` edges.
The benchmark compares the program's verdicts with these.

Tolerances.  Conditional cdfs are scale-free, so FSD uses an absolute
tolerance on their differences.  MLRP, TP2 and association compare
products of cells, so they use a tolerance relative to the larger
product: a violation between two products of tiny cells is still seen.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

EPS_CDF = 1e-9  # absolute, on differences of conditional cdfs
REL_PRODUCT = 1e-9  # relative, on comparisons of products of cells
EPS_FACTOR = 1e-9  # absolute, on joint minus product of its conditionals

POSITIVE, NEGATIVE, ZERO, AMBIGUOUS = "positive", "negative", "zero", "ambiguous"


# ---- tables ---------------------------------------------------------------


def marginal(probs: np.ndarray, names: Sequence[str], keep: Sequence[str]) -> np.ndarray:
    """The marginal over ``keep``, with its axes in the order of ``keep``."""
    axes = [names.index(k) for k in keep]
    drop = tuple(a for a in range(len(names)) if a not in axes)
    summed = probs.sum(axis=drop) if drop else probs
    remaining = [a for a in range(len(names)) if a in axes]
    return np.transpose(summed, [remaining.index(a) for a in axes])


def influence(
    probs: np.ndarray, names: Sequence[str], i: str, j: str, context: Sequence[str] = ()
) -> str:
    """Qualitative influence of ``i`` on ``j`` given ``context``, by FSD.

    In every context cell and for every pair of levels hi > lo of ``i``
    with positive mass, the cdf of ``j`` given hi must lie on or below
    the cdf given lo (positive), or on or above it (negative).  Zero when
    every pair is equal within tolerance; ambiguous when neither holds.
    """
    m = marginal(probs, names, [i, *context, j])
    mass = m.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        cdf = np.cumsum(m / mass, axis=-1)
    live = mass[..., 0] > 0.0
    below = above = True
    strict = False
    for lo, hi in itertools.combinations(range(m.shape[0]), 2):
        both = live[hi] & live[lo]
        if not np.any(both):
            continue
        diff = (cdf[hi] - cdf[lo])[both]
        below &= bool(np.all(diff <= EPS_CDF))
        above &= bool(np.all(diff >= -EPS_CDF))
        strict |= bool(np.any(np.abs(diff) > EPS_CDF))
    if not strict:
        return ZERO
    if below:
        return POSITIVE
    if above:
        return NEGATIVE
    return AMBIGUOUS


def _product_below(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs < rhs beyond a tolerance relative to the larger side."""
    return lhs < rhs - REL_PRODUCT * np.maximum(np.abs(lhs), np.abs(rhs))


def mlrp_violations(joint2: np.ndarray) -> list[tuple[int, int, int, int, float, float]]:
    """Violations of the monotone likelihood ratio of p(x | y).

    ``joint2[x, y]`` is the joint of the pair.  For x > x' and y > y' the
    ratio p(x|y)/p(x|y') must not fall below p(x'|y)/p(x'|y').  Each
    violation is ``(x, x', y, y', ratio_at_x, ratio_at_x')`` in level
    indices; the comparison is made on cross products.
    """
    cond = joint2 / joint2.sum(axis=0, keepdims=True)
    nx, ny = cond.shape
    out = []
    for xl, xh in itertools.combinations(range(nx), 2):
        for yl, yh in itertools.combinations(range(ny), 2):
            lhs = cond[xh, yh] * cond[xl, yl]
            rhs = cond[xh, yl] * cond[xl, yh]
            if _product_below(np.float64(lhs), np.float64(rhs)):
                with np.errstate(divide="ignore"):
                    out.append(
                        (
                            xh, xl, yh, yl,
                            float(np.float64(cond[xh, yh]) / cond[xh, yl]),
                            float(np.float64(cond[xl, yh]) / cond[xl, yl]),
                        )
                    )
    return out


def tp2(joint2: np.ndarray) -> bool:
    """p(x, y) p(x', y') >= p(x, y') p(x', y) for all x < x', y < y'."""
    nx, ny = joint2.shape
    for xl, xh in itertools.combinations(range(nx), 2):
        for yl, yh in itertools.combinations(range(ny), 2):
            diag = joint2[xl, yl] * joint2[xh, yh]
            cross = joint2[xl, yh] * joint2[xh, yl]
            if _product_below(np.float64(diag), np.float64(cross)):
                return False
    return True


def upper_sets(nx: int, ny: int) -> np.ndarray:
    """Every upper set of the nx-by-ny grid as a flat boolean mask.

    An upper set holds, in row x, the columns from a threshold t[x] on,
    with t non-increasing in x.
    """
    masks = []
    for thresholds in itertools.combinations_with_replacement(range(ny, -1, -1), nx):
        # combinations_with_replacement of a descending range is non-increasing
        m = np.zeros((nx, ny), dtype=bool)
        for x, t in enumerate(thresholds):
            m[x, t:] = True
        masks.append(m.reshape(-1))
    return np.array(masks)


def associated(joint2: np.ndarray) -> bool:
    """P(U and V) >= P(U) P(V) for every pair of upper sets U, V.

    Written as ad >= bc over the four cells of the pair's indicators
    (a = P(U V), b = P(U not-V), c = P(not-U V), d = P(not-U not-V)),
    which equals P(UV) - P(U)P(V) without cancelling near one.
    """
    inside = upper_sets(*joint2.shape).astype(float)
    outside = 1.0 - inside
    p = joint2.reshape(-1)
    a = (inside * p) @ inside.T
    b = (inside * p) @ outside.T
    c = (outside * p) @ inside.T
    d = (outside * p) @ outside.T
    return not np.any(_product_below(a * d, b * c))


# ---- networks over tables -------------------------------------------------


def parents_of(edges: Iterable[tuple[str, str, str]], node: str) -> list[str]:
    return sorted(s for s, t, _ in edges if t == node)


def factorizes(probs: np.ndarray, names: Sequence[str], edges) -> bool:
    """The joint equals the product of its own conditionals p(v | parents)."""
    product = np.ones_like(probs)
    for v in names:
        pa = parents_of(edges, v)
        fam = [*pa, v]
        joint_fam = marginal(probs, names, fam)
        pa_mass = joint_fam.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(pa_mass > 0, joint_fam / pa_mass, 0.0)
        order = sorted(range(len(fam)), key=lambda k: names.index(fam[k]))
        cond = np.transpose(cond, order)
        shape = [1] * len(names)
        for f in fam:
            shape[names.index(f)] = probs.shape[names.index(f)]
        product = product * cond.reshape(shape)
    return float(np.abs(probs - product).max()) <= EPS_FACTOR


ALLOWED = {"+": (POSITIVE, ZERO), "-": (NEGATIVE, ZERO)}


def violated_edges(probs: np.ndarray, names: Sequence[str], edges) -> dict:
    """Signed edges whose influence, given the target's other parents,
    breaks the sign; maps ``(source, target)`` to the verdict."""
    out = {}
    for s, t, sign in edges:
        if sign == "?":
            continue
        ctx = [p for p in parents_of(edges, t) if p != s]
        verdict = influence(probs, names, s, t, ctx)
        if verdict not in ALLOWED[sign]:
            out[(s, t)] = verdict
    return out


def contradicts(claimed: str, verdict: str) -> bool:
    if claimed == "+":
        return verdict in (NEGATIVE, AMBIGUOUS)
    if claimed == "-":
        return verdict in (POSITIVE, AMBIGUOUS)
    return verdict != ZERO


def monotone_cpt(rng: np.random.Generator, shape: Sequence[int], signs: Sequence[str]) -> np.ndarray:
    """A conditional pmf table, last axis the child, strictly FSD-monotone
    in each parent axis: increasing for '+', decreasing for '-'.

    Each row's cdf starts as sorted uniforms.  A running minimum along
    each parent axis (reversed for '-') orders the rows, which any
    monotone table allows; a factor of 0.9 per level step then makes
    every order strict.
    """
    *pshape, k = shape
    cdf = np.sort(rng.random((*pshape, k - 1)), axis=-1)
    for ax, (n, sign) in enumerate(zip(pshape, signs)):
        rank = np.arange(n) if sign == "+" else np.arange(n)[::-1]
        if sign == "-":
            cdf = np.flip(cdf, axis=ax)
        cdf = np.minimum.accumulate(cdf, axis=ax)
        if sign == "-":
            cdf = np.flip(cdf, axis=ax)
        cdf = cdf * (0.9 ** rank).reshape([n if a == ax else 1 for a in range(cdf.ndim)])
    zeros = np.zeros((*pshape, 1))
    return np.diff(np.concatenate([zeros, cdf, zeros + 1.0], axis=-1), axis=-1)


# ---- graphs ---------------------------------------------------------------


def d_separated(nodes, edges, a: str, b: str, given: Iterable[str] = ()) -> bool:
    """Reachability of ``b`` from ``a`` by active trails (Bayes ball).

    Walks (node, arrived-from-child?) states: a chain or fork passes
    through an unobserved node, a collider passes through a node that is
    observed or has an observed descendant.
    """
    given = set(given)
    children = {n: [] for n in nodes}
    parents = {n: [] for n in nodes}
    for s, t, _ in edges:
        children[s].append(t)
        parents[t].append(s)
    opened = set(given)  # observed nodes and their ancestors open colliders
    stack = list(given)
    while stack:
        for p in parents[stack.pop()]:
            if p not in opened:
                opened.add(p)
                stack.append(p)
    seen = set()
    stack = [(a, True)]  # at the start, treat a as reached from a child
    while stack:
        node, from_child = stack.pop()
        if (node, from_child) in seen:
            continue
        seen.add((node, from_child))
        if node == b:
            return False
        if node != a and node in given and from_child:
            continue
        if from_child:
            if node not in given:
                stack += [(p, True) for p in parents[node]]
                stack += [(c, False) for c in children[node]]
        else:
            if node not in given:
                stack += [(c, False) for c in children[node]]
            if node in opened:
                stack += [(p, True) for p in parents[node]]
    return True


PRODUCT = {
    ("+", "+"): "+", ("+", "-"): "-", ("-", "+"): "-", ("-", "-"): "+",
}


def sign_product(a: str, b: str) -> str:
    if "0" in (a, b):
        return "0"
    if "?" in (a, b):
        return "?"
    return PRODUCT[(a, b)]


def sign_sum(a: str, b: str) -> str:
    if a == "0":
        return b
    if b == "0" or a == b:
        return a
    return "?"


def propagate(nodes, edges, binary: set, observed: str, sign: str, mode: str) -> dict:
    """Evidence sign at every node: the sum over the trails from the
    evidence that hold no collider (the conditioning set is empty) of the
    product of the step signs.  A step against an edge keeps the edge's
    sign in classical mode, and in sound mode only when both ends are
    binary."""
    steps = {n: [] for n in nodes}  # (neighbour, edge sign, with edge?)
    for s, t, sg in edges:
        steps[s].append((t, sg, True))
        steps[t].append((s, sg, False))
    total = {n: "0" for n in nodes}
    total[observed] = sign

    def walk(node, acc, path, arrived_with_edge):
        for nb, sg, with_edge in steps[node]:
            if nb in path:
                continue
            if arrived_with_edge and not with_edge:
                continue  # both edges point into ``node``: a collider
            if with_edge or mode == "classical" or (node in binary and nb in binary):
                step = sg
            else:
                step = "?"
            s = sign_product(acc, step)
            total[nb] = sign_sum(total[nb], s)
            path.add(nb)
            walk(nb, s, path, with_edge)
            path.remove(nb)

    walk(observed, sign, {observed}, False)
    return total


def negate(sign: str) -> str:
    return {"+": "-", "-": "+"}.get(sign, sign)
