"""Pairwise positive-dependence checkers.

Four notions, strongest to weakest: monotone likelihood ratio (MLRP),
total positivity of order 2 (TP2), directed qualitative influence via
first-order stochastic dominance, and association.  Influence is the
only one of these that is *not* symmetric for non-binary variables,
which is exactly what the rest of the package exercises.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .dist import (
    DominanceOrder,
    EPS_PROB,
    JointTable,
    VariableSpec,
    fsd_bounds,
    product_below,
    stack_marginal,
    trial_blocks,
)
from .errors import (
    BadProbability,
    ContextOverlap,
    IsMlrp,
    MassNotOne,
    NegativeMass,
    NotMlrp,
    ShapeMismatch,
    SupportTooLarge,
    ZeroColumn,
)
from .signs import Sign


class Verdict(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class InfluenceWitness:
    """One cdf comparison backing a verdict.

    ``upper``/``lower`` are the two conditioning levels (upper > lower),
    ``context`` the fixed values of the remaining conditioning variables,
    ``relation`` the dominance result, and ``offending_level`` the first
    target-support point where the expected dominance fails (None for a
    witness of a strict dominance).
    """

    context: tuple[tuple[str, float], ...]
    upper: float
    lower: float
    relation: DominanceOrder
    offending_level: Optional[float] = None

    def to_jsonable(self) -> dict:
        return {
            "context": {k: v for k, v in self.context},
            "upper": self.upper,
            "lower": self.lower,
            "relation": self.relation.value,
            "offending_level": self.offending_level,
        }


@dataclass(frozen=True)
class InfluenceVerdict:
    verdict: Verdict
    witness: Optional[InfluenceWitness]
    skipped_contexts: tuple[tuple[tuple[str, float], ...], ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness": self.witness.to_jsonable() if self.witness else None,
            "skipped_contexts": [
                {k: v for k, v in ctx} for ctx in self.skipped_contexts
            ],
        }


def influence_sign(
    table: JointTable, i: str, j: str, context: Iterable[str] = ()
) -> InfluenceVerdict:
    """Directed qualitative influence of ``i`` on ``j`` given a context.

    Positive iff, in every context cell, conditioning on a larger level
    of ``i`` FSD-dominates conditioning on any smaller one, with at
    least one strict dominance overall.  Conditioning cells with
    probability <= EPS_PROB are skipped and reported.  Only an ambiguous
    verdict carries a witness.
    """
    context = tuple(context)
    if i == j:
        raise ContextOverlap("influence endpoints must differ")
    if i in context or j in context:
        raise ContextOverlap("context must be disjoint from the endpoints")
    if len(set(context)) != len(context):
        raise ContextOverlap(f"context variables repeat: {list(context)}")

    axes = [table.axis(v) for v in (i, j, *context)]
    i_spec, j_spec, *ctx_specs = (table.variables[k] for k in axes)
    comparisons = _comparisons(table.probabilities[None], *axes[:2], axes[2:])
    verdict = VERDICTS[_verdict_codes(*comparisons[3:])[0]]
    live, diff, below, strict, not_below, not_above = (a[0] for a in comparisons)

    def context_of(cell) -> tuple[tuple[str, float], ...]:
        idx = np.unravel_index(cell, [s.size for s in ctx_specs])
        return tuple((s.name, s.support[k]) for s, k in zip(ctx_specs, idx))

    skipped = tuple(
        context_of(cell) + ((i_spec.name, i_spec.support[xi]),)
        for cell, xi in zip(*np.nonzero(~live))
    )
    if verdict is not Verdict.AMBIGUOUS:
        return InfluenceVerdict(verdict, None, skipped)

    # prefer an incomparable pair as the witness, else the first comparison
    # conflicting with the first strict one
    incomparable = not_below & not_above
    if incomparable.any():
        mask, relation = incomparable, DominanceOrder.INCOMPARABLE
    elif below.flat[np.argmax(strict)]:
        mask, relation = not_below, DominanceOrder.DOMINATED_BY
    else:
        mask, relation = not_above, DominanceOrder.DOMINATES
    cell, hi, lo = np.unravel_index(int(np.argmax(mask)), mask.shape)
    offending = None
    if relation is DominanceOrder.INCOMPARABLE:
        offending = j_spec.support[int(np.argmax(diff[cell, hi, lo] > EPS_PROB))]
    witness = InfluenceWitness(
        context_of(cell), i_spec.support[hi], i_spec.support[::-1][lo], relation, offending
    )
    return InfluenceVerdict(verdict, witness, skipped)


def stack_verdict_codes(
    stack: np.ndarray, i_axis: int, j_axis: int, context_axes: Sequence[int] = ()
) -> np.ndarray:
    """The verdict ``influence_sign`` gives each table of a (batch, *shape)
    stack, as integer codes that index ``VERDICTS``; variables are given
    by table axis."""
    return _verdict_codes(*_comparisons(stack, i_axis, j_axis, context_axes)[3:])


def _comparisons(
    stack: np.ndarray, i_axis: int, j_axis: int, context_axes: Sequence[int]
) -> tuple[np.ndarray, ...]:
    """Every FSD comparison between levels of i, for each table of a
    (batch, *shape) stack, variables given by table axis.

    Context cells are row-major.  Returns the live (batch, cell, i level)
    conditioning cells (mass > EPS_PROB), then, on axes (batch, cell,
    upper, lower, j) or the first four of them, with lower levels
    descending so that row-major order is the report order: the cdf
    differences, whether each comparison is all <= 0 within EPS_PROB, and
    which comparisons between live cells are strict, fail <= and fail >=.
    """
    n, m = stack.shape[1 + i_axis], stack.shape[1 + j_axis]
    cells = math.prod(stack.shape[1 + k] for k in context_axes)
    probs = stack_marginal(stack, (*context_axes, i_axis, j_axis)).reshape(len(stack), cells, n, m)
    masses = probs.sum(axis=3)
    live = masses > EPS_PROB
    cdf = np.cumsum(probs / np.where(live, masses, 1.0)[..., None], axis=3)
    diff = cdf[:, :, :, None] - cdf[:, :, None, ::-1]
    below, above = fsd_bounds(diff)
    upper_gt_lower = np.arange(n)[:, None] > np.arange(n)[::-1]
    valid = live[..., :, None] & live[..., None, ::-1] & upper_gt_lower
    return live, diff, below, valid & ~(below & above), valid & ~below, valid & ~above


# influence verdicts by code, as ``_verdict_codes`` numbers them
VERDICTS = (Verdict.ZERO, Verdict.POSITIVE, Verdict.NEGATIVE, Verdict.AMBIGUOUS)

# MEETS[sign][code]: whether the verdict of that code meets a signed edge or
# claim; the dominance is non-strict, so a zero verdict meets every sign
MEETS = {
    Sign.PLUS: np.array([True, True, False, False]),
    Sign.MINUS: np.array([True, False, True, False]),
    Sign.ZERO: np.array([True, False, False, False]),
}


def _verdict_codes(strict: np.ndarray, not_below: np.ndarray, not_above: np.ndarray) -> np.ndarray:
    """Verdict code per batch row: zero without a strict comparison, else
    positive when every comparison is <=, negative when every one is >=,
    else ambiguous."""
    def some(mask):
        return mask.any(axis=(1, 2, 3))

    return some(strict) * (1 + some(not_below) * (1 + some(not_above)))


# ---- MLRP / TP2 ---------------------------------------------------------


def _pair(table: JointTable, x: str, y: str) -> tuple[np.ndarray, VariableSpec, VariableSpec]:
    """The (x, y) marginal of a table, axes in that order, and both variables."""
    if x == y:
        raise ContextOverlap("pair variables must differ")
    probs = stack_marginal(table.probabilities[None], (table.axis(x), table.axis(y)))[0]
    return probs, table.variable(x), table.variable(y)


@dataclass(frozen=True)
class MlrpViolation:
    """A failed likelihood-ratio comparison: ratio_upper < ratio_lower."""

    x_upper: float
    x_lower: float
    y_upper: float
    y_lower: float
    ratio_upper: float
    ratio_lower: float

    def to_jsonable(self) -> dict:
        return {
            "x": self.x_upper,
            "x_prime": self.x_lower,
            "y": self.y_upper,
            "y_prime": self.y_lower,
            "ratio_at_x": self.ratio_upper,
            "ratio_at_x_prime": self.ratio_lower,
        }


@dataclass(frozen=True)
class PairResult:
    """Whether a pairwise property holds, with a violation when it does not."""

    holds: bool
    witness: Optional[MlrpViolation | Tp2Violation | AssociationViolation]

    def to_jsonable(self) -> dict:
        return {
            "holds": self.holds,
            "witness": self.witness.to_jsonable() if self.witness else None,
        }


@dataclass(frozen=True)
class MlrpResult(PairResult):
    """An MLRP result with the number of failed likelihood-ratio comparisons."""

    violation_count: int

    def to_jsonable(self) -> dict:
        return {**super().to_jsonable(), "violation_count": self.violation_count}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else math.inf


def mlrp_check(table: JointTable, x: str, y: str) -> MlrpResult:
    """Monotone likelihood ratio property of p(x|y) on the (x, y) marginal.

    Violations are the 2x2 minors of the p(x|y) columns that TP2 rejects,
    upper x first so that the most extreme pair is the witness; only the
    witness and the count are built.  Dividing a minor's columns by their
    masses scales both of its products alike, and the comparison is
    relative, so the minors are decided on the joint: only the witness's
    two ratios divide by column mass.  The cross-products are equivalent to
    the ratio inequality and safe when individual densities are zero.
    """
    probs, x_spec, y_spec = _pair(table, x, y)
    col_mass = probs.sum(axis=0)
    if (col_mass <= 0.0).any():
        bad = y_spec.support[int(np.argmax(col_mass <= 0.0))]
        raise ZeroColumn(f"conditioning level {y}={bad} has no mass")
    # upper levels descending, lower ascending
    bad = _tp2_violations(probs)[0].transpose(1, 0, 3, 2)[::-1, :, ::-1, :]
    count = int(np.count_nonzero(bad))
    if not count:
        return MlrpResult(True, None, 0)
    xh, xl, yh, yl = np.unravel_index(int(np.argmax(bad)), bad.shape)
    xh, yh = probs.shape[0] - 1 - xh, probs.shape[1] - 1 - yh
    xs, ys = x_spec.support, y_spec.support
    cond = probs[:, [yh, yl]] / col_mass[[yh, yl]]
    ratios = (_ratio(*cond[row].tolist()) for row in (xh, xl))
    return MlrpResult(False, MlrpViolation(xs[xh], xs[xl], ys[yh], ys[yl], *ratios), count)


@dataclass(frozen=True)
class Tp2Violation:
    x_lower: float
    x_upper: float
    y_lower: float
    y_upper: float
    cross_product: float
    diagonal_product: float

    def to_jsonable(self) -> dict:
        return {
            "x": self.x_lower,
            "x_prime": self.x_upper,
            "y": self.y_lower,
            "y_prime": self.y_upper,
            "cross_product": self.cross_product,
            "diagonal_product": self.diagonal_product,
        }


def tp2_check(table: JointTable, x: str, y: str) -> PairResult:
    """Total positivity of order 2 on the (x, y) marginal."""
    probs, x_spec, y_spec = _pair(table, x, y)
    bad, cross, diag = _tp2_violations(probs)
    if not bad.any():
        return PairResult(True, None)
    xl, xh, yl, yh = at = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return PairResult(
        False,
        Tp2Violation(
            x_spec.support[xl],
            x_spec.support[xh],
            y_spec.support[yl],
            y_spec.support[yh],
            cross[at],
            diag[at],
        ),
    )


def _tp2_violations(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every 2x2 minor of ``p`` on axes (x lower, x upper, y lower, y upper):
    where p(x, y) p(x', y') falls below p(x, y') p(x', y), and both products."""
    # 41 bytes per minor: both products (8 each), the pair mask (1) and
    # product_below's absolute values and their maximum (24): 71x71 takes 0.97 GiB
    size = 41 * p.size**2
    if size > 2**30:
        raise SupportTooLarge(f"the 2x2 minors of a {p.shape[0]}x{p.shape[1]} grid need "
                              f"{size / 2**30:.2f} GiB, over the MLRP/TP2 check's 1 GiB budget")
    cross = p[:, None, None, :] * p[None, :, :, None]
    diag = p[:, None, :, None] * p[None, :, None, :]
    x_pairs, y_pairs = (np.arange(n)[:, None] < np.arange(n) for n in p.shape)
    return x_pairs[:, :, None, None] & y_pairs & product_below(diag, cross), cross, diag


# ---- association --------------------------------------------------------


@dataclass(frozen=True)
class AssociationViolation:
    """A pair of upper sets with P(U and V) P(neither) < P(U only) P(V only)."""

    upper_set_u: tuple[tuple[float, float], ...]
    upper_set_v: tuple[tuple[float, float], ...]
    p_concordant: float
    p_discordant: float

    def to_jsonable(self) -> dict:
        return {
            "U": [list(c) for c in self.upper_set_u],
            "V": [list(c) for c in self.upper_set_v],
            "p_concordant": self.p_concordant,
            "p_discordant": self.p_discordant,
        }


# rows U per block of association_check's screen
_BLOCK_ROWS = 16
# The association guard counts 65 bytes per upper set and cell.  The
# check holds each set's mask (1 byte per cell); the staircase screen
# adds a few arrays of one float per set and column, freed before any
# pair is compared.  If rows are left, the scan holds the set and its
# complement as floats (16), and a block of 16 rows adds 400 bytes per
# set, whatever the cells (per row, two compared products, the product
# that fills one of them, and their comparison).  Traced with tracemalloc,
# holding tables that the stochastic-increase certificate does not decide
# and the staircase screen clears (exp(3 u v) with two corners raised)
# peak at 27.0 bytes per set and cell on 4x4, 13.5 on 6x6, 8.8 on 7x7 and
# 5.8 on 9x9; independent tables, which leave it the sets {X >= x} and
# {Y >= y}, at 38.6 on 4x4, 23.9 on 6x6 and 23.8 on 7x7; log-linear
# tables, which the certificate holds, at 4.3 on 4x4 and 0.16 on 6x6.  So
# 65 bounds every grid of 16 cells or more and admits the same grids as
# before: 9x9 (0.24 GiB) passes, 10x10 (1.1 GiB) is refused before
# anything is allocated.  A 10x10 table that leaves the staircase screen
# most of its rows, as a cell below its margin can, would take about 20
# minutes.
_ASSOCIATION_BYTES = 65


def _upper_set_masks(nx: int, ny: int) -> np.ndarray:
    """Boolean masks of all upper sets of the nx-by-ny grid.

    An upper set is closed under coordinatewise increase, so it is a
    staircase: row i contains columns >= t[i] with t non-increasing.
    """
    thresholds = np.array(
        list(itertools.combinations_with_replacement(range(ny, -1, -1), nx))
    )
    return np.arange(ny) >= thresholds[:, :, None]


def _least_excess(probs: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per upper set U, the least T P(U and V) - P(U) P(V) over the upper
    sets V other than the empty set and the whole grid, T the total mass.

    The excess is the sum over V's cells of w = T p 1_U - P(U) p, and V is
    a staircase: row i holds the columns t_i and up, t non-increasing.  So
    with S_i(t) the sum of w's row i from column t, f_0(t) = S_0(t) and
    f_i(t) = S_i(t) + min_{t' >= t} f_(i-1)(t'), for all U at once.  t_0 >= 1
    leaves out the whole grid, and reading the minimum over
    t_(nx-1) <= ny - 1 leaves out the empty set.
    """
    n, nx, ny = masks.shape
    total = probs.sum()
    mass = sum(masks[:, i] @ probs[i] for i in range(nx))
    least = np.zeros((n, ny + 1))  # min over t' >= t of f on the row before
    for i in range(nx):
        w = (total * masks[:, i] - mass[:, None]) * probs[i]
        f = least.copy()
        f[:, :ny] += np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
        if i == 0:
            f[:, 0] = np.inf
        least = np.minimum.accumulate(f[:, ::-1], axis=1)[:, ::-1]
    return f[:, :ny].min(axis=1)


def _stochastically_increasing(p: np.ndarray) -> bool:
    """Whether P(Y >= y | X = x), Y along ``p``'s columns, does not fall as
    x rises, strictly beyond rounding, on a table of non-negative cells
    none of them nonzero below sqrt(tiny).

    Each row of positive mass m is compared with the next such row; a row
    of no mass has no conditional law, and comparing across it would not
    chain.  Rows lo < up must have tail_lo(y) m_up <= tail_up(y) m_lo for
    every y >= 1 (at y = 0 both sides are m_lo m_up).  The tails are sums of
    non-negative cells, within gamma_ny of exact, and zero only when exact;
    a product of two nonzero ones stays normal and adds one rounding.  So
    each side, the margin's product included, is within gamma_(2 ny) of
    exact, about ny eps, and with two rows to compare cells >= 2 ny: a
    margin of 4 cells eps forces the exact inequality, and a tie above 0
    is never certified.
    """
    tail = np.cumsum(p[:, ::-1], axis=1)[:, ::-1]
    tail = tail[tail[:, 0] > 0]
    lo, up = tail[:-1], tail[1:]
    factor = 1 + 4 * p.size * np.finfo(float).eps
    return bool((lo[:, 1:] * up[:, :1] * factor <= up[:, 1:] * lo[:, :1]).all())


def _block_cleared(sides: np.ndarray, flat: np.ndarray, rows: np.ndarray,
                   factor: float) -> np.ndarray:
    """Which of the rows U clear the margin against every V from rows[0] on:
    four products, one per mass, give the masses of all their pairs."""
    in_v, out_v = sides[2 * rows[0]::2], sides[2 * rows[0] + 1::2]
    in_u, out_u = ((sides[2 * rows + k] * flat).T for k in (0, 1))
    concordant = in_v @ in_u  # P(U and V) P(neither)
    concordant *= out_v @ out_u
    discordant = out_v @ in_u  # P(U only) P(V only)
    discordant *= in_v @ out_u
    discordant *= factor
    return (concordant >= discordant).all(axis=0)


def association_check(table: JointTable, x: str, y: str) -> PairResult:
    """Association of the (x, y) marginal via upper-set indicators.

    Checks P(U and V) >= P(U) P(V) over every pair of upper sets of the
    support grid; indicator functions of upper sets are the extreme
    points of the bounded non-decreasing functions, so this suffices.
    Each pair is compared as P(U and V) P(neither) >= P(U only) P(V only)
    under ``product_below``. The sides differ by P(U and V) T - P(U) P(V),
    T the total mass, but each is a product of sums over disjoint cells,
    so the comparison does not cancel when both probabilities are near one.
    On a table of non-negative cells, stochastic increase of Y in X or of
    X in Y, certified beyond rounding, holds before any upper set is
    built.  Otherwise a row U whose least difference over every V
    (``_least_excess``) clears a rounding margin holds without a
    comparison; the rows left are screened in blocks and decided by their
    own products.
    """
    probs, x_spec, y_spec = _pair(table, x, y)
    nx, ny = x_spec.size, y_spec.size
    cells = nx * ny
    count = math.comb(nx + ny, nx)
    size = _ASSOCIATION_BYTES * count * cells
    if size > 2**30:
        raise SupportTooLarge(
            f"{count} upper sets on a {nx}x{ny} grid need {size / 2**30:.1f} GiB, "
            f"over the association check's 1 GiB budget"
        )
    flat = probs.reshape(-1)
    # The certificate and both screens bound the rounding of a row's own
    # products relatively: a table with a negative cell, or a nonzero one
    # below sqrt(tiny) where a product can underflow, decides every row by
    # its own product.
    positive = flat[flat > 0]
    screened = flat.min() >= 0 and positive.min() >= np.sqrt(np.finfo(float).tiny)
    # A table on which Y is stochastically increasing in X, or X in Y, is
    # associated (Esary & Proschan 1972): for increasing f and g,
    # Cov(f, g) = E[Cov(f, g | X)] + Cov(E[f | X], E[g | X]), where each
    # conditional covariance is of two increasing functions of Y, and
    # E[f | X = x] increases in x since f does and Y's conditional law
    # rises with x.  So every pair has P(U and V) P(neither) >= P(U only)
    # P(V only) exactly; over non-negative cells each of a row's own
    # products is within gamma_(2 cells + 1) of exact, far below EPS_PROB,
    # so no row can fail and the scan would hold.
    if screened and (_stochastically_increasing(probs) or _stochastically_increasing(probs.T)):
        return PairResult(True, None)
    masks = _upper_set_masks(nx, ny)
    n = len(masks)
    if screened:
        # Over non-negative cells, the total and P(U) are within gamma_cells
        # of exact, so each w is within (cells + 1) eps T p; each least
        # excess is a sum of at most cells w's with |w| <= T p, which adds
        # gamma_cells T^2: in all, within 2.5 cells eps T^2 of exact.  A
        # pair fails a row's own product only if its exact excess is below
        # gamma_(2 cells + 1) times the sum of its two products, each at
        # most T^2 / 4: below cells eps T^2.  So a row whose least excess
        # reads 16 cells eps T^2 or more cannot fail.  The empty set and the
        # whole grid, first and last in _upper_set_masks order, never fail:
        # both products are exactly 0.
        margin = 16 * cells * np.finfo(float).eps * flat.sum() ** 2
        left = 1 + np.flatnonzero(_least_excess(probs, masks)[1:-1] < margin)
    else:
        left = np.arange(n)
    if not len(left):
        return PairResult(True, None)
    # each set above its complement, against the cell masses inside and
    # outside U: one product gives the four masses of U with each V
    sides = np.empty((n, 2, cells))
    sides[:, 0] = masks.reshape(n, cells)
    np.subtract(1.0, sides[:, 0], out=sides[:, 1])
    sides = sides.reshape(2 * n, cells)

    def compared(a):
        weights = np.stack([sides[2 * a] * flat, sides[2 * a + 1] * flat], axis=1)
        m = (sides @ weights).reshape(-1, 2, 2)
        concordant, discordant = m[:, 0, 0] * m[:, 1, 1], m[:, 1, 0] * m[:, 0, 1]
        return product_below(concordant, discordant), concordant, discordant

    # The rows left are taken in blocks, each against every V from its
    # first row on.  BLAS sums a block's products in another order than a
    # row's own product, so the block only screens: a row is decided by
    # its own product, which also gives the witness, unless every pair in
    # it clears product_below's threshold by a margin.  Over non-negative
    # cells, a mass summed in any order is within gamma_cells of the exact
    # sum, and a product of two within gamma_(2 cells + 1), in either scan;
    # so a pair that fails in the row's own product reads below
    # (1 - EPS_PROB)(1 + 4 (cells + 1) eps) times its discordant mass in
    # the block's, and 16 cells eps covers that.
    factor = 1.0 - EPS_PROB + 16 * cells * np.finfo(float).eps

    # both products are symmetric in U and V, so a failing V before U
    # would have failed in V's own row first: the first row whose own
    # product fails, in _upper_set_masks order, gives the witness, and
    # its first failing V is the one a scan of every ordered pair finds
    for k in range(0, len(left), _BLOCK_ROWS):
        rows = left[k:k + _BLOCK_ROWS]
        if screened:
            rows = rows[~_block_cleared(sides, flat, rows, factor)]
        for a in rows:
            bad, concordant, discordant = compared(a)
            if bad.any():
                b = int(np.argmax(bad))
                return PairResult(
                    False,
                    AssociationViolation(
                        _cells(masks[a], x_spec, y_spec),
                        _cells(masks[b], x_spec, y_spec),
                        float(concordant[b]),
                        float(discordant[b]),
                    ),
                )
    return PairResult(True, None)


def _cells(mask: np.ndarray, x_spec: VariableSpec, y_spec: VariableSpec):
    return tuple(
        (x_spec.support[i], y_spec.support[j])
        for i, j in zip(*np.nonzero(mask))
    )


# ---- Proposition-style prior/likelihood harness -------------------------


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Columns of conditional pmfs: probabilities[:, k] = p(of | given=k)."""

    of: VariableSpec
    given: VariableSpec
    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writeable
        arr = np.array(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", arr)
        if arr.shape != (self.of.size, self.given.size):
            raise ShapeMismatch(
                f"conditional table shape {arr.shape} != "
                f"({self.of.size}, {self.given.size})"
            )
        if not np.isfinite(arr).all():
            raise BadProbability("conditional probabilities must be finite numbers")
        if arr.min() < -EPS_PROB:
            raise NegativeMass("conditional probabilities must be non-negative")
        sums = arr.sum(axis=0)
        worst = sums[np.abs(sums - 1.0).argmax()]
        if abs(worst - 1.0) > 1e-8:
            raise MassNotOne(float(worst))
        arr.flags.writeable = False

    def mlrp_violations(self) -> int:
        """How many likelihood-ratio comparisons of p(of | given) fail: the
        2x2 minors of the columns that ``mlrp_check`` reports."""
        return int(np.count_nonzero(_tp2_violations(self.probabilities)[0]))

    def joint_with_prior(self, prior: np.ndarray) -> JointTable:
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (self.given.size,):
            raise ShapeMismatch(
                f"prior length {prior.shape} != support size {self.given.size}"
            )
        if abs(float(prior.sum()) - 1.0) > 1e-8:
            raise MassNotOne(float(prior.sum()))
        joint = self.probabilities * prior
        return JointTable((self.of, self.given), joint / joint.sum())


def prop1_forward(
    likelihood: ConditionalTable, priors: Sequence[np.ndarray]
) -> bool:
    """Check that an MLRP likelihood yields (weak) positive influence both
    ways under every supplied prior on the conditioning variable."""
    if likelihood.mlrp_violations():
        raise NotMlrp("likelihood does not satisfy the monotone likelihood ratio")
    plus = MEETS[Sign.PLUS]
    for prior in priors:
        joint = likelihood.joint_with_prior(prior).probabilities[None]
        if not (plus[stack_verdict_codes(joint, 0, 1)] & plus[stack_verdict_codes(joint, 1, 0)])[0]:
            return False
    return True


def prop1_witness_search(
    likelihood: ConditionalTable, seed: int, trials: int
) -> Optional[np.ndarray]:
    """Search random priors for one under which the induced influence of
    the observed variable on the conditioned one is not positive.

    Such a prior must exist when the likelihood fails the MLRP.  Trial t
    normalizes its row of ``dist.trial_blocks``, as the counterexample
    search does, so results are reproducible and order-independent.  A block
    is decided by the verdict codes of its normalized joints.
    """
    if not likelihood.mlrp_violations():
        raise IsMlrp("an MLRP likelihood admits no such prior")
    k = likelihood.given.size
    refutes = ~MEETS[Sign.PLUS]
    for _, draws in trial_blocks(seed, likelihood.of.size * k, k, trials):
        priors = draws / draws.sum(axis=1, keepdims=True)
        joints = likelihood.probabilities * priors[:, None, :]
        joints /= joints.sum(axis=(1, 2), keepdims=True)
        hit = refutes[stack_verdict_codes(joints, 0, 1)]
        if hit.any():
            return priors[int(np.argmax(hit))]
    return None
