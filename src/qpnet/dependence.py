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
    witness and the count are built.  The cross-products are equivalent to
    the ratio inequality and safe when individual densities are zero.
    """
    probs, x_spec, y_spec = _pair(table, x, y)
    col_mass = probs.sum(axis=0)
    if (col_mass <= EPS_PROB).any():
        bad = y_spec.support[int(np.argmax(col_mass <= EPS_PROB))]
        raise ZeroColumn(f"conditioning level {y}={bad} has no mass")
    cond = probs / col_mass
    # upper levels descending, lower ascending
    bad = _tp2_violations(cond)[0].transpose(1, 0, 3, 2)[::-1, :, ::-1, :]
    count = int(np.count_nonzero(bad))
    if not count:
        return MlrpResult(True, None, 0)
    xh, xl, yh, yl = np.unravel_index(int(np.argmax(bad)), bad.shape)
    xh, yh = cond.shape[0] - 1 - xh, cond.shape[1] - 1 - yh
    xs, ys = x_spec.support, y_spec.support
    ratios = (_ratio(*cond[row, [yh, yl]].tolist()) for row in (xh, xl))
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


def _upper_set_masks(nx: int, ny: int) -> np.ndarray:
    """Boolean masks of all upper sets of the nx-by-ny grid.

    An upper set is closed under coordinatewise increase, so it is a
    staircase: row i contains columns >= t[i] with t non-increasing.
    """
    thresholds = np.array(
        list(itertools.combinations_with_replacement(range(ny, -1, -1), nx))
    )
    return np.arange(ny) >= thresholds[:, :, None]


def association_check(table: JointTable, x: str, y: str) -> PairResult:
    """Association of the (x, y) marginal via upper-set indicators.

    Checks P(U and V) >= P(U) P(V) over every pair of upper sets of the
    support grid; indicator functions of upper sets are the extreme
    points of the bounded non-decreasing functions, so this suffices.
    Each pair is compared as P(U and V) P(neither) >= P(U only) P(V only)
    under ``product_below``. The sides differ by P(U and V) T - P(U) P(V),
    T the total mass, but each is a product of sums over disjoint cells,
    so the comparison does not cancel when both probabilities are near one.
    """
    probs, x_spec, y_spec = _pair(table, x, y)
    nx, ny = x_spec.size, y_spec.size
    # per upper set and cell, the arrays below hold 65 bytes: its mask (1),
    # inside and outside (8 each), sides and weights (16 each) and the two
    # products that fill weights (16).  A 9x9 grid needs 0.26 GB and 10x10
    # 1.2 GB; the 1 GiB budget refuses a grid before numpy runs out of memory
    # part-way through building them.
    count = math.comb(nx + ny, nx)
    size = 65 * count * nx * ny
    if size > 2**30:
        raise SupportTooLarge(
            f"{count} upper sets on a {nx}x{ny} grid need {size / 2**30:.1f} GiB, "
            f"over the association check's 1 GiB budget"
        )
    masks = _upper_set_masks(nx, ny)
    n = len(masks)
    flat = probs.reshape(-1)
    inside = masks.reshape(n, -1).astype(float)
    outside = 1.0 - inside
    # every set, then every complement, against the cell masses inside and
    # outside U: one product gives the four masses of U with each V
    sides = np.concatenate([inside, outside])
    weights = np.stack([inside * flat, outside * flat], axis=2)
    for a in range(n):
        m = sides @ weights[a]
        both, v_only, u_only, neither = m[:n, 0], m[:n, 1], m[n:, 0], m[n:, 1]
        concordant, discordant = both * neither, u_only * v_only
        bad = product_below(concordant, discordant)
        if np.any(bad):
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
