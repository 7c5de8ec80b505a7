"""Exact finite discrete joint distributions.

Dense tables over small variable sets, and the two kernels that every
dependence notion in this package is built on: ``stack_marginal`` and the
first-order stochastic dominance (FSD) test ``fsd_bounds``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadProbability,
    MassNotOne,
    NegativeMass,
    QpnError,
    ShapeMismatch,
    SupportMismatch,
    UnknownVariable,
)
# VariableSpec and EPS_PROB live in the numpy-free ``variables`` module, so
# that the graph side can use them; they stay importable from here
from .variables import EPS_PROB, VariableSpec, _check_unique_names


def _check_table_variables(variables: Sequence[VariableSpec]) -> None:
    _check_unique_names(variables)
    if not variables:
        raise ShapeMismatch("table must have at least one variable")


@dataclass(frozen=True, eq=False)
class JointTable:
    """Dense joint probability table, one axis per variable."""

    variables: tuple[VariableSpec, ...]
    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        # a copy, so that freezing it leaves the caller's array writeable
        arr = np.array(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", arr)
        validate(self)
        arr.flags.writeable = False

    @classmethod
    def from_flat(
        cls, variables: Iterable[VariableSpec], flat: Sequence[float]
    ) -> "JointTable":
        """Build from row-major flat probabilities over the variable order."""
        variables = tuple(variables)
        _check_table_variables(variables)
        flat = np.asarray(flat, dtype=float)
        shape = tuple(v.size for v in variables)
        expected = math.prod(shape)
        if flat.size != expected:
            raise ShapeMismatch(
                f"expected {expected} probabilities for shape {shape}, got {flat.size}"
            )
        return cls(variables, flat.reshape(shape))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def axis(self, name: str) -> int:
        for k, v in enumerate(self.variables):
            if v.name == name:
                return k
        raise UnknownVariable(f"unknown variable {name!r}")

    def variable(self, name: str) -> VariableSpec:
        return self.variables[self.axis(name)]

    def marginalize(self, keep: Iterable[str]) -> "JointTable":
        """Sum out every variable not in ``keep``; mass is conserved.  Kept
        only for perfbench, until ROADMAP item 1."""
        keep = set(keep)
        if not keep:
            raise QpnError("marginalize: keep must be non-empty")
        axes = sorted(map(self.axis, keep))  # raises UnknownVariable
        probs = stack_marginal(self.probabilities[None], axes)[0]
        return JointTable(tuple(self.variables[k] for k in axes), probs)

    def to_jsonable(self) -> dict:
        return {
            "variables": [
                {"name": v.name, "support": list(v.support)} for v in self.variables
            ],
            "probabilities": [float(p) for p in self.probabilities.reshape(-1)],
        }


def validate(table: JointTable) -> None:
    """Check all JointTable invariants; raise on the first violation."""
    _check_table_variables(table.variables)
    shape = tuple(v.size for v in table.variables)
    if table.probabilities.shape != shape:
        raise ShapeMismatch(
            f"probability array shape {table.probabilities.shape} != supports {shape}"
        )
    total = float(table.probabilities.sum())
    if not math.isfinite(total):  # NaN or inf in any cell makes the sum non-finite
        raise BadProbability("probabilities must be finite numbers")
    lowest = table.probabilities.min()
    if lowest < -EPS_PROB:
        raise NegativeMass(f"negative probability entry: {lowest}")
    if abs(total - 1.0) > EPS_PROB:
        raise MassNotOne(total)


def stack_marginal(stack: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Marginal of every table in a (batch, *shape) stack on the table axes
    ``axes``, which come out in that order after the batch axis."""
    kept = sorted(axes)
    drop = tuple(1 + k for k in range(stack.ndim - 1) if k not in kept)
    marg = stack.sum(axis=drop) if drop else stack
    return np.transpose(marg, (0, *(1 + kept.index(k) for k in axes)))


# seeding chunk and decision block sizes of the searches; see ``trial_blocks``
BLOCK_CELLS = 1 << 16
SEED_CELLS = 1024


def trial_blocks(
    seed: int, cells: int, n_draws: int, trials: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Standard exponential draws for trials 0 to ``trials - 1``, one row of
    ``n_draws`` per trial, as ``(first trial, rows)`` blocks.

    Trial t takes row t mod C of ``np.random.default_rng([seed, t // C])``,
    C = max(1, SEED_CELLS // cells) for a table of ``cells`` cells.  Blocks
    are 1, 2, 4 and so on chunks of C trials, up to about BLOCK_CELLS cells,
    cut at the budget, which is checked when the first block is drawn.
    """
    if trials <= 0:
        raise QpnError("trials must be positive")
    if seed < 0:
        raise QpnError(f"seed must be non-negative, got {seed}")
    chunk = max(1, SEED_CELLS // cells)
    cap = chunk * max(1, BLOCK_CELLS // cells // chunk)
    start, size = 0, chunk
    while start < trials:
        rows = np.empty((min(size, trials - start), n_draws))
        for k in range(0, len(rows), chunk):
            rng = np.random.default_rng([seed, (start + k) // chunk])
            rng.standard_exponential(out=rows[k : k + chunk])
        yield start, rows
        start, size = start + len(rows), min(2 * size, cap)


def valid_masses(stack: np.ndarray) -> np.ndarray:
    """Which tables of a (batch, *shape) stack pass ``validate``'s checks on
    their cells: finite, none below -EPS_PROB, and a total within EPS_PROB of 1."""
    flat = stack.reshape(len(stack), -1)
    total = flat.sum(axis=1)
    return np.isfinite(total) & ~(flat < -EPS_PROB).any(axis=1) & (np.abs(total - 1.0) <= EPS_PROB)


class DominanceOrder(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True, eq=False)
class Cdf:
    """A cdf over an increasing finite support; kept only for perfbench (ROADMAP item 1)."""

    support: tuple[float, ...]
    cumulative: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(float(x) for x in self.support))
        arr = np.array(self.cumulative, dtype=float)
        object.__setattr__(self, "cumulative", arr)
        if arr.shape != (len(self.support),):
            raise ShapeMismatch("cdf length must match support length")
        if not np.isfinite(arr).all():
            raise BadProbability("cdf values must be finite numbers")
        if np.any(np.diff(arr, prepend=0.0) < -EPS_PROB):
            raise ShapeMismatch("cdf must be non-decreasing")
        if abs(float(arr[-1]) - 1.0) > EPS_PROB:
            raise ShapeMismatch(f"cdf must end at 1, got {float(arr[-1])}")
        arr.flags.writeable = False


def fsd_compare(f: Cdf, g: Cdf) -> DominanceOrder:
    """First-order stochastic dominance comparison of two same-support cdfs.

    ``f`` dominates ``g`` when f <= g pointwise (larger values more
    likely under f) with at least one coordinate strictly below; ties
    within EPS_PROB count as equal.  Kept only for perfbench, until
    ROADMAP item 1.
    """
    if f.support != g.support:
        raise SupportMismatch(f"cdf supports differ: {f.support} vs {g.support}")
    below, above = fsd_bounds(f.cumulative - g.cumulative)
    if below and above:
        return DominanceOrder.EQUAL
    if below:
        return DominanceOrder.DOMINATES
    if above:
        return DominanceOrder.DOMINATED_BY
    return DominanceOrder.INCOMPARABLE


def fsd_bounds(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether cdf differences ``f - g`` along the last axis are all <= 0
    (f dominates g), and all >= 0, within EPS_PROB; both means equal."""
    return (diff <= EPS_PROB).all(axis=-1), (diff >= -EPS_PROB).all(axis=-1)


def product_below(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``lhs < rhs`` beyond EPS_PROB relative to the larger side: products of
    small cells would all pass an absolute tolerance."""
    return lhs < rhs - EPS_PROB * np.maximum(np.abs(lhs), np.abs(rhs))
