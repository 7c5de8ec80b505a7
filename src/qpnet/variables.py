"""Named variables with finite real supports.

The one piece of the distribution vocabulary that the graph side needs: it
imports no numpy, so that sign reasoning over a network does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DuplicateVariable, ShapeMismatch

# Tolerance for probability comparisons: absolute on masses and cdf differences,
# relative on products of cells.  Inputs are short decimal literals, so this
# cleanly separates real violations from float noise.
EPS_PROB = 1e-9


@dataclass(frozen=True)
class VariableSpec:
    """A named variable with a strictly increasing finite real support."""

    name: str
    support: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(float(x) for x in self.support))
        if not self.name:
            raise ShapeMismatch("variable name must be non-empty")
        if len(self.support) < 2:
            raise ShapeMismatch(
                f"variable {self.name!r}: support must have at least 2 levels, "
                f"got {len(self.support)}"
            )
        if not all(math.isfinite(x) for x in self.support):
            raise ShapeMismatch(f"variable {self.name!r}: support must be finite")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ShapeMismatch(
                f"variable {self.name!r}: support must be strictly increasing"
            )

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def is_binary(self) -> bool:
        return len(self.support) == 2


def _check_unique_names(variables: Sequence[VariableSpec]) -> None:
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise DuplicateVariable(f"duplicate variable names in {names}")
