"""Does a concrete joint distribution satisfy a QPN?

Two halves: the Markov conditions implied by the DAG (checked locally,
which suffices for the global property on DAGs) and the per-edge
influence constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dependence import MEETS, InfluenceVerdict, influence_sign, stack_verdict_codes
from .dist import EPS_PROB, JointTable, stack_marginal
from .errors import OverlappingSets, ShapeMismatch
from .graph import SignedDag, SignedEdge
from .signs import Sign

# CI deviations accumulate products of table entries, so this is looser
# than EPS_PROB.
EPS_CI = 1e-7


@dataclass(frozen=True)
class MarkovViolation:
    variable: str
    nondescendants: tuple[str, ...]
    max_deviation: float

    def to_jsonable(self) -> dict:
        return {
            "variable": self.variable,
            "nondescendants": list(self.nondescendants),
            "max_deviation": self.max_deviation,
        }


@dataclass(frozen=True)
class EdgeViolation:
    edge: SignedEdge
    verdict: InfluenceVerdict

    def to_jsonable(self) -> dict:
        return {
            "from": self.edge.source,
            "to": self.edge.target,
            "expected": self.edge.sign.value,
            "verdict": self.verdict.to_jsonable(),
        }


@dataclass(frozen=True)
class SatisfactionReport:
    markov_violations: tuple[MarkovViolation, ...]
    edge_violations: tuple[EdgeViolation, ...]

    @property
    def satisfied(self) -> bool:
        return not self.markov_violations and not self.edge_violations

    def to_jsonable(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "markov_violations": [v.to_jsonable() for v in self.markov_violations],
            "edge_violations": [v.to_jsonable() for v in self.edge_violations],
        }


def _check_same_variables(table: JointTable, dag: SignedDag) -> None:
    table_vars = {v.name: v.support for v in table.variables}
    dag_vars = {v.name: v.support for v in dag.variables}
    if table_vars == dag_vars:
        return
    missing = sorted(dag_vars.keys() - table_vars.keys())
    extra = sorted(table_vars.keys() - dag_vars.keys())
    problems = []
    if missing:
        problems.append(f"network variables {missing} are missing from the table")
    if extra:
        problems.append(f"table variables {extra} are not in the network")
    for name in sorted(table_vars.keys() & dag_vars.keys()):
        if table_vars[name] != dag_vars[name]:
            problems.append(
                f"variable {name!r} has support {list(table_vars[name])} in the "
                f"table but {list(dag_vars[name])} in the network"
            )
    raise ShapeMismatch("table does not match network: " + "; ".join(problems))


def ci_deviation(
    table: JointTable, a: str, others: Iterable[str], given: Iterable[str] = ()
) -> float:
    """Max cell deviation from a independent-of-others given the rest.

    For every conditioning cell with positive mass, compares the joint
    conditional of (a, others) against the product of its marginals and
    returns the largest absolute difference.
    """
    others = tuple(others)
    given = tuple(given)
    names = (a, *others, *given)
    if len(set(names)) != len(names):
        raise OverlappingSets(
            f"a, others and given must not share or repeat a variable: "
            f"{a!r}, {list(others)}, {list(given)}"
        )
    axes = [table.axis(v) for v in (*given, a, *others)]
    if not others:
        return 0.0
    size = [table.variables[k].size for k in axes]
    # (given cell, a, others cell)
    probs = stack_marginal(table.probabilities[None], axes).reshape(
        math.prod(size[: len(given)]), size[len(given)], -1
    )
    mass = probs.sum(axis=(1, 2))
    live = mass > EPS_PROB
    block = probs / np.where(live, mass, 1.0)[:, None, None]
    product = block.sum(axis=2)[:, :, None] * block.sum(axis=1)[:, None, :]
    worst = np.abs(block - product).max(axis=(1, 2))
    return float(np.where(live, worst, 0.0).max())


def markov_check(table: JointTable, dag: SignedDag) -> list[MarkovViolation]:
    """Local Markov property: each variable independent of its
    nondescendants given its parents, verified numerically."""
    _check_same_variables(table, dag)
    violations: list[MarkovViolation] = []
    for v in dag.names:
        pa = dag.parents(v)
        nd = tuple(sorted(set(dag.names) - dag.descendants(v) - {v} - pa))
        if not nd:
            continue
        dev = ci_deviation(table, v, nd, tuple(sorted(pa)))
        if dev > EPS_CI:
            violations.append(MarkovViolation(v, nd, dev))
    return violations


def satisfies_qpn(table: JointTable, dag: SignedDag) -> SatisfactionReport:
    """Full satisfaction check: Markov conditions plus every signed edge.

    A '+' edge is met by a Positive or Zero influence verdict (the
    definition's dominance is non-strict, so independence is degenerate
    positive influence); '-' symmetrically; '?' imposes nothing.  An edge's
    context is its target's other parents.  Each edge is decided by its
    verdict code; only an edge that fails is reported, with its
    ``influence_sign`` verdict.
    """
    markov = markov_check(table, dag)
    edge_violations: list[EdgeViolation] = []
    signed = [edge for edge in dag.edges if edge.sign is not Sign.QUESTION]
    # one marginal per child, on its family axes in table order
    kept = {e.target: sorted(map(table.axis, dag.parents(e.target) | {e.target})) for e in signed}
    marginal = {v: stack_marginal(table.probabilities[None], axes) for v, axes in kept.items()}
    for edge in signed:
        context = sorted(dag.parents(edge.target) - {edge.source})
        names = (edge.source, edge.target, *context)
        axes = [kept[edge.target].index(table.axis(v)) for v in names]
        code = stack_verdict_codes(marginal[edge.target], *axes[:2], axes[2:])[0]
        if not MEETS[edge.sign][code]:
            verdict = influence_sign(table, edge.source, edge.target, context)
            edge_violations.append(EdgeViolation(edge, verdict))
    return SatisfactionReport(tuple(markov), tuple(edge_violations))
