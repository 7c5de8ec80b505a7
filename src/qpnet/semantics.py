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

from .dependence import (
    InfluenceVerdict,
    Verdict,
    influence_sign,
    stack_influence,
)
from .dist import EPS_PROB, JointTable, stack_marginal
from .errors import ShapeMismatch
from .graph import Qpn, SignedDag, SignedEdge
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
    expected: Sign
    verdict: InfluenceVerdict

    def to_jsonable(self) -> dict:
        return {
            "from": self.edge.source,
            "to": self.edge.target,
            "expected": self.expected.value,
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
    if not others:
        return 0.0
    axes = [table.axis(v) for v in (*given, a, *others)]
    return float(_ci_deviations(table.probabilities[None], axes, len(given))[0])


def _ci_deviations(stack: np.ndarray, axes: list[int], n_given: int) -> np.ndarray:
    """``ci_deviation`` for every table of a (batch, *shape) stack, the
    variables given by table axis in the order (given, a, others)."""
    probs = stack_marginal(stack, axes)
    size = [stack.shape[1 + k] for k in axes]
    # (batch, given cell, a, others cell)
    probs = probs.reshape(
        len(stack), math.prod(size[:n_given]), size[n_given], math.prod(size[n_given + 1 :])
    )
    mass = probs.sum(axis=(2, 3))
    live = mass > EPS_PROB
    block = probs / np.where(live, mass, 1.0)[..., None, None]
    product = block.sum(axis=3)[..., :, None] * block.sum(axis=2)[..., None, :]
    worst = np.abs(block - product).max(axis=(2, 3))
    return np.where(live, worst, 0.0).max(axis=1)


def _markov_terms(dag: SignedDag):
    """For each variable with nondescendants outside its parents: the
    variable, those nondescendants and its parents, both sorted."""
    for v in dag.names:
        pa = dag.parents(v)
        nd = set(dag.names) - dag.descendants(v) - {v} - pa
        if nd:
            yield v, tuple(sorted(nd)), tuple(sorted(pa))


def markov_check(table: JointTable, dag: SignedDag) -> list[MarkovViolation]:
    """Local Markov property: each variable independent of its
    nondescendants given its parents, verified numerically."""
    _check_same_variables(table, dag)
    violations: list[MarkovViolation] = []
    for v, nd, pa in _markov_terms(dag):
        dev = ci_deviation(table, v, nd, pa)
        if dev > EPS_CI:
            violations.append(MarkovViolation(v, nd, dev))
    return violations


# influence verdicts that meet a signed edge
_MEETS = {
    Sign.PLUS: (Verdict.POSITIVE, Verdict.ZERO),
    Sign.MINUS: (Verdict.NEGATIVE, Verdict.ZERO),
}


def _signed_edges(dag: SignedDag) -> list[tuple[SignedEdge, list[str]]]:
    """Each edge not signed '?', with its context: the target's other parents."""
    return [
        (edge, sorted(dag.parents(edge.target) - {edge.source}))
        for edge in dag.edges
        if edge.sign is not Sign.QUESTION
    ]


def satisfies_qpn(table: JointTable, qpn: Qpn) -> SatisfactionReport:
    """Full satisfaction check: Markov conditions plus every signed edge.

    A '+' edge is met by a Positive or Zero influence verdict (the
    definition's dominance is non-strict, so independence is degenerate
    positive influence); '-' symmetrically; '?' imposes nothing.
    """
    dag = qpn.dag
    markov = markov_check(table, dag)
    edge_violations: list[EdgeViolation] = []
    for edge, context in _signed_edges(dag):
        verdict = influence_sign(table, edge.source, edge.target, context)
        if verdict.verdict not in _MEETS[edge.sign]:
            edge_violations.append(EdgeViolation(edge, edge.sign, verdict))
    return SatisfactionReport(tuple(markov), tuple(edge_violations))


def stack_satisfies(stack: np.ndarray, qpn: Qpn) -> np.ndarray:
    """Which tables of a (batch, *shape) stack over the network's variables,
    in its order, satisfy it: ``satisfies_qpn(...).satisfied`` for each,
    without building reports."""
    dag = qpn.dag
    axis = {name: k for k, name in enumerate(dag.names)}
    ok = np.ones(len(stack), dtype=bool)
    for v, nd, pa in _markov_terms(dag):
        ok &= ~(_ci_deviations(stack, [axis[x] for x in (*pa, v, *nd)], len(pa)) > EPS_CI)
    for edge, context in _signed_edges(dag):
        context_axes = [axis[c] for c in context]
        verdicts = stack_influence(stack, axis[edge.source], axis[edge.target], context_axes)
        ok &= np.isin(verdicts, _MEETS[edge.sign])
    return ok
