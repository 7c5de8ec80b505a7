"""Signed DAG structure, topology queries, d-separation and trail enumeration."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .dist import VariableSpec, _check_unique_names
from .errors import (
    CycleDetected,
    DuplicateVariable,
    OverlappingSets,
    QpnError,
    UnknownVariable,
)
from .signs import Sign


@dataclass(frozen=True)
class SignedEdge:
    """Directed edge with a qualitative sign (+, - or ?; never 0)."""

    source: str
    target: str
    sign: Sign

    def __post_init__(self):
        if self.source == self.target:
            raise QpnError(f"self-loop on {self.source!r}")
        if self.sign is Sign.ZERO:
            raise QpnError(
                f"edge {self.source}->{self.target}: a zero-influence edge is "
                "represented by absence, not a '0' sign"
            )


class Direction(enum.Enum):
    WITH_EDGE = "with"
    AGAINST_EDGE = "against"


@dataclass(frozen=True)
class TrailStep:
    edge: SignedEdge
    direction: Direction


@dataclass(frozen=True)
class Trail:
    """Simple undirected path through the DAG, with per-hop edge records."""

    nodes: tuple[str, ...]
    steps: tuple[TrailStep, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.steps) + 1:
            raise QpnError("trail must have one more node than steps")
        if len(set(self.nodes)) != len(self.nodes):
            raise QpnError("trail nodes must be distinct")


@dataclass(frozen=True, eq=False)
class SignedDag:
    """Acyclic digraph over declared variables with signed edges."""

    variables: tuple[VariableSpec, ...]
    edges: tuple[SignedEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "edges", tuple(self.edges))
        _check_unique_names(self.variables)
        names = set(self.names)
        seen_pairs = set()
        for e in self.edges:
            for endpoint in (e.source, e.target):
                if endpoint not in names:
                    raise UnknownVariable(f"edge endpoint {endpoint!r} not declared")
            if (e.source, e.target) in seen_pairs:
                raise DuplicateVariable(
                    f"duplicate edge {e.source}->{e.target}"
                )
            seen_pairs.add((e.source, e.target))
        self.topological_order()  # raises CycleDetected on a cycle

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownVariable(f"unknown variable {name!r}")

    def _require(self, *names: str) -> None:
        declared = set(self.names)
        for n in names:
            if n not in declared:
                raise UnknownVariable(f"unknown variable {n!r}")

    def edge_between(self, source: str, target: str) -> SignedEdge | None:
        for e in self.edges:
            if e.source == source and e.target == target:
                return e
        return None

    def parents(self, v: str) -> set[str]:
        self._require(v)
        return {e.source for e in self.edges if e.target == v}

    def children(self, v: str) -> set[str]:
        self._require(v)
        return {e.target for e in self.edges if e.source == v}

    def descendants(self, v: str) -> set[str]:
        """All nodes reachable from v by directed paths (v excluded)."""
        self._require(v)
        out: set[str] = set()
        stack = [v]
        while stack:
            node = stack.pop()
            for c in self.children(node):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def ancestors(self, v: str) -> set[str]:
        self._require(v)
        out: set[str] = set()
        stack = [v]
        while stack:
            node = stack.pop()
            for p in self.parents(node):
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return out

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; ties broken by declaration order."""
        indeg = {n: 0 for n in self.names}
        for e in self.edges:
            indeg[e.target] += 1
        order: list[str] = []
        placed: set[str] = set()
        while len(order) < len(self.names):
            # earliest-declared ready node, so ties are deterministic
            node = next(
                (n for n in self.names if n not in placed and indeg[n] == 0), None
            )
            if node is None:
                raise CycleDetected("edge list contains a directed cycle")
            order.append(node)
            placed.add(node)
            for e in self.edges:
                if e.source == node:
                    indeg[e.target] -= 1
        return order

    # ---- d-separation ----------------------------------------------------

    def d_separated(self, a: str, b: str, given: Iterable[str] = ()) -> bool:
        """Standard graphical criterion via the ancestral moral graph.

        Independent of :meth:`active_trails` so the two act as mutual
        oracles in the test suite.
        """
        given = set(given)
        self._require(a, b, *given)
        if a == b:
            raise QpnError("d_separated: endpoints must differ")
        if a in given or b in given:
            raise OverlappingSets("endpoints must not be in the conditioning set")

        relevant = {a, b} | given
        for n in (a, b, *given):
            relevant |= self.ancestors(n)
        # moralize the induced subgraph
        undirected: dict[str, set[str]] = {n: set() for n in relevant}
        for e in self.edges:
            if e.source in relevant and e.target in relevant:
                undirected[e.source].add(e.target)
                undirected[e.target].add(e.source)
        for n in relevant:
            pars = [p for p in self.parents(n) if p in relevant]
            for i, p in enumerate(pars):
                for q in pars[i + 1:]:
                    undirected[p].add(q)
                    undirected[q].add(p)
        # separation after deleting the conditioning set
        seen = {a}
        stack = [a]
        while stack:
            node = stack.pop()
            for nb in undirected[node]:
                if nb in given or nb in seen:
                    continue
                if nb == b:
                    return False
                seen.add(nb)
                stack.append(nb)
        return True

    # ---- trail enumeration ----------------------------------------------

    def active_trails(
        self, from_: str, to: str, given: Iterable[str] = ()
    ) -> list[Trail]:
        """All active simple trails between two nodes, lexicographic order."""
        given = set(given)
        self._require(from_, to, *given)
        if from_ == to:
            raise QpnError("active_trails: endpoints must differ")

        adjacency: dict[str, set[str]] = {n: set() for n in self.names}
        for e in self.edges:
            adjacency[e.source].add(e.target)
            adjacency[e.target].add(e.source)

        trails: list[Trail] = []

        def extend(path: list[str]):
            node = path[-1]
            if node == to:
                trail = self._as_trail(path)
                if self._trail_active(trail, given):
                    trails.append(trail)
                return
            for nb in sorted(adjacency[node]):
                if nb not in path:
                    extend(path + [nb])

        extend([from_])
        trails.sort(key=lambda t: t.nodes)
        return trails

    def _as_trail(self, path: list[str]) -> Trail:
        steps = []
        for u, v in zip(path, path[1:]):
            edge = self.edge_between(u, v)
            if edge is not None:
                steps.append(TrailStep(edge, Direction.WITH_EDGE))
            else:
                steps.append(TrailStep(self.edge_between(v, u), Direction.AGAINST_EDGE))
        return Trail(tuple(path), tuple(steps))

    def _trail_active(self, trail: Trail, given: set[str]) -> bool:
        for k in range(1, len(trail.nodes) - 1):
            node = trail.nodes[k]
            into_prev = trail.steps[k - 1].direction is Direction.WITH_EDGE
            into_next = trail.steps[k].direction is Direction.AGAINST_EDGE
            collider = into_prev and into_next
            if collider:
                if node not in given and not (self.descendants(node) & given):
                    return False
            else:
                if node in given:
                    return False
        return True

    def to_jsonable(self) -> dict:
        return {
            "variables": [
                {"name": v.name, "support": list(v.support)} for v in self.variables
            ],
            "edges": [
                {"from": e.source, "to": e.target, "sign": e.sign.value}
                for e in self.edges
            ],
        }


@dataclass(frozen=True, eq=False)
class Qpn:
    """A qualitative probabilistic network: a signed DAG plus its semantics."""

    dag: SignedDag

    @property
    def variables(self) -> tuple[VariableSpec, ...]:
        return self.dag.variables

    @property
    def edges(self) -> tuple[SignedEdge, ...]:
        return self.dag.edges

    def to_jsonable(self) -> dict:
        return self.dag.to_jsonable()


def d_separated(dag: SignedDag, a: str, b: str, given: Iterable[str] = ()) -> bool:
    return dag.d_separated(a, b, given)
