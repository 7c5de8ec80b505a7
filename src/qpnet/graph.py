"""Signed DAG structure, topology queries, d-separation and trail enumeration."""

from __future__ import annotations

import heapq
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


@dataclass(frozen=True)
class Trail:
    """Simple undirected path through the DAG, as its node sequence.

    Each hop's edge, and whether the hop runs with it or against it, is
    read from the DAG's edge index: ``(u, v)`` or else ``(v, u)``.
    """

    nodes: tuple[str, ...]

    def __post_init__(self):
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
        names = tuple(v.name for v in self.variables)
        specs = {v.name: v for v in self.variables}
        edge_index: dict[tuple[str, str], SignedEdge] = {}
        parents: dict[str, set[str]] = {n: set() for n in names}
        children: dict[str, set[str]] = {n: set() for n in names}
        for e in self.edges:
            source, target = e.source, e.target
            kids, pars = children.get(source), parents.get(target)
            if kids is None or pars is None:
                missing = source if kids is None else target
                raise UnknownVariable(f"edge endpoint {missing!r} not declared")
            key = source, target
            if key in edge_index:
                raise DuplicateVariable(f"duplicate edge {source}->{target}")
            edge_index[key] = e
            pars.add(source)
            kids.add(target)
        # Kahn's algorithm over declaration indices: the heap hands out the
        # earliest-declared ready node, so ties are deterministic
        position = {n: k for k, n in enumerate(names)}
        indeg = [len(parents[n]) for n in names]
        ready = [k for k, d in enumerate(indeg) if not d]
        order: list[str] = []
        while ready:
            node = names[heapq.heappop(ready)]
            order.append(node)
            for c in children[node]:
                k = position[c]
                indeg[k] -= 1
                if not indeg[k]:
                    heapq.heappush(ready, k)
        if len(order) < len(names):
            raise CycleDetected("edge list contains a directed cycle")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_specs", specs)
        object.__setattr__(self, "_edge_index", edge_index)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_order", tuple(order))

    def variable(self, name: str) -> VariableSpec:
        self._require(name)
        return self._specs[name]

    def _require(self, *names: str) -> None:
        for n in names:
            if n not in self._specs:
                raise UnknownVariable(f"unknown variable {n!r}")

    def edge_between(self, source: str, target: str) -> SignedEdge | None:
        return self._edge_index.get((source, target))

    def parents(self, v: str) -> set[str]:
        self._require(v)
        return set(self._parents[v])

    def children(self, v: str) -> set[str]:
        self._require(v)
        return set(self._children[v])

    def descendants(self, v: str) -> set[str]:
        """All nodes reachable from v by directed paths (v excluded)."""
        return self._reachable(v, self._children)

    def ancestors(self, v: str) -> set[str]:
        """All nodes with a directed path to v (v excluded)."""
        return self._reachable(v, self._parents)

    def _reachable(self, v: str, step: dict[str, set[str]]) -> set[str]:
        self._require(v)
        out: set[str] = set()
        stack = [v]
        while stack:
            for nxt in step[stack.pop()]:
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    def topological_order(self) -> list[str]:
        """Kahn's order, built once; ties go to the earliest-declared node."""
        return list(self._order)

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
        # moralize the induced subgraph; an ancestral set holds every
        # parent of its members
        undirected: dict[str, set[str]] = {n: set() for n in relevant}
        for n in relevant:
            pars = list(self._parents[n])
            for i, p in enumerate(pars):
                undirected[n].add(p)
                undirected[p].add(n)
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

        trails: list[Trail] = []
        self._extend([from_], to, given, trails)
        trails.sort(key=lambda t: t.nodes)
        return trails

    def _extend(
        self, path: list[str], to: str, given: set[str], trails: list[Trail]
    ) -> None:
        # a method, not a closure over itself, so a call leaves no cycle
        # for the garbage collector
        node = path[-1]
        if node == to:
            trail = Trail(tuple(path))
            if self._trail_active(trail, given):
                trails.append(trail)
            return
        for nb in sorted(self._parents[node] | self._children[node]):
            if nb not in path:
                self._extend(path + [nb], to, given, trails)

    def _trail_active(self, trail: Trail, given: set[str]) -> bool:
        edges = self._edge_index
        nodes = trail.nodes
        for prev, node, nxt in zip(nodes, nodes[1:], nodes[2:]):
            if (prev, node) in edges and (nxt, node) in edges:  # collider
                if node not in given and not (self.descendants(node) & given):
                    return False
            elif node in given:
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
