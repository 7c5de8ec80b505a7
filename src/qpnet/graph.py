"""Signed DAG structure, topology queries, d-separation and trail enumeration."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .variables import VariableSpec, _check_unique_names
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

    def descendants(self, v: str) -> set[str]:
        """All nodes reachable from v by directed paths (v excluded)."""
        self._require(v)
        return self._reachable([v], self._children)

    def _reachable(self, starts: list[str], step: dict[str, set[str]]) -> set[str]:
        """Every node reached from ``starts`` by one or more ``step`` hops."""
        out: set[str] = set()
        stack = list(starts)
        while stack:
            for nxt in step[stack.pop()]:
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

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

        # the ancestral set holds every parent of its members
        relevant = {a, b} | given | self._reachable([a, b, *given], self._parents)
        # moralize family by family, leaving out the conditioning set
        moral: dict[str, set[str]] = {n: set() for n in relevant}
        for n in relevant:
            family = self._parents[n] | {n}
            kept = family - given
            for m in family:
                moral[m] |= kept
        return b not in self._reachable([a], moral)

    # ---- trail enumeration ----------------------------------------------

    def active_trails(
        self, from_: str, to: str, given: Iterable[str] = ()
    ) -> list[tuple[str, ...]]:
        """All active simple trails between two nodes, each as its node
        path, in lexicographic order.  A hop's edge is ``(u, v)`` or else
        ``(v, u)`` in the edge index."""
        given = set(given)
        self._require(from_, to, *given)
        if from_ == to:
            raise QpnError("active_trails: endpoints must differ")
        if from_ in given or to in given:
            raise OverlappingSets("endpoints must not be in the conditioning set")
        # a collider is open when it or a descendant is in given, that is,
        # when it is in given or is an ancestor of a member of given
        opened = given | self._reachable(list(given), self._parents)
        # depth-first over a stack of paths, not the call stack: the smallest
        # neighbour is popped first and no trail (it ends at ``to``) is a
        # prefix of another, so the trails come out in lexicographic order
        nbrs = {n: sorted(self._parents[n] | self._children[n], reverse=True) for n in self.names}
        trails: list[tuple[str, ...]] = []
        stack = [[from_]]
        while stack:
            path = stack.pop()
            if path[-1] == to:
                if self._trail_active(path, given, opened):
                    trails.append(tuple(path))
                continue
            stack.extend(path + [nb] for nb in nbrs[path[-1]] if nb not in path)
        return trails

    def _trail_active(self, path: list[str], given: set[str], opened: set[str]) -> bool:
        edges = self._edge_index
        for prev, node, nxt in zip(path, path[1:], path[2:]):
            if (prev, node) in edges and (nxt, node) in edges:  # collider
                if node not in opened:
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

    @property
    def dag(self) -> SignedDag:
        """This DAG.  Kept only for code written when a network wrapped its
        DAG: the benchmark.  Nothing in ``qpnet`` uses it.  Delete it once
        ROADMAP item 1's benchmark change stops using it."""
        return self


def Qpn(dag: SignedDag) -> SignedDag:
    """``dag``.  Kept only for code written when a network wrapped its DAG:
    the benchmark.  Nothing in ``qpnet`` calls it.  Delete it once ROADMAP
    item 1's benchmark change stops using it."""
    return dag
