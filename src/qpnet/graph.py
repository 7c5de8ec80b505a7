"""Signed DAG structure, topology queries, d-separation and trail enumeration."""

from __future__ import annotations

import functools
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
        variables = tuple(self.variables)
        _check_unique_names(variables)
        declared = {v.name for v in variables}
        edge_index: dict[tuple[str, str], SignedEdge] = {}
        for e in self.edges:
            key = e.source, e.target
            for endpoint in key:
                if endpoint not in declared:
                    raise UnknownVariable(f"edge endpoint {endpoint!r} not declared")
            if key in edge_index:
                raise DuplicateVariable(f"duplicate edge {e.source}->{e.target}")
            edge_index[key] = e
        self._index(variables, edge_index)
        self._order  # a cycle raises CycleDetected here, on outside input

    @functools.cached_property
    def _order(self) -> tuple[str, ...]:
        # Kahn's algorithm over declaration indices: the heap hands out the
        # earliest-declared ready node, so ties are deterministic
        names, children = self.names, self._children
        position = {n: k for k, n in enumerate(names)}
        indeg = [len(self._parents[n]) for n in names]
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
        return tuple(order)

    def _index(
        self,
        variables: tuple[VariableSpec, ...],
        edge_index: dict[tuple[str, str], SignedEdge],
    ) -> None:
        """Set every field and index of this DAG from ``variables`` and
        ``edge_index``, whose edges it keeps in their order.  Checks
        nothing: the names must be unique and every endpoint declared."""
        specs = {v.name: v for v in variables}
        names = tuple(specs)
        parents: dict[str, set[str]] = {n: set() for n in names}
        children: dict[str, set[str]] = {n: set() for n in names}
        for source, target in edge_index:
            children[source].add(target)
            parents[target].add(source)
        self.__dict__.update(
            variables=variables,
            edges=tuple(edge_index.values()),
            names=names,
            _specs=specs,
            _edge_index=edge_index,
            _parents=parents,
            _children=children,
        )

    def _successor(
        self,
        variables: tuple[VariableSpec, ...],
        edge_index: dict[tuple[str, str], SignedEdge],
    ) -> SignedDag:
        """The DAG over ``variables`` (this DAG's, or all but some of them)
        with ``edge_index``'s edges in its order, built without the
        constructor's checks.  The caller owns ``edge_index`` afterwards
        and guarantees what those checks would: every endpoint is declared
        and the edges are acyclic.  Its ``_order`` is computed on first
        read."""
        new = object.__new__(SignedDag)
        new._index(variables, edge_index)
        return new

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
        """Whether ``given`` d-separates ``a`` from ``b``: one Bayes-ball
        walk (Shachter, UAI 1998) from ``a`` over states (node, arrived
        from a child).  A node not in ``given`` passes the ball to its
        children, and to its parents when it came from a child; a node in
        ``given`` bounces a ball from a parent back to its parents, so a
        collider with a descendant in ``given`` passes it too.  The only
        code in the package that conditions on a set.  Its oracles are the
        tests' ``_ref_d_separated`` (the ancestral moral graph) and
        ``_ref_active_trails(dag, a, b, given)``, and :meth:`active_trails`
        for an empty ``given``.
        """
        given = set(given)
        self._require(a, b, *given)
        if a == b:
            raise QpnError("d_separated: endpoints must differ")
        if a in given or b in given:
            raise OverlappingSets("endpoints must not be in the conditioning set")

        # the ball starts at a as if from a child, so it may go either way
        up, down = {a}, set()  # nodes reached from a child, from a parent
        stack = [(a, True)]
        while stack:
            node, from_child = stack.pop()
            passes = node not in given
            if passes:
                for c in self._children[node] - down:
                    if c == b:
                        return False
                    down.add(c)
                    stack.append((c, False))
            if passes == from_child:  # passed up, or bounced at a given node
                for p in self._parents[node] - up:
                    if p == b:
                        return False
                    up.add(p)
                    stack.append((p, True))
        return True

    # ---- trail enumeration ----------------------------------------------

    def active_trails(self, from_: str, to: str) -> list[tuple[str, ...]]:
        """All active simple trails between two nodes with nothing given,
        each as its node path, in lexicographic order: the simple paths
        through no collider.  A hop's edge is ``(u, v)`` or else ``(v, u)``
        in the edge index."""
        self._require(from_, to)
        if from_ == to:
            raise QpnError("active_trails: endpoints must differ")
        # depth-first over a stack of paths, not the call stack: the smallest
        # neighbour is popped first and no trail (it ends at ``to``) is a
        # prefix of another, so the trails come out in lexicographic order
        nbrs = {n: sorted(self._parents[n] | self._children[n], reverse=True) for n in self.names}
        trails: list[tuple[str, ...]] = []
        stack = [[from_]]
        while stack:
            path = stack.pop()
            if path[-1] == to:
                if not self._has_collider(path):
                    trails.append(tuple(path))
                continue
            stack.extend(path + [nb] for nb in nbrs[path[-1]] if nb not in path)
        return trails

    def _has_collider(self, path: list[str]) -> bool:
        edges = self._edge_index
        for prev, node, nxt in zip(path, path[1:], path[2:]):
            if (prev, node) in edges and (nxt, node) in edges:
                return True
        return False

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
