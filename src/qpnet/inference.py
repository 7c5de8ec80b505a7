"""Qualitative inference over a QPN.

Trail-based sign propagation in two modes, plus the structural
reduce/reverse operations used by query processing.  Classical mode is
the literature's semantics, which assumes influence symmetry when a
trail runs against an edge; Sound mode emits '?' there unless both
endpoints are binary, where symmetry actually holds.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import (
    BadEvidenceSign,
    NoSuchEdge,
    QpnError,
    Stuck,
    TooManyParents,
    WouldCreateCycle,
)
from .graph import SignedDag, SignedEdge
from .signs import Sign, sign_product, sign_sum
from .variables import VariableSpec


class Mode(enum.Enum):
    CLASSICAL = "classical"
    SOUND = "sound"


@dataclass(frozen=True)
class PropagationResult:
    node_signs: dict[str, Sign]
    evidence_node: str
    evidence_sign: Sign
    mode: Mode
    trail_log: dict[str, list[tuple[tuple[str, ...], Sign]]]

    def to_jsonable(self) -> dict:
        return {
            "evidence": {self.evidence_node: self.evidence_sign.value},
            "mode": self.mode.value,
            "node_signs": {k: v.value for k, v in sorted(self.node_signs.items())},
            "trails": {
                node: [
                    {"nodes": list(nodes), "sign": sign.value}
                    for nodes, sign in entries
                ]
                for node, entries in sorted(self.trail_log.items())
            },
        }


def _against_sign(edge: SignedEdge, dag: SignedDag, mode: Mode) -> Sign:
    """The sign of ``edge`` read against its direction: kept in classical
    mode, which assumes influence symmetry; in sound mode kept only when
    both endpoints are binary, where symmetry holds, and '?' otherwise."""
    if mode is Mode.CLASSICAL:
        return edge.sign
    if dag.variable(edge.source).is_binary and dag.variable(edge.target).is_binary:
        return edge.sign
    return Sign.QUESTION


def propagate(
    dag: SignedDag, observed: str, obs_sign: Sign, mode: Mode = Mode.SOUND
) -> PropagationResult:
    """Propagate a qualitative observation to every other node.

    Each node's sign is the parallel sum over its active trails from
    the evidence of the chained step signs; nodes with no active trail
    get 0.
    """
    dag._require(observed)
    if obs_sign not in (Sign.PLUS, Sign.MINUS):
        raise BadEvidenceSign(f"evidence sign must be + or -, got {obs_sign}")

    # each hop's sign, along its edge and against it, decided once per edge
    hop: dict[tuple[str, str], Sign] = {}
    for e in dag.edges:
        hop[e.source, e.target] = e.sign
        hop[e.target, e.source] = _against_sign(e, dag, mode)
    node_signs: dict[str, Sign] = {observed: obs_sign}
    trail_log: dict[str, list[tuple[tuple[str, ...], Sign]]] = {observed: []}
    for node in dag.names:
        if node == observed:
            continue
        entries: list[tuple[tuple[str, ...], Sign]] = []
        total = Sign.ZERO
        for trail in dag.active_trails(observed, node):
            sign = obs_sign
            for step in zip(trail, trail[1:]):
                sign = sign_product(sign, hop[step])
            entries.append((trail, sign))
            total = sign_sum(total, sign)
        node_signs[node] = total
        trail_log[node] = entries
    return PropagationResult(node_signs, observed, obs_sign, mode, trail_log)


def reduce_vertex(dag: SignedDag, v: str) -> SignedDag:
    """Remove a vertex with at most one parent, rewiring its influence.

    The parent gains an edge to each child whose sign is the chained
    product, merged with any existing parallel edge.  Former co-children
    of v become dependent once their shared parent is marginalized out,
    so any missing edge between them is added as '?' in topological
    order.  Every other edge is carried over as it is.
    """
    dag._require(v)
    pars = sorted(dag._parents[v])
    if len(pars) > 1:
        raise TooManyParents(f"{v!r} has parents {pars}; reduction needs at most one")
    children = sorted(dag._children[v])

    variables, edges = _without(dag, v)
    if pars:
        parent = pars[0]
        in_sign = dag._edge_index[(parent, v)].sign
        for c in children:
            sign = sign_product(in_sign, dag._edge_index[(v, c)].sign)
            old = edges.get((parent, c))
            if old is not None:
                sign = sign_sum(old.sign, sign)
                if sign is old.sign:
                    continue
            edges[(parent, c)] = SignedEdge(parent, c, sign)
    topo_index = {n: k for k, n in enumerate(dag._order)}
    for c1, c2 in itertools.combinations(children, 2):
        if (c1, c2) in edges or (c2, c1) in edges:
            continue
        if topo_index[c1] > topo_index[c2]:
            c1, c2 = c2, c1
        edges[(c1, c2)] = SignedEdge(c1, c2, Sign.QUESTION)
    return SignedDag(variables, tuple(edges.values()))


def reverse_edge(dag: SignedDag, i: str, j: str, mode: Mode = Mode.SOUND) -> SignedDag:
    """Arc reversal preserving an independence map.

    The reversed edge takes the sign of the old one read against its
    direction, as ``propagate`` reads a hop against its edge.  Each
    endpoint inherits the other's former parents, all inherited edges
    signed '?'.  Every other edge is carried over as it is.
    """
    edge = dag._edge_index.get((i, j))
    if edge is None:
        raise NoSuchEdge(f"no edge {i}->{j}")
    if _has_other_path(dag, i, j):
        raise WouldCreateCycle(
            f"another directed path {i}->...->{j} exists; reversal would cycle"
        )

    edges = dict(dag._edge_index)
    del edges[(i, j)]
    edges[(j, i)] = SignedEdge(j, i, _against_sign(edge, dag, mode))
    inherited = [(p, j) for p in sorted(dag._parents[i])]
    inherited += [(p, i) for p in sorted(dag._parents[j]) if p != i]
    for p, c in inherited:
        if (p, c) not in edges:
            edges[(p, c)] = SignedEdge(p, c, Sign.QUESTION)
    return SignedDag(dag.variables, tuple(edges.values()))


def _has_other_path(dag: SignedDag, i: str, j: str) -> bool:
    """Directed path from i to j not using the direct edge."""
    return j in dag._reachable([c for c in dag._children[i] if c != j], dag._children)


def _without(dag: SignedDag, v: str) -> tuple[tuple[VariableSpec, ...], dict]:
    """The variables of ``dag`` other than ``v``, and its edge map, in
    edge order, without the edges at ``v``."""
    edges = dict(dag._edge_index)
    for p in dag._parents[v]:
        del edges[(p, v)]
    for c in dag._children[v]:
        del edges[(v, c)]
    return tuple(s for s in dag.variables if s.name != v), edges


@dataclass(frozen=True)
class QueryStep:
    operation: str  # "barren" | "reduce" | "reverse"
    arguments: tuple[str, ...]
    edges_after: tuple[tuple[str, str, str], ...]

    def to_jsonable(self) -> dict:
        return {
            "operation": self.operation,
            "arguments": list(self.arguments),
            "edges_after": [list(e) for e in self.edges_after],
        }


@dataclass(frozen=True)
class QueryResult:
    sign: Sign
    transcript: tuple[QueryStep, ...]

    def to_jsonable(self) -> dict:
        return {
            "sign": self.sign.value,
            "transcript": [s.to_jsonable() for s in self.transcript],
        }


def _edge_list(dag: SignedDag) -> tuple[tuple[str, str, str], ...]:
    return tuple((e.source, e.target, e.sign.value) for e in dag.edges)


def _remove_node(dag: SignedDag, v: str) -> SignedDag:
    variables, edges = _without(dag, v)
    return SignedDag(variables, tuple(edges.values()))


def query(
    dag: SignedDag, decision: str, target: str, mode: Mode = Mode.SOUND
) -> QueryResult:
    """Direction of influence of a decision variable on a target.

    Applies barren-node deletion, reductions and reversals until a
    direct decision->target edge exists, and answers with its sign, though
    other trails may remain and ``reduce_vertex`` keeps co-child edges that
    the removed parent confounds: a satisfying distribution can refute the
    answer.  The sound-mode fuzz tests cover ``propagate`` only.
    Deterministic strategy: earliest-topological barren sink first, then
    the lowest-index reducible node, then the legal reversal nearest the
    target.
    """
    dag._require(decision, target)
    if decision == target:
        raise QpnError("query endpoints must differ")
    if dag.d_separated(decision, target):
        return QueryResult(Sign.ZERO, ())

    transcript: list[QueryStep] = []
    keep = {decision, target}
    max_steps = 4 * len(dag.names) ** 2 + 8
    for _ in range(max_steps):
        direct = dag._edge_index.get((decision, target))
        if direct is not None:
            return QueryResult(direct.sign, tuple(transcript))

        sink = next(
            (v for v in dag._order if v not in keep and not dag._children[v]), None
        )
        if sink is not None:
            dag = _remove_node(dag, sink)
            transcript.append(QueryStep("barren", (sink,), _edge_list(dag)))
            continue

        reducible = next(
            (v for v in dag._order if v not in keep and len(dag._parents[v]) <= 1),
            None,
        )
        if reducible is not None:
            dag = reduce_vertex(dag, reducible)
            transcript.append(QueryStep("reduce", (reducible,), _edge_list(dag)))
            continue

        reversal = _pick_reversal(dag, target)
        if reversal is None:
            raise Stuck(f"no applicable operation while querying {decision}->{target}")
        dag = reverse_edge(dag, reversal.source, reversal.target, mode)
        transcript.append(
            QueryStep("reverse", (reversal.source, reversal.target), _edge_list(dag))
        )
    raise Stuck(f"query {decision}->{target} did not converge in {max_steps} steps")


def _undirected_distances(dag: SignedDag, target: str) -> dict[str, int]:
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in dag._parents[node] | dag._children[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def _pick_reversal(dag: SignedDag, target: str):
    """Legal reversal of an edge oriented away from the target, choosing
    the one whose tail is closest to the target (declaration order ties)."""
    dist = _undirected_distances(dag, target)
    legal = (
        e for e in dag.edges
        if e.source in dist and e.target in dist and dist[e.target] > dist[e.source]
        and not _has_other_path(dag, e.source, e.target)
    )
    return min(legal, key=lambda e: (dist[e.source], dist[e.target]), default=None)
