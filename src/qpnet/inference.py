"""Qualitative inference over a QPN.

Trail-based sign propagation in two modes, plus the structural
reduce/reverse operations used by query processing.  Classical mode is
the literature's semantics, which assumes influence symmetry when a
trail runs against an edge; Sound mode emits '?' there unless both
endpoints are binary, where symmetry actually holds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    BadEvidenceSign,
    NoSuchEdge,
    Stuck,
    TooManyParents,
    UnknownVariable,
    WouldCreateCycle,
)
from .graph import Direction, Qpn, SignedDag, SignedEdge, Trail
from .signs import Sign, sign_product, sign_sum


class Mode(enum.Enum):
    CLASSICAL = "classical"
    SOUND = "sound"


@dataclass(frozen=True)
class PropagationResult:
    node_signs: dict[str, Sign]
    evidence_node: str
    evidence_sign: Sign
    mode: Mode
    trail_log: dict[str, list[tuple[Trail, Sign]]]

    def to_jsonable(self) -> dict:
        return {
            "evidence": {self.evidence_node: self.evidence_sign.value},
            "mode": self.mode.value,
            "node_signs": {k: v.value for k, v in sorted(self.node_signs.items())},
            "trails": {
                node: [
                    {"nodes": list(trail.nodes), "sign": sign.value}
                    for trail, sign in entries
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
    qpn: Qpn, observed: str, obs_sign: Sign, mode: Mode = Mode.SOUND
) -> PropagationResult:
    """Propagate a qualitative observation to every other node.

    Each node's sign is the parallel sum over its active trails from
    the evidence of the chained step signs; nodes with no active trail
    get 0.
    """
    dag = qpn.dag
    dag._require(observed)
    if obs_sign not in (Sign.PLUS, Sign.MINUS):
        raise BadEvidenceSign(f"evidence sign must be + or -, got {obs_sign}")

    node_signs: dict[str, Sign] = {observed: obs_sign}
    trail_log: dict[str, list[tuple[Trail, Sign]]] = {observed: []}
    for node in dag.names:
        if node == observed:
            continue
        entries: list[tuple[Trail, Sign]] = []
        total = Sign.ZERO
        for trail in dag.active_trails(observed, node):
            sign = obs_sign
            for step in trail.steps:
                with_edge = step.direction is Direction.WITH_EDGE
                step_sign = step.edge.sign if with_edge else _against_sign(step.edge, dag, mode)
                sign = sign_product(sign, step_sign)
            entries.append((trail, sign))
            total = sign_sum(total, sign)
        node_signs[node] = total
        trail_log[node] = entries
    return PropagationResult(node_signs, observed, obs_sign, mode, trail_log)


def reduce_vertex(qpn: Qpn, v: str) -> Qpn:
    """Remove a vertex with at most one parent, rewiring its influence.

    The parent gains an edge to each child whose sign is the chained
    product, merged with any existing parallel edge.  Former co-children
    of v become dependent once their shared parent is marginalized out,
    so any missing edge between them is added as '?' in topological
    order.
    """
    dag = qpn.dag
    dag._require(v)
    pars = sorted(dag.parents(v))
    if len(pars) > 1:
        raise TooManyParents(f"{v!r} has parents {pars}; reduction needs at most one")
    parent = pars[0] if pars else None
    children = sorted(dag.children(v))

    edges: dict[tuple[str, str], Sign] = {
        (e.source, e.target): e.sign
        for e in dag.edges
        if v not in (e.source, e.target)
    }
    if parent is not None:
        in_sign = dag.edge_between(parent, v).sign
        for c in children:
            combined = sign_product(in_sign, dag.edge_between(v, c).sign)
            if (parent, c) in edges:
                edges[(parent, c)] = sign_sum(edges[(parent, c)], combined)
            else:
                edges[(parent, c)] = combined
    topo_index = {n: k for k, n in enumerate(dag.topological_order())}
    for a_idx in range(len(children)):
        for b_idx in range(a_idx + 1, len(children)):
            c1, c2 = children[a_idx], children[b_idx]
            if (c1, c2) in edges or (c2, c1) in edges:
                continue
            if topo_index[c1] > topo_index[c2]:
                c1, c2 = c2, c1
            edges[(c1, c2)] = Sign.QUESTION

    variables = tuple(s for s in dag.variables if s.name != v)
    new_edges = tuple(
        SignedEdge(src, dst, sign) for (src, dst), sign in edges.items()
    )
    return Qpn(SignedDag(variables, new_edges))


def reverse_edge(qpn: Qpn, i: str, j: str, mode: Mode = Mode.SOUND) -> Qpn:
    """Arc reversal preserving an independence map.

    The reversed edge takes the sign of the old one read against its
    direction, as ``propagate`` reads a trail step.  Each endpoint inherits
    the other's former parents, all inherited edges signed '?'.
    """
    dag = qpn.dag
    edge = dag.edge_between(i, j)
    if edge is None:
        raise NoSuchEdge(f"no edge {i}->{j}")
    if _has_other_path(dag, i, j):
        raise WouldCreateCycle(
            f"another directed path {i}->...->{j} exists; reversal would cycle"
        )

    pa_i = dag.parents(i)
    pa_j = dag.parents(j) - {i}
    edges: dict[tuple[str, str], Sign] = {
        (e.source, e.target): e.sign
        for e in dag.edges
        if (e.source, e.target) != (i, j)
    }
    edges[(j, i)] = _against_sign(edge, dag, mode)
    for p in sorted(pa_i):
        edges.setdefault((p, j), Sign.QUESTION)
    for p in sorted(pa_j):
        edges.setdefault((p, i), Sign.QUESTION)
    new_edges = tuple(
        SignedEdge(src, dst, sign) for (src, dst), sign in edges.items()
    )
    return Qpn(SignedDag(dag.variables, new_edges))


def _has_other_path(dag: SignedDag, i: str, j: str) -> bool:
    """Directed path from i to j not using the direct edge."""
    return any(j in dag.descendants(c) for c in dag.children(i) - {j})


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


def _edge_list(qpn: Qpn) -> tuple[tuple[str, str, str], ...]:
    return tuple((e.source, e.target, e.sign.value) for e in qpn.edges)


def _remove_node(qpn: Qpn, v: str) -> Qpn:
    variables = tuple(s for s in qpn.variables if s.name != v)
    edges = tuple(e for e in qpn.edges if v not in (e.source, e.target))
    return Qpn(SignedDag(variables, edges))


def query(
    qpn: Qpn, decision: str, target: str, mode: Mode = Mode.SOUND
) -> QueryResult:
    """Direction of influence of a decision variable on a target.

    Applies barren-node deletion, reductions and reversals until a
    direct decision->target edge exists.  Deterministic strategy:
    earliest-topological barren sink first, then the lowest-index
    reducible node, then the legal reversal nearest the target.
    """
    dag = qpn.dag
    dag._require(decision, target)
    if decision == target:
        raise UnknownVariable("query endpoints must differ")
    if dag.d_separated(decision, target):
        return QueryResult(Sign.ZERO, ())

    current = qpn
    transcript: list[QueryStep] = []
    max_steps = 4 * len(dag.names) ** 2 + 8
    for _ in range(max_steps):
        direct = current.dag.edge_between(decision, target)
        if direct is not None:
            return QueryResult(direct.sign, tuple(transcript))

        topo = current.dag.topological_order()
        keep = {decision, target}
        sink = next(
            (
                v
                for v in topo
                if v not in keep and not current.dag.children(v)
            ),
            None,
        )
        if sink is not None:
            current = _remove_node(current, sink)
            transcript.append(QueryStep("barren", (sink,), _edge_list(current)))
            continue

        reducible = next(
            (
                v
                for v in topo
                if v not in keep and len(current.dag.parents(v)) <= 1
            ),
            None,
        )
        if reducible is not None:
            current = reduce_vertex(current, reducible)
            transcript.append(
                QueryStep("reduce", (reducible,), _edge_list(current))
            )
            continue

        reversal = _pick_reversal(current.dag, target)
        if reversal is None:
            raise Stuck(
                f"no applicable operation while querying {decision}->{target}",
                residual=current,
            )
        current = reverse_edge(current, reversal.source, reversal.target, mode)
        transcript.append(
            QueryStep(
                "reverse",
                (reversal.source, reversal.target),
                _edge_list(current),
            )
        )
    raise Stuck(
        f"query {decision}->{target} did not converge in {max_steps} steps",
        residual=current,
    )


def _undirected_distances(dag: SignedDag, target: str) -> dict[str, int]:
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in dag.parents(node) | dag.children(node):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def _pick_reversal(dag: SignedDag, target: str):
    """Legal reversal of an edge oriented away from the target, choosing
    the one whose tail is closest to the target (declaration order ties)."""
    dist = _undirected_distances(dag, target)
    best = None
    best_key = None
    for e in dag.edges:
        d_src = dist.get(e.source)
        d_dst = dist.get(e.target)
        if d_src is None or d_dst is None or d_dst <= d_src:
            continue
        if _has_other_path(dag, e.source, e.target):
            continue
        key = (d_src, d_dst)
        if best_key is None or key < best_key:
            best, best_key = e, key
    return best
