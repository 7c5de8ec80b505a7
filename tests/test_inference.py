import collections
import enum
import itertools
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpnet.dependence import MEETS, VERDICTS, Verdict, influence_sign
from qpnet.dist import JointTable, VariableSpec
from qpnet.errors import (
    BadEvidenceSign,
    NoSuchEdge,
    QpnError,
    Stuck,
    TooManyParents,
    UnknownVariable,
    WouldCreateCycle,
)
from qpnet.graph import SignedDag, SignedEdge
from qpnet.inference import (
    Mode,
    PropagationResult,
    QueryResult,
    QueryStep,
    propagate,
    query,
    reduce_vertex,
    reverse_edge,
)
from qpnet.scenarios import sample_factorized, shuttle_qpn
from qpnet.semantics import ci_deviation, satisfies_qpn
from qpnet.signs import Sign, sign_product, sign_sum


def spec(name, size=2):
    return VariableSpec(name, tuple(range(size)))


def figure1_qpn(sizes=(2, 2, 2)):
    return SignedDag(
        tuple(spec(f"X{i+1}", s) for i, s in enumerate(sizes)),
        (
            SignedEdge("X1", "X2", Sign.PLUS),
            SignedEdge("X2", "X3", Sign.MINUS),
        ),
    )


def two_node_qpn(size=3):
    return SignedDag(
        (spec("X", size), spec("Y", size)),
        (SignedEdge("X", "Y", Sign.PLUS),),
    )


class TestPropagate:
    def test_chain(self):
        result = propagate(figure1_qpn(), "X1", Sign.PLUS, Mode.CLASSICAL)
        assert result.node_signs["X2"] is Sign.PLUS
        assert result.node_signs["X3"] is Sign.MINUS

    def test_reverse_observation_classical_vs_sound(self):
        qpn = two_node_qpn(size=3)
        classical = propagate(qpn, "Y", Sign.PLUS, Mode.CLASSICAL)
        assert classical.node_signs["X"] is Sign.PLUS
        sound = propagate(qpn, "Y", Sign.PLUS, Mode.SOUND)
        assert sound.node_signs["X"] is Sign.QUESTION

    def test_reverse_observation_binary_sound_keeps_sign(self):
        qpn = two_node_qpn(size=2)
        sound = propagate(qpn, "Y", Sign.PLUS, Mode.SOUND)
        assert sound.node_signs["X"] is Sign.PLUS

    def test_shuttle_classical_matches_published_result(self):
        result = propagate(shuttle_qpn(), "HeOxTempProbe", Sign.PLUS, Mode.CLASSICAL)
        expected = {
            "HeOxTempProbe": Sign.PLUS,
            "HeOxTemp": Sign.PLUS,
            "HighOxTemp": Sign.PLUS,
            "OxTankLeak": Sign.PLUS,
            "OxPressureProbe": Sign.MINUS,
            "HeOxValveProblem": Sign.ZERO,
        }
        assert result.node_signs == expected

    def test_shuttle_sound_all_question(self):
        result = propagate(shuttle_qpn(), "HeOxTempProbe", Sign.PLUS, Mode.SOUND)
        expected = {
            "HeOxTempProbe": Sign.PLUS,
            "HeOxTemp": Sign.QUESTION,
            "HighOxTemp": Sign.QUESTION,
            "OxTankLeak": Sign.QUESTION,
            "OxPressureProbe": Sign.QUESTION,
            "HeOxValveProblem": Sign.ZERO,
        }
        assert result.node_signs == expected

    def test_bad_evidence_sign(self):
        with pytest.raises(BadEvidenceSign):
            propagate(figure1_qpn(), "X1", Sign.QUESTION)

    def test_zero_exactly_on_d_separated_nodes(self):
        qpn = shuttle_qpn()
        result = propagate(qpn, "HeOxTempProbe", Sign.PLUS, Mode.CLASSICAL)
        for node, sign in result.node_signs.items():
            if node == "HeOxTempProbe":
                continue
            separated = qpn.d_separated("HeOxTempProbe", node)
            assert (sign is Sign.ZERO) == separated

    def test_node_signs_consistent_with_trail_log(self):
        result = propagate(shuttle_qpn(), "HeOxTempProbe", Sign.PLUS, Mode.SOUND)
        for node, entries in result.trail_log.items():
            if node == result.evidence_node:
                continue
            total = Sign.ZERO
            for _, sign in entries:
                total = sign_sum(total, sign)
            assert result.node_signs[node] is total


class TestReduce:
    def test_chain_reduce_middle(self):
        reduced = reduce_vertex(figure1_qpn(), "X2")
        [edge] = reduced.edges
        assert (edge.source, edge.target, edge.sign) == ("X1", "X3", Sign.MINUS)

    def test_isolated_node(self):
        qpn = SignedDag((spec("A"), spec("B")), ())
        reduced = reduce_vertex(qpn, "A")
        assert reduced.names == ("B",)
        assert reduced.edges == ()

    def test_fork_adds_question_edge_between_children(self):
        qpn = SignedDag(
            (spec("P"), spec("V"), spec("C1"), spec("C2")),
            (
                SignedEdge("P", "V", Sign.PLUS),
                SignedEdge("V", "C1", Sign.PLUS),
                SignedEdge("V", "C2", Sign.PLUS),
            ),
        )
        reduced = reduce_vertex(qpn, "V")
        edges = {(e.source, e.target): e.sign for e in reduced.edges}
        assert edges == {
            ("P", "C1"): Sign.PLUS,
            ("P", "C2"): Sign.PLUS,
            ("C1", "C2"): Sign.QUESTION,
        }

    def test_fork_children_really_are_dependent_given_parent(self):
        # justification for the '?' edge: after marginalizing the shared
        # parent, the children are conditionally dependent given P
        qpn = SignedDag(
            (spec("P"), spec("V"), spec("C1"), spec("C2")),
            (
                SignedEdge("P", "V", Sign.PLUS),
                SignedEdge("V", "C1", Sign.PLUS),
                SignedEdge("V", "C2", Sign.PLUS),
            ),
        )
        rng = np.random.default_rng(13)
        table = sample_factorized(qpn, rng)
        assert ci_deviation(table, "C1", ("C2",), ("P",)) > 1e-4

    def test_merging_with_existing_parallel_edge(self):
        qpn = SignedDag(
            (spec("P"), spec("V"), spec("C")),
            (
                SignedEdge("P", "V", Sign.PLUS),
                SignedEdge("V", "C", Sign.MINUS),
                SignedEdge("P", "C", Sign.PLUS),
            ),
        )
        reduced = reduce_vertex(qpn, "V")
        [edge] = reduced.edges
        # existing + merged with chained (+ x -) = - gives ?
        assert edge.sign is Sign.QUESTION

    def test_too_many_parents(self):
        qpn = SignedDag(
            (spec("A"), spec("B"), spec("V")),
            (
                SignedEdge("A", "V", Sign.PLUS),
                SignedEdge("B", "V", Sign.PLUS),
            ),
        )
        with pytest.raises(TooManyParents):
            reduce_vertex(qpn, "V")


class TestReverse:
    def test_classical_keeps_sign(self):
        reversed_ = reverse_edge(two_node_qpn(3), "X", "Y", Mode.CLASSICAL)
        [edge] = reversed_.edges
        assert (edge.source, edge.target, edge.sign) == ("Y", "X", Sign.PLUS)

    def test_sound_nonbinary_becomes_question(self):
        reversed_ = reverse_edge(two_node_qpn(3), "X", "Y", Mode.SOUND)
        [edge] = reversed_.edges
        assert edge.sign is Sign.QUESTION

    def test_sound_binary_keeps_sign(self):
        reversed_ = reverse_edge(two_node_qpn(2), "X", "Y", Mode.SOUND)
        [edge] = reversed_.edges
        assert edge.sign is Sign.PLUS

    def test_parent_inheritance(self):
        qpn = SignedDag(
            (spec("A"), spec("I"), spec("B"), spec("J")),
            (
                SignedEdge("A", "I", Sign.PLUS),
                SignedEdge("I", "J", Sign.PLUS),
                SignedEdge("B", "J", Sign.MINUS),
            ),
        )
        reversed_ = reverse_edge(qpn, "I", "J", Mode.CLASSICAL)
        edges = {(e.source, e.target): e.sign for e in reversed_.edges}
        assert edges[("J", "I")] is Sign.PLUS
        assert edges[("A", "J")] is Sign.QUESTION  # J inherits I's parent
        assert edges[("B", "I")] is Sign.QUESTION  # I inherits J's other parent
        assert edges[("A", "I")] is Sign.PLUS
        assert edges[("B", "J")] is Sign.MINUS

    def test_no_such_edge(self):
        with pytest.raises(NoSuchEdge):
            reverse_edge(two_node_qpn(), "Y", "X")

    def test_would_create_cycle(self):
        qpn = SignedDag(
            (spec("A"), spec("B"), spec("C")),
            (
                SignedEdge("A", "B", Sign.PLUS),
                SignedEdge("B", "C", Sign.PLUS),
                SignedEdge("A", "C", Sign.PLUS),
            ),
        )
        with pytest.raises(WouldCreateCycle):
            reverse_edge(qpn, "A", "C")


class TestQuery:
    def test_chain_query_reduces(self):
        result = query(figure1_qpn(), "X1", "X3", Mode.CLASSICAL)
        assert result.sign is Sign.MINUS
        assert [s.operation for s in result.transcript] == ["reduce"]
        assert result.transcript[0].arguments == ("X2",)

    def test_two_node_reverse_classical(self):
        result = query(two_node_qpn(3), "Y", "X", Mode.CLASSICAL)
        assert result.sign is Sign.PLUS

    def test_two_node_reverse_sound_ternary(self):
        result = query(two_node_qpn(3), "Y", "X", Mode.SOUND)
        assert result.sign is Sign.QUESTION

    def test_two_node_reverse_sound_binary(self):
        result = query(two_node_qpn(2), "Y", "X", Mode.SOUND)
        assert result.sign is Sign.PLUS

    def test_d_separated_gives_zero(self):
        qpn = SignedDag((spec("A"), spec("B")), ())
        result = query(qpn, "A", "B")
        assert result.sign is Sign.ZERO
        assert result.transcript == ()

    def test_equal_endpoints_raise_qpn_error(self):
        # the class d_separated and active_trails raise for equal endpoints;
        # the variable exists, so UnknownVariable would be wrong
        with pytest.raises(QpnError, match="^query endpoints must differ$") as caught:
            query(figure1_qpn(), "X2", "X2")
        assert type(caught.value) is QpnError

    def test_shuttle_temp_to_pressure(self):
        result = query(shuttle_qpn(), "HeOxTemp", "OxPressureProbe", Mode.CLASSICAL)
        assert result.sign is Sign.MINUS


SOUND_ORDER = {Sign.ZERO: 0, Sign.PLUS: 1, Sign.MINUS: 1, Sign.QUESTION: 2}


def random_qpn(rng, n=5):
    names = [f"N{i}" for i in range(n)]
    variables = tuple(
        VariableSpec(nm, tuple(range(int(rng.integers(2, 4))))) for nm in names
    )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                sign = [Sign.PLUS, Sign.MINUS][int(rng.integers(2))]
                edges.append(SignedEdge(names[i], names[j], sign))
    return SignedDag(variables, tuple(edges))


def test_sound_never_more_informative_than_classical():
    rng = np.random.default_rng(41)
    for _ in range(30):
        qpn = random_qpn(rng)
        observed = qpn.names[int(rng.integers(len(qpn.names)))]
        classical = propagate(qpn, observed, Sign.PLUS, Mode.CLASSICAL)
        sound = propagate(qpn, observed, Sign.PLUS, Mode.SOUND)
        for node in qpn.names:
            merged = sign_sum(classical.node_signs[node], sound.node_signs[node])
            assert merged is sound.node_signs[node]


def test_modes_agree_when_all_against_steps_are_binary():
    qpn = figure1_qpn(sizes=(2, 2, 2))
    classical = propagate(qpn, "X3", Sign.PLUS, Mode.CLASSICAL)
    sound = propagate(qpn, "X3", Sign.PLUS, Mode.SOUND)
    assert classical.node_signs == sound.node_signs


def monotone_chain_table(rng, sizes=(3, 3, 3)):
    """Random chain-factorized joint whose conditionals are FSD-monotone
    in the parent, so it satisfies X1-+->X2-+->X3."""
    specs = tuple(spec(f"X{i+1}", s) for i, s in enumerate(sizes))

    def monotone_conditional(n_par, n_child):
        cdf = np.sort(rng.random(size=(n_par, n_child - 1)), axis=1)
        cdf = np.minimum.accumulate(cdf, axis=0)  # higher parent: lower cdf
        full = np.hstack([cdf, np.ones((n_par, 1))])
        pmf = np.diff(np.hstack([np.zeros((n_par, 1)), full]), axis=1)
        return pmf

    p1 = rng.dirichlet(np.ones(sizes[0]))
    c2 = monotone_conditional(sizes[0], sizes[1])
    c3 = monotone_conditional(sizes[1], sizes[2])
    joint = p1[:, None, None] * c2[:, :, None] * c3[None, :, :]
    return JointTable(specs, joint)


def test_forward_chain_fsd_composes():
    rng = np.random.default_rng(47)
    qpn = SignedDag(
        tuple(spec(f"X{i+1}", 3) for i in range(3)),
        (
            SignedEdge("X1", "X2", Sign.PLUS),
            SignedEdge("X2", "X3", Sign.PLUS),
        ),
    )
    for _ in range(25):
        table = monotone_chain_table(rng)
        assert satisfies_qpn(table, qpn).satisfied
        verdict = influence_sign(table, "X1", "X3").verdict
        assert verdict in (Verdict.POSITIVE, Verdict.ZERO)


def test_sound_signs_numerically_valid_on_binary_chain():
    # On a binary chain, sound-mode propagation from the sink yields
    # concrete signs; check them against the influence of the sink on each
    # node in random satisfying distributions.
    rng = np.random.default_rng(53)
    qpn = figure1_qpn(sizes=(2, 2, 2))  # X1 -+-> X2 --> X3 negative
    result = propagate(qpn, "X3", Sign.PLUS, Mode.SOUND)
    assert result.node_signs["X2"] is Sign.MINUS
    assert result.node_signs["X1"] is Sign.MINUS
    for _ in range(50):
        table = sample_factorized(qpn, rng)
        if not satisfies_qpn(table, qpn).satisfied:
            continue
        for node, sign in result.node_signs.items():
            if node != "X3" and sign in MEETS:
                verdict = influence_sign(table, "X3", node).verdict
                assert MEETS[sign][VERDICTS.index(verdict)], (node, sign, verdict)


# ---- sound mode against satisfying distributions --------------------------

# influence verdicts that leave a propagated answer standing
_UPHOLDS = {
    Sign.PLUS: (Verdict.POSITIVE, Verdict.ZERO),
    Sign.MINUS: (Verdict.NEGATIVE, Verdict.ZERO),
    Sign.ZERO: (Verdict.ZERO,),
}


def signed_qpn(pick):
    """A QPN of 2-5 variables of 2-4 levels, declared in name order, with
    edges signed '+', '-' or '?' along a random topological order;
    ``pick(lo, hi)`` returns an integer in [lo, hi]."""
    n = pick(2, 5)
    order = list(range(n))
    for k in range(n - 1, 0, -1):
        j = pick(0, k)
        order[k], order[j] = order[j], order[k]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            sign = (None, None, None, Sign.PLUS, Sign.MINUS, Sign.QUESTION)[pick(0, 5)]
            if sign is not None:
                edges.append(SignedEdge(f"N{order[a]}", f"N{order[b]}", sign))
    variables = tuple(VariableSpec(f"N{k}", tuple(range(pick(2, 4)))) for k in range(n))
    return SignedDag(variables, tuple(edges))


def refuted_answers(qpn, table, evidence, mode):
    """(answers other than '?', answers the table refutes) for '+' evidence
    propagated in ``mode``."""
    answers = refuted = 0
    for node, sign in propagate(qpn, evidence, Sign.PLUS, mode).node_signs.items():
        if node == evidence or sign is Sign.QUESTION:
            continue
        answers += 1
        refuted += influence_sign(table, evidence, node).verdict not in _UPHOLDS[sign]
    return answers, refuted


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sound_mode_is_never_refuted(data, seed):
    qpn = signed_qpn(lambda lo, hi: data.draw(st.integers(lo, hi)))
    names = qpn.names
    evidence = names[data.draw(st.integers(0, len(names) - 1))]
    table = sample_factorized(qpn, np.random.default_rng(seed))
    assert satisfies_qpn(table, qpn).satisfied
    assert refuted_answers(qpn, table, evidence, Mode.SOUND)[1] == 0


def test_classical_mode_is_refuted_and_sound_mode_is_not():
    # the paper's headline, measured: over four satisfying distributions
    # of each of 300 random QPNs, sound mode's answers always hold and classical mode's
    # against-edge answers sometimes fail
    rng = np.random.default_rng(2022)
    counts = {mode: [0, 0] for mode in Mode}
    for _ in range(300):
        qpn = signed_qpn(lambda lo, hi: int(rng.integers(lo, hi + 1)))
        evidence = qpn.names[int(rng.integers(len(qpn.names)))]
        for _ in range(4):
            table = sample_factorized(qpn, rng)
            for mode in Mode:
                answers, refuted = refuted_answers(qpn, table, evidence, mode)
                counts[mode][0] += answers
                counts[mode][1] += refuted
    (sound, sound_refuted), (classical, classical_refuted) = counts[Mode.SOUND], counts[Mode.CLASSICAL]
    assert sound_refuted == 0
    assert classical_refuted > 0
    print(f"headline asymmetry: PASS (sound: 0 of {sound} answers refuted; classical: "
          f"{classical_refuted} of {classical} refuted, {classical_refuted / classical:.1%})")



# ---- differential: derived successor DAGs against rebuilt ones -------------
#
# reduce_vertex, reverse_edge and query (with their helpers) as they were
# when every step rebuilt each SignedEdge from a (source, target) -> Sign
# map.  Kept verbatim apart from the ``_ref_`` names, as oracles for the
# versions that carry the input's edges over.

def _ref_against_sign(edge: SignedEdge, dag: SignedDag, mode: Mode) -> Sign:
    """The sign of ``edge`` read against its direction: kept in classical
    mode, which assumes influence symmetry; in sound mode kept only when
    both endpoints are binary, where symmetry holds, and '?' otherwise."""
    if mode is Mode.CLASSICAL:
        return edge.sign
    if dag.variable(edge.source).is_binary and dag.variable(edge.target).is_binary:
        return edge.sign
    return Sign.QUESTION


def _ref_reduce_vertex(dag: SignedDag, v: str) -> SignedDag:
    """Remove a vertex with at most one parent, rewiring its influence.

    The parent gains an edge to each child whose sign is the chained
    product, merged with any existing parallel edge.  Former co-children
    of v become dependent once their shared parent is marginalized out,
    so any missing edge between them is added as '?' in topological
    order.
    """
    dag._require(v)
    pars = sorted(dag.parents(v))
    if len(pars) > 1:
        raise TooManyParents(f"{v!r} has parents {pars}; reduction needs at most one")
    parent = pars[0] if pars else None
    children = sorted(dag._children[v])

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
    topo_index = {n: k for k, n in enumerate(dag._order)}
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
    return SignedDag(variables, new_edges)


def _ref_reverse_edge(
    dag: SignedDag, i: str, j: str, mode: Mode = Mode.SOUND
) -> SignedDag:
    """Arc reversal preserving an independence map.

    The reversed edge takes the sign of the old one read against its
    direction, as ``propagate`` reads a trail step.  Each endpoint inherits
    the other's former parents, all inherited edges signed '?'.
    """
    edge = dag.edge_between(i, j)
    if edge is None:
        raise NoSuchEdge(f"no edge {i}->{j}")
    if _ref_has_other_path(dag, i, j):
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
    edges[(j, i)] = _ref_against_sign(edge, dag, mode)
    for p in sorted(pa_i):
        edges.setdefault((p, j), Sign.QUESTION)
    for p in sorted(pa_j):
        edges.setdefault((p, i), Sign.QUESTION)
    new_edges = tuple(
        SignedEdge(src, dst, sign) for (src, dst), sign in edges.items()
    )
    return SignedDag(dag.variables, new_edges)


def _ref_has_other_path(dag: SignedDag, i: str, j: str) -> bool:
    """Directed path from i to j not using the direct edge."""
    return any(j in dag.descendants(c) for c in dag._children[i] - {j})


def _ref_edge_list(dag: SignedDag) -> tuple[tuple[str, str, str], ...]:
    return tuple((e.source, e.target, e.sign.value) for e in dag.edges)


def _ref_remove_node(dag: SignedDag, v: str) -> SignedDag:
    variables = tuple(s for s in dag.variables if s.name != v)
    edges = tuple(e for e in dag.edges if v not in (e.source, e.target))
    return SignedDag(variables, edges)


def _ref_query(
    dag: SignedDag, decision: str, target: str, mode: Mode = Mode.SOUND
) -> QueryResult:
    """Direction of influence of a decision variable on a target.

    Applies barren-node deletion, reductions and reversals until a
    direct decision->target edge exists.  Deterministic strategy:
    earliest-topological barren sink first, then the lowest-index
    reducible node, then the legal reversal nearest the target.
    """
    dag._require(decision, target)
    if decision == target:
        raise UnknownVariable("query endpoints must differ")
    if dag.d_separated(decision, target):
        return QueryResult(Sign.ZERO, ())

    current = dag
    transcript: list[QueryStep] = []
    max_steps = 4 * len(dag.names) ** 2 + 8
    for _ in range(max_steps):
        direct = current.edge_between(decision, target)
        if direct is not None:
            return QueryResult(direct.sign, tuple(transcript))

        topo = current._order
        keep = {decision, target}
        sink = next(
            (
                v
                for v in topo
                if v not in keep and not current._children[v]
            ),
            None,
        )
        if sink is not None:
            current = _ref_remove_node(current, sink)
            transcript.append(QueryStep("barren", (sink,), _ref_edge_list(current)))
            continue

        reducible = next(
            (
                v
                for v in topo
                if v not in keep and len(current.parents(v)) <= 1
            ),
            None,
        )
        if reducible is not None:
            current = _ref_reduce_vertex(current, reducible)
            transcript.append(
                QueryStep("reduce", (reducible,), _ref_edge_list(current))
            )
            continue

        reversal = _ref_pick_reversal(current, target)
        if reversal is None:
            raise Stuck(f"no applicable operation while querying {decision}->{target}")
        current = _ref_reverse_edge(current, reversal.source, reversal.target, mode)
        transcript.append(
            QueryStep(
                "reverse",
                (reversal.source, reversal.target),
                _ref_edge_list(current),
            )
        )
    raise Stuck(f"query {decision}->{target} did not converge in {max_steps} steps")


def _ref_undirected_distances(dag: SignedDag, target: str) -> dict[str, int]:
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


def _ref_pick_reversal(dag: SignedDag, target: str):
    """Legal reversal of an edge oriented away from the target, choosing
    the one whose tail is closest to the target (declaration order ties)."""
    dist = _ref_undirected_distances(dag, target)
    best = None
    best_key = None
    for e in dag.edges:
        d_src = dist.get(e.source)
        d_dst = dist.get(e.target)
        if d_src is None or d_dst is None or d_dst <= d_src:
            continue
        if _ref_has_other_path(dag, e.source, e.target):
            continue
        key = (d_src, d_dst)
        if best_key is None or key < best_key:
            best, best_key = e, key
    return best


SIGNS = (Sign.PLUS, Sign.MINUS, Sign.QUESTION)


def shuffled_qpn(rng, density=0.5):
    """A QPN of 3-8 variables of 2-3 levels, declared in name order, whose
    edges follow a random topological order and are listed shuffled; each
    ordered pair has an edge with probability ``density``."""
    n = int(rng.integers(3, 9))
    order = rng.permutation(n)
    edges = [
        SignedEdge(f"N{order[a]}", f"N{order[b]}", SIGNS[int(rng.integers(3))])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    variables = tuple(VariableSpec(f"N{k}", tuple(range(int(rng.integers(2, 4))))) for k in range(n))
    return SignedDag(variables, tuple(edges))


def outcome_bytes(call) -> str:
    try:
        return json.dumps(call().to_jsonable())
    except QpnError as exc:
        return f"{type(exc).__name__}: {exc}"


def structure(dag):
    return (
        json.dumps(dag.to_jsonable()),
        {n: dag.parents(n) for n in dag.names},
        {n: set(dag._children[n]) for n in dag.names},
        dag._order,
        {(a, b): dag.edge_between(a, b) for a in dag.names for b in dag.names},
    )


def test_successor_dags_match_rebuilt_ones():
    rng = np.random.default_rng(1993)
    seen = collections.Counter()
    for _ in range(200):
        qpn = shuffled_qpn(rng)
        names = qpn.names
        before = structure(qpn)
        calls = [(reduce_vertex, _ref_reduce_vertex, (v,)) for v in names]
        calls += [
            (reverse_edge, _ref_reverse_edge, (e.source, e.target, mode))
            for e in qpn.edges
            for mode in Mode
        ]
        for _ in range(3):
            a, b = rng.choice(len(names), 2, replace=False)
            calls += [(query, _ref_query, (names[a], names[b], mode)) for mode in Mode]
        for new, ref, args in calls:
            got = outcome_bytes(lambda: new(qpn, *args))
            assert got == outcome_bytes(lambda: ref(qpn, *args)), (new.__name__, args)
            assert structure(qpn) == before, (new.__name__, args)
            if not got.startswith("{"):
                seen[(new.__name__, got.split(":")[0])] += 1
            elif new is query:
                for step in json.loads(got)["transcript"]:
                    seen[("query", step["operation"])] += 1
            else:
                seen[(new.__name__, "ok")] += 1
                # an edge whose endpoints and sign did not change is the input's own
                kept = {(e.source, e.target, e.sign): e for e in qpn.edges}
                for e in new(qpn, *args).edges:
                    assert kept.get((e.source, e.target, e.sign), e) is e
    for key in (("reduce_vertex", "ok"), ("reduce_vertex", "TooManyParents"),
                ("reverse_edge", "ok"), ("reverse_edge", "WouldCreateCycle"),
                ("query", "barren"), ("query", "reduce"), ("query", "reverse")):
        assert seen[key] > 0, (key, seen)


# ---- differential: trails as node paths against per-hop step records --------
#
# active_trails (with _as_trail and _trail_active) and propagate as they were
# when a Trail carried one TrailStep per hop, with the hop's edge and its
# Direction.  Kept verbatim apart from the ``_ref_`` names, ``self``
# becoming ``dag`` and ``_ref_propagate`` logging each trail's node path,
# as oracles for the versions that read each hop's edge from the DAG's
# edge index.

class _RefDirection(enum.Enum):
    WITH_EDGE = "with"
    AGAINST_EDGE = "against"


@dataclass(frozen=True)
class _RefTrailStep:
    edge: SignedEdge
    direction: _RefDirection


@dataclass(frozen=True)
class _RefTrail:
    """Simple undirected path through the DAG, with per-hop edge records."""

    nodes: tuple[str, ...]
    steps: tuple[_RefTrailStep, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.steps) + 1:
            raise QpnError("trail must have one more node than steps")
        if len(set(self.nodes)) != len(self.nodes):
            raise QpnError("trail nodes must be distinct")


def _ref_active_trails(
    dag: SignedDag, from_: str, to: str, given: Iterable[str] = ()
) -> list[_RefTrail]:
    """All active simple trails between two nodes, lexicographic order."""
    given = set(given)
    dag._require(from_, to, *given)
    if from_ == to:
        raise QpnError("active_trails: endpoints must differ")

    trails: list[_RefTrail] = []

    def extend(path: list[str]):
        node = path[-1]
        if node == to:
            trail = _ref_as_trail(dag, path)
            if _ref_trail_active(dag, trail, given):
                trails.append(trail)
            return
        for nb in sorted(dag._parents[node] | dag._children[node]):
            if nb not in path:
                extend(path + [nb])

    extend([from_])
    trails.sort(key=lambda t: t.nodes)
    return trails


def _ref_as_trail(dag: SignedDag, path: list[str]) -> _RefTrail:
    steps = []
    for u, v in zip(path, path[1:]):
        edge = dag.edge_between(u, v)
        if edge is not None:
            steps.append(_RefTrailStep(edge, _RefDirection.WITH_EDGE))
        else:
            steps.append(_RefTrailStep(dag.edge_between(v, u), _RefDirection.AGAINST_EDGE))
    return _RefTrail(tuple(path), tuple(steps))


def _ref_trail_active(dag: SignedDag, trail: _RefTrail, given: set[str]) -> bool:
    for k in range(1, len(trail.nodes) - 1):
        node = trail.nodes[k]
        into_prev = trail.steps[k - 1].direction is _RefDirection.WITH_EDGE
        into_next = trail.steps[k].direction is _RefDirection.AGAINST_EDGE
        collider = into_prev and into_next
        if collider:
            if node not in given and not (dag.descendants(node) & given):
                return False
        else:
            if node in given:
                return False
    return True


def _ref_propagate(
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

    node_signs: dict[str, Sign] = {observed: obs_sign}
    trail_log: dict[str, list[tuple[_RefTrail, Sign]]] = {observed: []}
    for node in dag.names:
        if node == observed:
            continue
        entries: list[tuple[_RefTrail, Sign]] = []
        total = Sign.ZERO
        for trail in _ref_active_trails(dag, observed, node):
            sign = obs_sign
            for step in trail.steps:
                with_edge = step.direction is _RefDirection.WITH_EDGE
                step_sign = step.edge.sign if with_edge else _ref_against_sign(step.edge, dag, mode)
                sign = sign_product(sign, step_sign)
            entries.append((trail.nodes, sign))
            total = sign_sum(total, sign)
        node_signs[node] = total
        trail_log[node] = entries
    return PropagationResult(node_signs, observed, obs_sign, mode, trail_log)


def test_node_path_trails_match_step_records():
    # sparser than the successor-DAG test's networks: every pair and every
    # conditioning set of size 0-2 is enumerated, and the number of simple
    # trails grows fast with the edge density
    rng = np.random.default_rng(2012)
    seen = collections.Counter()
    for _ in range(200):
        qpn = shuffled_qpn(rng, density=0.3)
        dag = qpn
        names = dag.names
        for observed in names:
            for mode in Mode:
                for sign in (Sign.PLUS, Sign.MINUS):
                    got = propagate(qpn, observed, sign, mode).to_jsonable()
                    assert got == _ref_propagate(qpn, observed, sign, mode).to_jsonable()
                    seen["propagated trails"] += sum(map(len, got["trails"].values()))
                    seen["'?' signs"] += list(got["node_signs"].values()).count("?")
        for a, b in itertools.combinations(names, 2):
            others = [n for n in names if n not in (a, b)]
            for size in range(3):
                for given in itertools.combinations(others, size):
                    got = dag.active_trails(a, b, given)
                    assert got == [t.nodes for t in _ref_active_trails(dag, a, b, given)]
                    seen[f"trails given {size}"] += len(got)
                    # a trail through a collider is active only by what is given
                    seen["collider trails"] += size and sum(
                        any((u, v) in dag._edge_index and (w, v) in dag._edge_index
                            for u, v, w in zip(t, t[1:], t[2:]))
                        for t in got
                    )
    for key in ("propagated trails", "'?' signs", "trails given 0", "trails given 1",
                "trails given 2", "collider trails"):
        assert seen[key] > 0, (key, seen)
