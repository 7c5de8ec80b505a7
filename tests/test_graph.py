import gc
import itertools
import sys

import numpy as np
import pytest

from qpnet.dist import VariableSpec
from qpnet.errors import (
    CycleDetected,
    DuplicateVariable,
    OverlappingSets,
    QpnError,
    UnknownVariable,
)
from qpnet.graph import Qpn, SignedDag, SignedEdge
from qpnet.inference import propagate
from qpnet.scenarios import sample_factorized, shuttle_qpn
from qpnet.semantics import EPS_CI, ci_deviation
from qpnet.signs import Sign
from test_inference import _ref_active_trails


def spec(name, size=2):
    return VariableSpec(name, tuple(range(size)))


def chain_qpn():
    # X1 -+-> X2 ---> X3 with a negative second edge
    return SignedDag(
        (spec("X1"), spec("X2"), spec("X3")),
        (
            SignedEdge("X1", "X2", Sign.PLUS),
            SignedEdge("X2", "X3", Sign.MINUS),
        ),
    )


class TestStructure:
    def test_parents_chain(self):
        assert chain_qpn().parents("X2") == {"X1"}

    def test_parents_shuttle(self):
        dag = shuttle_qpn()
        assert dag.parents("OxPressureProbe") == {"OxTankLeak", "HeOxValveProblem"}

    def test_root_has_no_parents(self):
        assert chain_qpn().parents("X1") == set()

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            chain_qpn().parents("nope")

    def test_no_self_loop(self):
        with pytest.raises(QpnError):
            SignedEdge("A", "A", Sign.PLUS)

    def test_no_zero_edge(self):
        with pytest.raises(QpnError):
            SignedEdge("A", "B", Sign.ZERO)

    def test_edge_to_undeclared_variable_rejected(self):
        with pytest.raises(UnknownVariable, match="'C' not declared"):
            SignedDag((spec("A"), spec("B")), (SignedEdge("A", "C", Sign.PLUS),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateVariable):
            SignedDag(
                (spec("A"), spec("B")),
                (SignedEdge("A", "B", Sign.PLUS), SignedEdge("A", "B", Sign.MINUS)),
            )


@pytest.mark.parametrize(
    "names, edges, error, message",
    [
        ("AB", ["CB+"], UnknownVariable, "edge endpoint 'C' not declared"),
        ("AB", ["AC+"], UnknownVariable, "edge endpoint 'C' not declared"),
        ("AB", ["AB+", "AB-"], DuplicateVariable, "duplicate edge A->B"),
        ("ABA", [], DuplicateVariable, "duplicate variable names in ['A', 'B', 'A']"),
        ("ABC", ["AB+", "BC+", "CA-"], CycleDetected, "edge list contains a directed cycle"),
        # precedence: the source before the target, edge by edge, every
        # edge before the cycle check, and names before any edge
        ("AB", ["XY+"], UnknownVariable, "edge endpoint 'X' not declared"),
        ("AB", ["AB+", "AB+", "AC+"], DuplicateVariable, "duplicate edge A->B"),
        ("AB", ["AB+", "BA+", "BC+"], UnknownVariable, "edge endpoint 'C' not declared"),
        ("AA", ["AC+"], DuplicateVariable, "duplicate variable names in ['A', 'A']"),
    ],
    ids=[
        "unknown-source", "unknown-target", "repeated-edge", "duplicate-name", "cycle",
        "both-unknown-names-source", "repeat-before-unknown", "unknown-in-cycle",
        "duplicate-name-before-unknown",
    ],
)
def test_constructor_error_contract(names, edges, error, message):
    # one letter per name; an edge is its source, target and sign
    variables = tuple(spec(n) for n in names)
    with pytest.raises(QpnError) as info:
        SignedDag(variables, tuple(SignedEdge(s, t, Sign(g)) for s, t, g in edges))
    assert (type(info.value), str(info.value)) == (error, message)


class TestTopologicalOrder:
    """``_order``, computed on first read (at once by the constructor,
    which thus rejects a cycle); its tie-break fixes ``query``'s
    transcript."""

    def test_chain(self):
        assert chain_qpn()._order == ("X1", "X2", "X3")

    def test_declaration_order_tiebreak(self):
        dag = SignedDag((spec("B"), spec("A")), ())
        assert dag._order == ("B", "A")

    def test_tiebreak_among_nodes_released_later(self):
        # D and B become ready together once A is placed; D was declared first
        dag = SignedDag(
            (spec("D"), spec("C"), spec("B"), spec("A")),
            (SignedEdge("A", "B", Sign.PLUS), SignedEdge("A", "D", Sign.PLUS)),
        )
        assert dag._order == ("C", "A", "D", "B")

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            SignedDag(
                (spec("A"), spec("B")),
                (SignedEdge("A", "B", Sign.PLUS), SignedEdge("B", "A", Sign.PLUS)),
            )


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        assert chain_qpn().d_separated("X1", "X3", {"X2"})
        assert not chain_qpn().d_separated("X1", "X3")

    def test_collider(self):
        dag = SignedDag(
            (spec("L"), spec("R"), spec("V")),
            (SignedEdge("L", "R", Sign.PLUS), SignedEdge("V", "R", Sign.PLUS)),
        )
        assert dag.d_separated("L", "V")
        assert not dag.d_separated("L", "V", {"R"})

    def test_collider_descendant_opens(self):
        dag = SignedDag(
            (spec("L"), spec("R"), spec("V"), spec("D")),
            (
                SignedEdge("L", "R", Sign.PLUS),
                SignedEdge("V", "R", Sign.PLUS),
                SignedEdge("R", "D", Sign.PLUS),
            ),
        )
        assert not dag.d_separated("L", "V", {"D"})

    def test_shuttle_probe_vs_valve(self):
        dag = shuttle_qpn()
        assert dag.d_separated("HeOxTempProbe", "HeOxValveProblem")

    def test_symmetric(self):
        dag = shuttle_qpn()
        names = dag.names
        for a, b in itertools.combinations(names, 2):
            for given in ({}, {"OxTankLeak"}):
                cond = set(given) - {a, b}
                assert dag.d_separated(a, b, cond) == dag.d_separated(b, a, cond)

    def test_overlapping_sets(self):
        dag = chain_qpn()
        for a, b in (("X1", "X3"), ("X3", "X1")):
            with pytest.raises(OverlappingSets):
                dag.d_separated(a, b, {"X1"})

    def test_endpoints_must_differ(self):
        dag = chain_qpn()
        with pytest.raises(QpnError, match="endpoints must differ"):
            dag.d_separated("X1", "X1", set())
        with pytest.raises(QpnError, match="endpoints must differ"):
            dag.active_trails("X1", "X1")


class TestActiveTrails:
    def test_chain_single_trail(self):
        trails = chain_qpn().active_trails("X1", "X3")
        assert len(trails) == 1
        nodes = trails[0]
        assert nodes == ("X1", "X2", "X3")
        # both hops run with their edges
        assert all(chain_qpn().edge_between(u, v) is not None for u, v in zip(nodes, nodes[1:]))

    def test_shuttle_probe_to_valve_empty(self):
        dag = shuttle_qpn()
        assert dag.active_trails("HeOxTempProbe", "HeOxValveProblem") == []

    def test_single_edge_trail(self):
        dag = chain_qpn()
        trails = dag.active_trails("X1", "X2")
        assert len(trails) == 1
        assert dag.edge_between(*trails[0]) is not None

    def test_against_edge_direction_recorded(self):
        dag = chain_qpn()
        trails = dag.active_trails("X2", "X1")
        assert trails[0] == ("X2", "X1")
        # the hop runs against the edge X1 -> X2
        assert dag.edge_between(*trails[0]) is None
        assert dag.edge_between(*reversed(trails[0])) is not None

    def test_trail_longer_than_the_recursion_limit(self):
        names = [f"C{k}" for k in range(sys.getrecursionlimit() + 100)]
        dag = SignedDag(
            tuple(spec(n, 3) for n in names),
            tuple(SignedEdge(a, b, Sign.PLUS) for a, b in zip(names, names[1:])),
        )
        assert dag.active_trails("C0", names[-1]) == [tuple(names)]

    def test_no_descendant_walks(self, monkeypatch):
        # with nothing given a collider blocks its trail, so no collider's
        # descendants are walked
        calls = []
        real = SignedDag.descendants
        monkeypatch.setattr(
            SignedDag, "descendants", lambda self, v: calls.append(v) or real(self, v)
        )
        dag = shuttle_qpn()
        for a, b in itertools.permutations(dag.names, 2):
            dag.active_trails(a, b)
        assert calls == []

    def test_no_reference_cycle_per_call(self):
        # a trail enumeration frees everything it made by reference counting
        qpn = shuttle_qpn()
        gc.collect()
        gc.disable()
        try:
            assert qpn.active_trails("HeOxTempProbe", "OxPressureProbe")
            propagate(qpn, "HeOxTempProbe", Sign.PLUS)
            assert gc.collect() == 0
        finally:
            gc.enable()


def random_dag(rng, n=5, max_support=3, density=0.45):
    names = [f"N{i}" for i in range(n)]
    variables = tuple(
        VariableSpec(nm, tuple(range(int(rng.integers(2, max_support + 1)))))
        for nm in names
    )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                sign = [Sign.PLUS, Sign.MINUS, Sign.QUESTION][int(rng.integers(3))]
                edges.append(SignedEdge(names[i], names[j], sign))
    return SignedDag(variables, tuple(edges))


def test_qpn_seam_returns_the_dag():
    # graph.Qpn and SignedDag.dag remain for callers written when a network
    # wrapped its DAG
    dag = shuttle_qpn()
    assert Qpn(dag) is dag
    assert dag.dag is dag
    for node in dag.names:
        want = propagate(dag, node, Sign.PLUS).to_jsonable()
        assert propagate(Qpn(dag), node, Sign.PLUS).to_jsonable() == want


def test_dsep_equals_no_active_trails_on_random_dags():
    # the Bayes-ball walk against trail enumeration: the test-side
    # reference for every conditioning set, active_trails for the empty one
    rng = np.random.default_rng(11)
    for _ in range(25):
        dag = random_dag(rng)
        names = dag.names
        for a, b in itertools.combinations(names, 2):
            rest = [n for n in names if n not in (a, b)]
            for r in range(len(rest) + 1):
                for given in itertools.combinations(rest, r):
                    sep = dag.d_separated(a, b, set(given))
                    assert sep == (_ref_active_trails(dag, a, b, given) == [])
                    if not given:
                        assert sep == (dag.active_trails(a, b) == [])


def _ref_d_separated(dag, a, b, given=()):
    """d_separated as it was, by the ancestral moral graph, kept as an
    oracle for the Bayes-ball walk."""
    given = set(given)
    dag._require(a, b, *given)
    if a == b:
        raise QpnError("d_separated: endpoints must differ")
    if a in given or b in given:
        raise OverlappingSets("endpoints must not be in the conditioning set")

    # the ancestral set holds every parent of its members
    relevant = {a, b} | given | dag._reachable([a, b, *given], dag._parents)
    # moralize family by family, leaving out the conditioning set
    moral: dict[str, set[str]] = {n: set() for n in relevant}
    for n in relevant:
        family = dag._parents[n] | {n}
        kept = family - given
        for m in family:
            moral[m] |= kept
    return b not in dag._reachable([a], moral)


def test_bayes_ball_matches_the_moral_graph():
    rng = np.random.default_rng(1998)
    cases = separated = 0
    for n in range(2, 13):
        for density in (0.25, 0.5):
            dag = random_dag(rng, n, max_support=2, density=density)
            for a, b in itertools.permutations(dag.names, 2):
                rest = [v for v in dag.names if v not in (a, b)]
                for r in range(3):
                    for given in itertools.combinations(rest, r):
                        sep = dag.d_separated(a, b, given)
                        assert sep == _ref_d_separated(dag, a, b, given), (dag.edges, a, b, given)
                        cases += 1
                        separated += sep
    assert cases == 40_612 and 0 < separated < cases, (cases, separated)


def test_dsep_implies_numeric_independence():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dag = random_dag(rng)
        table = sample_factorized(dag, rng)
        names = dag.names
        for a, b in itertools.combinations(names, 2):
            rest = [n for n in names if n not in (a, b)]
            for given in itertools.chain.from_iterable(
                itertools.combinations(rest, r) for r in range(len(rest) + 1)
            ):
                if dag.d_separated(a, b, set(given)):
                    assert ci_deviation(table, a, (b,), given) <= EPS_CI


# ---- the index against edge-scan oracles ----------------------------------


def _oracle_reach(dag, v, forward):
    out, frontier = set(), {v}
    while frontier:
        frontier = {
            e.target if forward else e.source
            for e in dag.edges
            if (e.source if forward else e.target) in frontier
        } - out
        out |= frontier
    return out


def _oracle_order(dag):
    # place the earliest-declared node whose parents are all placed
    order = []
    while len(order) < len(dag.variables):
        order.append(next(
            v.name
            for v in dag.variables
            if v.name not in order
            and all(e.source in order for e in dag.edges if e.target == v.name)
        ))
    return order


def shuffled_dag(rng):
    """A random DAG declared out of topological order, its edges shuffled."""
    n = int(rng.integers(3, 9))
    topo = [f"N{k}" for k in range(n)]
    edges = [(a, b) for i, a in enumerate(topo) for b in topo[i + 1:]
             if rng.random() < 0.4] or [(topo[0], topo[1])]
    declared = list(topo)
    while all(declared.index(a) < declared.index(b) for a, b in edges):
        declared = [topo[k] for k in rng.permutation(n)]
    signs = [Sign.PLUS, Sign.MINUS, Sign.QUESTION]
    return SignedDag(
        tuple(spec(v) for v in declared),
        tuple(SignedEdge(a, b, signs[int(rng.integers(3))])
              for a, b in (edges[k] for k in rng.permutation(len(edges)))),
    )


def test_index_matches_edge_scans_on_shuffled_dags():
    rng = np.random.default_rng(23)
    for _ in range(60):
        dag = shuffled_dag(rng)
        assert dag._order == tuple(_oracle_order(dag))
        for v in dag.names:
            assert dag.parents(v) == {e.source for e in dag.edges if e.target == v}
            assert dag._children[v] == {e.target for e in dag.edges if e.source == v}
            assert dag.descendants(v) == _oracle_reach(dag, v, forward=True)
            assert dag._reachable([v], dag._parents) == _oracle_reach(dag, v, forward=False)
            for w in dag.names:
                found = [e for e in dag.edges if (e.source, e.target) == (v, w)]
                assert dag.edge_between(v, w) == (found[0] if found else None)


def test_changing_returned_collections_leaves_the_dag_alone():
    dag = chain_qpn()
    dag.parents("X2").add("X3")
    dag.descendants("X1").clear()
    assert dag.parents("X2") == {"X1"}
    assert dag.descendants("X1") == {"X2", "X3"}
