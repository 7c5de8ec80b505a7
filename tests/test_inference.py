import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpnet.dependence import Verdict, influence_sign
from qpnet.dist import Cdf, JointTable, VariableSpec, fsd_compare, DominanceOrder
from qpnet.errors import (
    BadEvidenceSign,
    NoSuchEdge,
    TooManyParents,
    WouldCreateCycle,
)
from qpnet.graph import Qpn, SignedDag, SignedEdge
from qpnet.inference import (
    Mode,
    propagate,
    query,
    reduce_vertex,
    reverse_edge,
)
from qpnet.scenarios import sample_factorized, shuttle_qpn
from qpnet.semantics import ci_deviation, satisfies_qpn
from qpnet.signs import Sign, sign_sum


def spec(name, size=2):
    return VariableSpec(name, tuple(range(size)))


def figure1_qpn(sizes=(2, 2, 2)):
    return Qpn(
        SignedDag(
            tuple(spec(f"X{i+1}", s) for i, s in enumerate(sizes)),
            (
                SignedEdge("X1", "X2", Sign.PLUS),
                SignedEdge("X2", "X3", Sign.MINUS),
            ),
        )
    )


def two_node_qpn(size=3):
    return Qpn(
        SignedDag(
            (spec("X", size), spec("Y", size)),
            (SignedEdge("X", "Y", Sign.PLUS),),
        )
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
            separated = qpn.dag.d_separated("HeOxTempProbe", node)
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
        qpn = Qpn(SignedDag((spec("A"), spec("B")), ()))
        reduced = reduce_vertex(qpn, "A")
        assert reduced.dag.names == ("B",)
        assert reduced.edges == ()

    def test_fork_adds_question_edge_between_children(self):
        qpn = Qpn(
            SignedDag(
                (spec("P"), spec("V"), spec("C1"), spec("C2")),
                (
                    SignedEdge("P", "V", Sign.PLUS),
                    SignedEdge("V", "C1", Sign.PLUS),
                    SignedEdge("V", "C2", Sign.PLUS),
                ),
            )
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
        qpn = Qpn(
            SignedDag(
                (spec("P"), spec("V"), spec("C1"), spec("C2")),
                (
                    SignedEdge("P", "V", Sign.PLUS),
                    SignedEdge("V", "C1", Sign.PLUS),
                    SignedEdge("V", "C2", Sign.PLUS),
                ),
            )
        )
        rng = np.random.default_rng(13)
        table = sample_factorized(qpn.dag, rng)
        assert ci_deviation(table, "C1", ("C2",), ("P",)) > 1e-4

    def test_merging_with_existing_parallel_edge(self):
        qpn = Qpn(
            SignedDag(
                (spec("P"), spec("V"), spec("C")),
                (
                    SignedEdge("P", "V", Sign.PLUS),
                    SignedEdge("V", "C", Sign.MINUS),
                    SignedEdge("P", "C", Sign.PLUS),
                ),
            )
        )
        reduced = reduce_vertex(qpn, "V")
        [edge] = reduced.edges
        # existing + merged with chained (+ x -) = - gives ?
        assert edge.sign is Sign.QUESTION

    def test_too_many_parents(self):
        qpn = Qpn(
            SignedDag(
                (spec("A"), spec("B"), spec("V")),
                (
                    SignedEdge("A", "V", Sign.PLUS),
                    SignedEdge("B", "V", Sign.PLUS),
                ),
            )
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
        qpn = Qpn(
            SignedDag(
                (spec("A"), spec("I"), spec("B"), spec("J")),
                (
                    SignedEdge("A", "I", Sign.PLUS),
                    SignedEdge("I", "J", Sign.PLUS),
                    SignedEdge("B", "J", Sign.MINUS),
                ),
            )
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
        qpn = Qpn(
            SignedDag(
                (spec("A"), spec("B"), spec("C")),
                (
                    SignedEdge("A", "B", Sign.PLUS),
                    SignedEdge("B", "C", Sign.PLUS),
                    SignedEdge("A", "C", Sign.PLUS),
                ),
            )
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
        qpn = Qpn(SignedDag((spec("A"), spec("B")), ()))
        result = query(qpn, "A", "B")
        assert result.sign is Sign.ZERO
        assert result.transcript == ()

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
    return Qpn(SignedDag(variables, tuple(edges)))


def test_sound_never_more_informative_than_classical():
    rng = np.random.default_rng(41)
    for _ in range(30):
        qpn = random_qpn(rng)
        observed = qpn.dag.names[int(rng.integers(len(qpn.dag.names)))]
        classical = propagate(qpn, observed, Sign.PLUS, Mode.CLASSICAL)
        sound = propagate(qpn, observed, Sign.PLUS, Mode.SOUND)
        for node in qpn.dag.names:
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
    qpn = Qpn(
        SignedDag(
            tuple(spec(f"X{i+1}", 3) for i in range(3)),
            (
                SignedEdge("X1", "X2", Sign.PLUS),
                SignedEdge("X2", "X3", Sign.PLUS),
            ),
        )
    )
    for _ in range(25):
        table = monotone_chain_table(rng)
        assert satisfies_qpn(table, qpn).satisfied
        verdict = influence_sign(table, "X1", "X3").verdict
        assert verdict in (Verdict.POSITIVE, Verdict.ZERO)


def test_sound_signs_numerically_valid_on_binary_chain():
    # On a binary chain, sound-mode propagation from the sink yields
    # concrete signs; check them against conditional cdfs of a random
    # satisfying distribution.
    rng = np.random.default_rng(53)
    qpn = figure1_qpn(sizes=(2, 2, 2))  # X1 -+-> X2 --> X3 negative
    result = propagate(qpn, "X3", Sign.PLUS, Mode.SOUND)
    assert result.node_signs["X2"] is Sign.MINUS
    assert result.node_signs["X1"] is Sign.MINUS
    for _ in range(50):
        table = sample_factorized(qpn.dag, rng)
        if not satisfies_qpn(table, qpn).satisfied:
            continue
        high = table.condition({"X3": 1})
        low = table.condition({"X3": 0})
        for node, sign in result.node_signs.items():
            if sign not in (Sign.PLUS, Sign.MINUS):
                continue
            if node == "X3":
                continue
            rel = fsd_compare(high.cdf_of(node), low.cdf_of(node))
            allowed = {
                Sign.PLUS: (DominanceOrder.DOMINATES, DominanceOrder.EQUAL),
                Sign.MINUS: (DominanceOrder.DOMINATED_BY, DominanceOrder.EQUAL),
            }[sign]
            assert rel in allowed


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
    return Qpn(SignedDag(variables, tuple(edges)))


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
    names = qpn.dag.names
    evidence = names[data.draw(st.integers(0, len(names) - 1))]
    table = sample_factorized(qpn.dag, np.random.default_rng(seed))
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
        evidence = qpn.dag.names[int(rng.integers(len(qpn.dag.names)))]
        for _ in range(4):
            table = sample_factorized(qpn.dag, rng)
            for mode in Mode:
                answers, refuted = refuted_answers(qpn, table, evidence, mode)
                counts[mode][0] += answers
                counts[mode][1] += refuted
    (sound, sound_refuted), (classical, classical_refuted) = counts[Mode.SOUND], counts[Mode.CLASSICAL]
    assert sound_refuted == 0
    assert classical_refuted > 0
    print(f"headline asymmetry: PASS (sound: 0 of {sound} answers refuted; classical: "
          f"{classical_refuted} of {classical} refuted, {classical_refuted / classical:.1%})")

