import collections
import json
import math

import numpy as np
import pytest

from qpnet.dependence import Verdict
from qpnet.dist import EPS_PROB, JointTable, VariableSpec
from qpnet.errors import ShapeMismatch
from qpnet.graph import Qpn, SignedDag, SignedEdge
from qpnet.scenarios import (
    sample_factorized,
    shuttle_distribution,
    shuttle_qpn,
    table1_fixture,
)
from qpnet.semantics import ci_deviation, markov_check, satisfies_qpn
from qpnet.signs import Sign


def spec(name, size=2):
    return VariableSpec(name, tuple(range(size)))


def chain_dag(sizes=(2, 2, 2)):
    return SignedDag(
        tuple(spec(f"X{i+1}", s) for i, s in enumerate(sizes)),
        (
            SignedEdge("X1", "X2", Sign.PLUS),
            SignedEdge("X2", "X3", Sign.PLUS),
        ),
    )


class TestMarkovCheck:
    def test_product_distribution_satisfies_any_dag(self):
        dag = chain_dag()
        p = np.ones((2, 2, 2)) / 8
        table = JointTable(dag.variables, p)
        assert markov_check(table, dag) == []

    def test_chain_with_direct_x1_x3_dependence_fails(self):
        dag = chain_dag()
        # X3 copies X1 regardless of X2: violates X3 indep. X1 given X2
        p = np.zeros((2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                p[x1, x2, x1] = 0.25
        table = JointTable(dag.variables, p)
        violations = markov_check(table, dag)
        assert [v.variable for v in violations] == ["X3"]
        assert violations[0].max_deviation > 0.1

    def test_shuttle_distribution_markov_clean(self):
        assert markov_check(shuttle_distribution(), shuttle_qpn().dag) == []

    def test_variable_mismatch(self):
        with pytest.raises(ShapeMismatch):
            markov_check(table1_fixture(), chain_dag())


def _ci_deviation_per_cell(table, a, others, given):
    """The deviation one conditioning cell at a time, as first written:
    the reference for the vectorized ``ci_deviation``."""
    marg = table.marginalize({a, *others, *given})
    perm = [marg.axis(g) for g in given] + [marg.axis(a)] + [marg.axis(o) for o in others]
    probs = np.transpose(marg.probabilities, perm)
    worst = 0.0
    for cell in np.ndindex(probs.shape[:len(given)]):
        block = probs[cell]
        mass = block.sum()
        if mass <= EPS_PROB:
            continue
        block = block / mass
        a_marg = block.reshape(block.shape[0], -1).sum(axis=1)
        o_marg = block.sum(axis=0)
        product = a_marg.reshape((-1,) + (1,) * o_marg.ndim) * o_marg
        worst = max(worst, float(np.abs(block - product).max()))
    return worst


class TestCiDeviation:
    def test_matches_per_cell_loop(self):
        # sums run in another order, so allow a few units in the last place
        tolerance = 64 * np.finfo(float).eps
        rng = np.random.default_rng(17)
        seen = collections.Counter()
        for _ in range(300):
            shape = tuple(int(n) for n in rng.integers(2, 5, size=rng.integers(3, 6)))
            probs = rng.exponential(size=shape) * (rng.random(shape) > 0.2)
            # a conditioning level of tiny mass, dependent within: skipped
            # cells must not set the deviation
            probs[(slice(None),) * (len(shape) - 1) + (0,)] *= 1e-12
            specs = tuple(VariableSpec(f"V{k}", tuple(range(n))) for k, n in enumerate(shape))
            table = JointTable(specs, probs / probs.sum())
            a, *rest = rng.permutation(table.names).tolist()
            cut = int(rng.integers(1, len(rest)))
            others, given = rest[:cut], rest[cut:]
            got = ci_deviation(table, a, others, given)
            want = _ci_deviation_per_cell(table, a, others, given)
            assert math.isclose(got, want, rel_tol=0, abs_tol=tolerance)
            seen["skipped cells"] += f"V{len(shape) - 1}" in given
            seen["several given and others"] += len(given) > 1 and len(others) > 1
        assert seen["skipped cells"] > 0 and seen["several given and others"] > 0

    def test_no_others_is_zero(self):
        assert ci_deviation(table1_fixture(), "X", []) == 0.0


def two_node_qpn(source="X", target="Y", sign=Sign.PLUS):
    t = table1_fixture()
    return Qpn(SignedDag(t.variables, (SignedEdge(source, target, sign),)))


class TestSatisfiesQpn:
    def test_table1_positive_edge_satisfied(self):
        report = satisfies_qpn(table1_fixture(), two_node_qpn())
        assert report.satisfied

    def test_table1_reversed_edge_not_satisfied(self):
        report = satisfies_qpn(table1_fixture(), two_node_qpn("Y", "X"))
        assert not report.satisfied
        [violation] = report.edge_violations
        assert violation.verdict.verdict is Verdict.AMBIGUOUS

    def test_empty_edge_set_vacuous_for_markov_consistent_table(self):
        t = table1_fixture()
        # empty edge set demands full independence, so use a product table
        product = np.outer(
            t.marginalize({"X"}).probabilities, t.marginalize({"Y"}).probabilities
        )
        table = JointTable(t.variables, product)
        qpn = Qpn(SignedDag(t.variables, ()))
        assert satisfies_qpn(table, qpn).satisfied
        # Table 1 itself is not Markov-consistent with the empty graph
        assert not satisfies_qpn(t, qpn).satisfied

    def test_shuttle_distribution_satisfies(self):
        assert satisfies_qpn(shuttle_distribution(), shuttle_qpn()).satisfied

    def test_question_edges_never_break_satisfaction(self):
        rng = np.random.default_rng(31)
        qpn = shuttle_qpn()
        relaxed_edges = tuple(
            SignedEdge(e.source, e.target, Sign.QUESTION) for e in qpn.edges
        )
        relaxed = Qpn(SignedDag(qpn.variables, relaxed_edges))
        for _ in range(5):
            table = sample_factorized(qpn.dag, rng)
            base = satisfies_qpn(table, qpn)
            weak = satisfies_qpn(table, relaxed)
            if base.satisfied:
                assert weak.satisfied
            # a '?' network only constrains Markov structure
            assert weak.edge_violations == ()



class TestAxisOrder:
    """Variables are found by name, so a table whose axes are a permutation
    of the network's order gives the same reports, byte for byte."""

    @pytest.mark.parametrize("perm_seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["violating", "shuttle"])
    def test_permuted_table_same_reports(self, kind, perm_seed):
        qpn = shuttle_qpn()
        if kind == "shuttle":
            table = shuttle_distribution()
        else:
            draw = np.random.default_rng(5).exponential(size=[v.size for v in qpn.variables])
            table = JointTable(qpn.variables, draw / draw.sum())
        perm = np.random.default_rng(perm_seed).permutation(len(qpn.variables))
        permuted = JointTable(
            tuple(table.variables[k] for k in perm), table.probabilities.transpose(perm)
        )
        assert permuted.names != table.names
        report = satisfies_qpn(table, qpn)
        if kind == "violating":
            assert report.markov_violations and report.edge_violations
        else:
            assert report.satisfied
        assert _dumps(satisfies_qpn(permuted, qpn)) == _dumps(report)
        assert _dumps(markov_check(permuted, qpn.dag)) == _dumps(markov_check(table, qpn.dag))


def _dumps(result):
    if isinstance(result, list):
        return json.dumps([v.to_jsonable() for v in result])
    return json.dumps(result.to_jsonable())
