"""Acceptance gate: the package's headline claims, one test per criterion.

Each test prints a single PASS line when the criterion holds at its
stated tolerance; a failing criterion fails the test itself.
"""

import itertools
import json
import time

import numpy as np
import pytest

from qpnet.dependence import (
    ConditionalTable,
    Verdict,
    association_check,
    influence_sign,
    mlrp_check,
    tp2_check,
)
from qpnet.dist import JointTable, VariableSpec
from qpnet.graph import SignedDag, SignedEdge
from qpnet.inference import Mode, propagate
from qpnet.scenarios import (
    find_counterexample,
    parse_claim,
    sample_factorized,
    shuttle_distribution,
    shuttle_qpn,
    table1_fixture,
)
from qpnet.semantics import EPS_CI, ci_deviation, satisfies_qpn
from qpnet.signs import Sign, sign_product, sign_sum


def report(number, detail):
    print(f"acceptance criterion {number}: PASS ({detail})")


def two_node_qpn(size):
    variables = (
        VariableSpec("X", tuple(range(size))),
        VariableSpec("Y", tuple(range(size))),
    )
    return SignedDag(variables, (SignedEdge("X", "Y", Sign.PLUS),))


def test_criterion_1_table1_asymmetry_and_mlrp_ratios():
    table = table1_fixture()
    start = time.perf_counter()
    forward = influence_sign(table, "X", "Y")
    backward = influence_sign(table, "Y", "X")
    mlrp = mlrp_check(table, "X", "Y")
    elapsed = time.perf_counter() - start

    assert forward.verdict is Verdict.POSITIVE
    assert backward.verdict is Verdict.AMBIGUOUS
    assert not mlrp.holds
    w = mlrp.witness
    assert (w.x_upper, w.x_lower, w.y_upper, w.y_lower) == (3.0, 1.0, 3.0, 2.0)
    assert w.ratio_upper == pytest.approx(1.0909, abs=1e-3)
    assert w.ratio_lower == pytest.approx(1.6364, abs=1e-3)
    assert mlrp.violation_count == 2
    assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"
    report(1, f"ratios {w.ratio_upper:.4f}/{w.ratio_lower:.4f}, "
              f"{elapsed * 1e3:.2f} ms")


def test_criterion_2_shuttle_propagation_both_modes():
    qpn = shuttle_qpn()
    start = time.perf_counter()
    classical = propagate(qpn, "HeOxTempProbe", Sign.PLUS, Mode.CLASSICAL)
    sound = propagate(qpn, "HeOxTempProbe", Sign.PLUS, Mode.SOUND)
    elapsed = time.perf_counter() - start

    assert classical.node_signs == {
        "HeOxTempProbe": Sign.PLUS,
        "HeOxTemp": Sign.PLUS,
        "HighOxTemp": Sign.PLUS,
        "OxTankLeak": Sign.PLUS,
        "OxPressureProbe": Sign.MINUS,
        "HeOxValveProblem": Sign.ZERO,
    }
    assert sound.node_signs == {
        "HeOxTempProbe": Sign.PLUS,
        "HeOxTemp": Sign.QUESTION,
        "HighOxTemp": Sign.QUESTION,
        "OxTankLeak": Sign.QUESTION,
        "OxPressureProbe": Sign.QUESTION,
        "HeOxValveProblem": Sign.ZERO,
    }
    assert elapsed < 0.100, f"took {elapsed * 1e3:.1f} ms"
    report(2, f"classical and sound maps exact, {elapsed * 1e3:.1f} ms")


def test_criterion_3_shuttle_distribution_refutation():
    start = time.perf_counter()
    table = shuttle_distribution(0.05)
    satisfaction = satisfies_qpn(table, shuttle_qpn())
    forward = influence_sign(table, "HeOxTemp", "HeOxTempProbe")
    backward = influence_sign(table, "HeOxTempProbe", "HeOxTemp")
    elapsed = time.perf_counter() - start

    assert satisfaction.satisfied
    assert forward.verdict is Verdict.POSITIVE
    assert backward.verdict is Verdict.AMBIGUOUS
    assert 4.0 in (backward.witness.upper, backward.witness.lower)
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    report(3, f"witness pair ({backward.witness.upper:g}, "
              f"{backward.witness.lower:g}), {elapsed:.2f} s")


def test_criterion_4_mlrp_implies_influence_for_any_prior():
    x = VariableSpec("X", (1, 2, 3))
    y = VariableSpec("Y", (1, 2, 3))
    rng = np.random.default_rng(2024)
    ok = (Verdict.POSITIVE, Verdict.ZERO)
    start = time.perf_counter()
    accepted = 0
    draws = 0
    while accepted < 1000:
        draw = rng.exponential(size=(3, 3))
        draws += 1
        likelihood = ConditionalTable(x, y, draw / draw.sum(axis=0, keepdims=True))
        if likelihood.mlrp_violations():
            continue
        accepted += 1
        for _ in range(10):
            prior = rng.exponential(size=3)
            joint = likelihood.joint_with_prior(prior / prior.sum())
            assert influence_sign(joint, "X", "Y").verdict in ok
            assert influence_sign(joint, "Y", "X").verdict in ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(4, f"1000 likelihoods x 10 priors (from {draws} draws), "
              f"{elapsed:.1f} s")


def test_criterion_5_binary_collapse():
    rng = np.random.default_rng(5)
    variables = (VariableSpec("X", (0, 1)), VariableSpec("Y", (0, 1)))
    for _ in range(1000):
        draw = rng.exponential(size=(2, 2))
        table = JointTable(variables, draw / draw.sum())
        answers = {
            influence_sign(table, "X", "Y").verdict is Verdict.POSITIVE,
            influence_sign(table, "Y", "X").verdict is Verdict.POSITIVE,
            mlrp_check(table, "X", "Y").holds,
            tp2_check(table, "X", "Y").holds,
            association_check(table, "X", "Y").holds,
        }
        assert len(answers) == 1
    report(5, "all five checkers agree on 1000 random 2x2 joints")


def test_criterion_6_mlrp_tp2_equivalence_and_symmetry():
    rng = np.random.default_rng(6)
    variables = (VariableSpec("X", (1, 2, 3)), VariableSpec("Y", (1, 2, 3)))
    for _ in range(1000):
        draw = rng.exponential(size=(3, 3))
        table = JointTable(variables, draw / draw.sum())
        forward = mlrp_check(table, "X", "Y").holds
        backward = mlrp_check(table, "Y", "X").holds
        tp2 = tp2_check(table, "X", "Y").holds
        assert forward == backward == tp2
    report(6, "zero disagreements on 1000 random 3x3 tables")


def test_criterion_7_d_separation_numeric_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        names = [f"N{i}" for i in range(n)]
        variables = tuple(
            VariableSpec(nm, tuple(range(int(rng.integers(2, 4))))) for nm in names
        )
        edges = tuple(
            SignedEdge(names[i], names[j], Sign.PLUS)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        dag = SignedDag(variables, edges)
        table = sample_factorized(dag, rng)
        for a, b in itertools.combinations(names, 2):
            rest = [nm for nm in names if nm not in (a, b)]
            for r in range(len(rest) + 1):
                for given in itertools.combinations(rest, r):
                    if dag.d_separated(a, b, set(given)):
                        dev = ci_deviation(table, a, (b,), given)
                        worst = max(worst, dev)
                        checked += 1
                        assert dev <= EPS_CI
    report(7, f"{checked} d-separated triples, worst deviation {worst:.2e}")


def test_criterion_8_counterexample_finder():
    claim = parse_claim("Y->X:+")
    start = time.perf_counter()

    first = find_counterexample(two_node_qpn(3), claim, seed=42, trials=100_000)
    assert first.found and first.trials_used <= 100_000
    # re-verify the report from scratch
    assert satisfies_qpn(first.table, two_node_qpn(3)).satisfied
    verdict = influence_sign(first.table, "Y", "X").verdict
    assert verdict in (Verdict.NEGATIVE, Verdict.AMBIGUOUS)
    # determinism across runs
    second = find_counterexample(two_node_qpn(3), claim, seed=42, trials=100_000)
    assert json.dumps(first.to_jsonable(), sort_keys=True) == json.dumps(
        second.to_jsonable(), sort_keys=True
    )

    binary = find_counterexample(two_node_qpn(2), claim, seed=42, trials=100_000)
    assert not binary.found
    assert binary.trials_used == 100_000
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"took {elapsed:.2f} s"
    report(8, f"ternary refuted after {first.trials_used} trials; "
              f"binary survives 100000 trials, {elapsed:.2f} s")


def test_criterion_9_forward_chain_soundness():
    specs = tuple(VariableSpec(f"X{i+1}", (0, 1, 2)) for i in range(3))
    qpn = SignedDag(
        specs,
        (
            SignedEdge("X1", "X2", Sign.PLUS),
            SignedEdge("X2", "X3", Sign.PLUS),
        ),
    )
    rng = np.random.default_rng(9)
    ok = (Verdict.POSITIVE, Verdict.ZERO)
    built = 0
    while built < 200:
        # FSD-monotone conditionals: cdf rows forced pointwise
        # non-increasing in the parent level
        def monotone(n_par, n_child):
            cdf = np.sort(rng.random(size=(n_par, n_child - 1)), axis=1)
            cdf = np.minimum.accumulate(cdf, axis=0)
            full = np.hstack([cdf, np.ones((n_par, 1))])
            return np.diff(np.hstack([np.zeros((n_par, 1)), full]), axis=1)

        p1 = rng.dirichlet(np.ones(3))
        c2 = monotone(3, 3)
        c3 = monotone(3, 3)
        table = JointTable(specs, p1[:, None, None] * c2[:, :, None] * c3[None, :, :])
        assert satisfies_qpn(table, qpn).satisfied
        assert influence_sign(table, "X1", "X3").verdict in ok
        built += 1
    report(9, "200 monotone chains compose to positive-or-zero")


def test_criterion_10_sign_algebra_laws():
    signs = list(Sign)
    start = time.perf_counter()
    for a, b in itertools.product(signs, signs):
        assert sign_product(a, b) is sign_product(b, a)
        assert sign_sum(a, b) is sign_sum(b, a)
    for a, b, c in itertools.product(signs, signs, signs):
        assert sign_product(sign_product(a, b), c) is sign_product(a, sign_product(b, c))
        assert sign_sum(sign_sum(a, b), c) is sign_sum(a, sign_sum(b, c))
    for a in signs:
        assert sign_product(Sign.PLUS, a) is a
        assert sign_product(Sign.ZERO, a) is Sign.ZERO
        assert sign_sum(Sign.ZERO, a) is a
        assert sign_sum(Sign.QUESTION, a) is Sign.QUESTION
    elapsed = time.perf_counter() - start
    assert elapsed < 0.001, f"took {elapsed * 1e3:.3f} ms"
    report(10, f"exhaustive enumeration, {elapsed * 1e6:.0f} us")
