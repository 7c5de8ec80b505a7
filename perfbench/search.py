"""``search``: refute classical inferences by counterexample search.

Every operation is one ``find_counterexample`` call whose claim runs
against an edge, which is the answer classical-mode propagation gives.
The operations, their search seeds and trial budgets are fixed, so each
round does the same work; ``--seed`` draws the variables' support values
and the order of the operations, neither of which changes that work.
"""

from __future__ import annotations

import numpy as np

import qpnet.scenarios
import qpnet.semantics
from qpnet.dist import JointTable, VariableSpec
from qpnet.graph import Qpn, SignedDag, SignedEdge
from qpnet.signs import Sign

import reference as ref
from common import Op, edges_of

SAMPLER_FAULT = (
    "scenarios.find_counterexample rejection-samples unconstrained CPTs from "
    "sample_factorized; at 4 and 5 levels almost no draw satisfies X->Y:+, "
    "so the budget runs out although a counterexample exists"
)

# (name, levels, shape, claim, search seeds, trial budget, expectation)
# shape "two" is X->Y:+; "chain" is X1->X2:+, X2->X3:+.  Found searches
# end after a number of trials that varies by seed, so the median and the
# 90th percentile are placed inside blocks of equal-cost controls: 16
# two-node controls hold ranks 21-36 of 46 by latency, and 6 chain
# controls ranks 38-43.  The 3-level chain seeds end their searches in
# 528 and 91 trials today, which keeps a round under three seconds.
CASES = [
    ("two3", 3, "two", "Y->X:+", range(20), 2000, "found"),
    ("chain3", 3, "chain", "X3->X1:+", (2, 3), 20000, "found"),
    ("two2", 2, "two", "Y->X:+", range(16), 100, "control"),
    ("chain2", 2, "chain", "X3->X1:+", range(6), 200, "control"),
    ("two4", 4, "two", "Y->X:+", (0,), 500, "fault"),
    ("two5", 5, "two", "Y->X:+", (0,), 500, "fault"),
]


def network(shape: str, levels: int, rng: np.random.Generator) -> Qpn:
    names = ("X", "Y") if shape == "two" else ("X1", "X2", "X3")
    variables = tuple(
        VariableSpec(n, tuple(np.sort(rng.choice(1000, levels, replace=False)) / 10))
        for n in names
    )
    edges = tuple(SignedEdge(a, b, Sign.PLUS) for a, b in zip(names, names[1:]))
    return Qpn(SignedDag(variables, edges))


def witness(levels: int) -> JointTable:
    """A two-node table that satisfies X->Y:+ and refutes Y->X:+.

    It is the first draw, from seeds (levels, 0), (levels, 1), ..., of a
    Dirichlet prior times an FSD-monotone CPT that the reference refutes.
    It shows that the failed searches have something to find.
    """
    spec = tuple(VariableSpec(n, tuple(range(levels))) for n in ("X", "Y"))
    for k in range(100):
        rng = np.random.default_rng([levels, k])
        probs = rng.dirichlet(np.ones(levels))[:, None] * ref.monotone_cpt(
            rng, (levels, levels), "+"
        )
        if ref.contradicts("+", ref.influence(probs, ("X", "Y"), "Y", "X")):
            return JointTable(spec, probs)
    raise RuntimeError(f"no {levels}-level witness in 100 draws")


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for name, levels, shape, claim_text, seeds, budget, expect in CASES:
        # the failed searches keep inputs that do not depend on --seed
        qpn = network(shape, levels, rng if expect != "fault" else np.random.default_rng(0))
        claim = qpnet.scenarios.parse_claim(claim_text)
        for s in seeds:
            ops.append(
                Op(
                    f"{name}/seed{s}",
                    lambda qpn=qpn, claim=claim, s=s, budget=budget: (
                        qpnet.scenarios.find_counterexample(qpn, claim, s, budget)
                    ),
                    _digest,
                    SAMPLER_FAULT if expect == "fault" else None,
                    (qpn, claim, budget, expect, levels),
                )
            )
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def _digest(report):
    table = report.table
    return {
        "found": report.found,
        "trials_used": report.trials_used,
        "names": table.names if table is not None else None,
        "probs": table.probabilities.tolist() if table is not None else None,
        "claim_verdict": report.claim_verdict.verdict.value if report.found else None,
    }


def check(ops: list[Op], digests: dict) -> dict[str, list[str]]:
    problems = {}
    witnesses = {}
    for op in ops:
        d = digests.get(op.label)
        if d is None:
            continue
        qpn, claim, budget, expect, levels = op.info
        bad = []
        if d["found"]:
            edges = edges_of(qpn)
            probs, names = np.array(d["probs"]), tuple(d["names"])
            verdict = ref.influence(probs, names, claim.source, claim.target)
            if not ref.factorizes(probs, names, edges):
                bad.append("found table does not factorize over the DAG")
            if ref.violated_edges(probs, names, edges):
                bad.append("found table breaks a signed edge")
            if not ref.contradicts(claim.claimed.value, verdict):
                bad.append(f"found table does not refute the claim (verdict {verdict})")
            if d["claim_verdict"] != verdict:
                bad.append(f"claim verdict {d['claim_verdict']} != reference {verdict}")
            if expect == "control":
                bad.append("binary control found a counterexample")
        else:
            if d["trials_used"] != budget:
                bad.append(f"not found after {d['trials_used']} of {budget} trials")
            if expect == "found":
                bad.append("no counterexample found")
            if expect == "fault":
                bad.append("not found, though the benchmark's witness refutes the claim")
                if levels not in witnesses:
                    witnesses[levels] = _witness_problems(qpn, claim, levels)
                    if witnesses[levels]:
                        problems[f"witness{levels}"] = witnesses[levels]
        if bad:
            problems[op.label] = bad
    return problems


def _witness_problems(qpn: Qpn, claim, levels: int) -> list[str]:
    """Problems with the witness, if any: it must satisfy the QPN by the
    reference and by the program's own check, and refute the claim."""
    table = witness(levels)
    probs, names, edges = table.probabilities, table.names, edges_of(qpn)
    bad = []
    if ref.violated_edges(probs, names, edges) or not ref.factorizes(probs, names, edges):
        bad.append(f"{levels}-level witness does not satisfy the QPN")
    named = JointTable(qpn.variables, probs)
    if not qpnet.semantics.satisfies_qpn(named, qpn).satisfied:
        bad.append(f"program rejects the {levels}-level witness")
    if not ref.contradicts(claim.claimed.value, ref.influence(probs, names, claim.source, claim.target)):
        bad.append(f"{levels}-level witness does not refute the claim")
    return bad
