"""Seeded digest of qpnet's outputs, for comparing two checkouts.

Runs the pairwise checkers, ``satisfies_qpn``, ``markov_check``,
``propagate``, ``reverse_edge``, ``query`` and ``prop1_witness_search``
on seeded random inputs and prints one SHA-256 per section.  Errors are
recorded by class and message, so a changed error shows too.  Run it
against each checkout's sources and compare the lines:

    PYTHONPATH=src python tools/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/output_digest.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from qpnet.dependence import (
    ConditionalTable,
    association_check,
    influence_sign,
    mlrp_check,
    prop1_witness_search,
    tp2_check,
)
from qpnet.dist import JointTable, VariableSpec
from qpnet.errors import QpnError
from qpnet.graph import Qpn, SignedDag, SignedEdge
from qpnet.inference import Mode, propagate, query, reverse_edge
from qpnet.semantics import markov_check, satisfies_qpn
from qpnet.signs import Sign

# edge signs; a zero influence is the absence of an edge
SIGNS = (Sign.PLUS, Sign.MINUS, Sign.QUESTION)


def outcome(call):
    """The JSON form of a call's result, or its error's class and message."""
    try:
        result = call()
    except QpnError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(result, list):
        return [r.to_jsonable() for r in result]
    return result.to_jsonable()


def random_cells(rng, shape, kind):
    if kind == "exponential":
        draw = rng.exponential(size=shape)
    elif kind == "tiny":  # log-uniform over 12 decades, so some cells are ~1e-12
        draw = 10.0 ** rng.uniform(-12, 0, size=shape)
    elif kind == "sparse":
        draw = rng.exponential(size=shape) * (rng.random(shape) < 0.6)
        draw.flat[0] += 1e-3
    else:  # associated: mass concentrated along the diagonal of the first two axes
        draw = rng.exponential(size=shape)
        idx = np.indices(shape)
        draw *= np.exp(-np.abs(idx[0] - idx[1]) * rng.uniform(0.5, 3.0))
    return draw / draw.sum()


def random_dag(rng, n):
    variables = tuple(
        VariableSpec(f"V{k}", tuple(range(int(rng.integers(2, 5))))) for k in range(n)
    )
    order = rng.permutation(n)
    edges = tuple(
        SignedEdge(f"V{order[a]}", f"V{order[b]}", SIGNS[int(rng.integers(3))])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.45
    )
    return Qpn(SignedDag(variables, edges))


def tables(rng, count, out):
    kinds = ("exponential", "tiny", "sparse", "associated")
    for t in range(count):
        n = 2 + t % 2
        shape = tuple(int(s) for s in rng.integers(2, 5, size=n))
        variables = tuple(
            VariableSpec(f"A{k}", tuple(float(x) for x in sorted(rng.choice(9, s, replace=False))))
            for k, s in enumerate(shape)
        )
        table = JointTable(variables, random_cells(rng, shape, kinds[t % 4]))
        names = table.names
        i, j = names[0], names[1]
        context = names[2:]
        for witness in (False, True):
            out.append(outcome(lambda: influence_sign(table, i, j, (), witness)))
            out.append(outcome(lambda: influence_sign(table, j, i, context, witness)))
            out.append(outcome(lambda: influence_sign(table, i, j, context, witness)))
        for x, y in ((i, j), (j, i)):
            out.append(outcome(lambda: mlrp_check(table, x, y)))
        out.append(outcome(lambda: tp2_check(table, i, j)))
        out.append(outcome(lambda: association_check(table, i, j)))
        order = rng.permutation(n)
        edges = tuple(
            SignedEdge(names[order[a]], names[order[b]], SIGNS[int(rng.integers(3))])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.7
        )
        qpn = Qpn(SignedDag(variables, edges))
        out.append(outcome(lambda: satisfies_qpn(table, qpn)))
        out.append(outcome(lambda: markov_check(table, qpn.dag)))


def dags(rng, count, out):
    for t in range(count):
        qpn = random_dag(rng, 3 + t % 6)
        names = qpn.dag.names
        for mode in Mode:
            observed = names[int(rng.integers(len(names)))]
            for sign in (Sign.PLUS, Sign.MINUS):
                out.append(outcome(lambda: propagate(qpn, observed, sign, mode)))
            for edge in qpn.edges:
                out.append(outcome(lambda: reverse_edge(qpn, edge.source, edge.target, mode)))
            for _ in range(3):
                a, b = rng.choice(len(names), 2, replace=False)
                out.append(outcome(lambda: query(qpn, names[a], names[b], mode)))


def priors(rng, count, out):
    for t in range(count):
        nx, ny = (int(s) for s in rng.integers(2, 5, size=2))
        x = VariableSpec("X", tuple(range(nx)))
        y = VariableSpec("Y", tuple(range(ny)))
        draw = rng.exponential(size=(nx, ny)) if t % 2 else 10.0 ** rng.uniform(-8, 0, (nx, ny))
        lik = ConditionalTable(x, y, draw / draw.sum(axis=0))
        seed, trials = int(rng.integers(1000)), int(rng.choice([1, 5, 40, 300]))
        try:
            prior = prop1_witness_search(lik, seed, trials)
            out.append(None if prior is None else prior.tobytes().hex())
        except QpnError as exc:
            out.append([type(exc).__name__, str(exc)])


def main():
    sections = (("tables", tables, 1200), ("dags", dags, 240), ("priors", priors, 400))
    for k, (name, section, count) in enumerate(sections):
        out: list = []
        section(np.random.default_rng([2026, k]), count, out)
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        print(f"{name}: {count} inputs, {len(out)} outputs, sha256 {digest}")


if __name__ == "__main__":
    main()
