"""``reason``: qualitative reasoning on random signed DAGs.

Ten DAGs of 8 to 12 nodes with about 1.8 n edges.  Their shapes, the
evidence nodes, query pairs, reductions, reversals and d-separation
triples come from fixed seeds, so each round does the same work: the
cost of trail enumeration and of the query planner depends on the shape
alone.  ``--seed`` draws what the answers depend on: the edge signs
(+, - or ?), which nodes are binary and which have 3 levels, the
support values, and the order of the operations.
"""

from __future__ import annotations

import numpy as np

import qpnet.inference
from qpnet.dist import VariableSpec
from qpnet.graph import Qpn, SignedDag, SignedEdge
from qpnet.inference import Mode
from qpnet.signs import Sign

import reference as ref
from common import Op, edges_of

SIZES = (8, 8, 9, 9, 10, 10, 11, 11, 12, 12)
ALL_BINARY = {2, 5, 8}  # DAG indices whose nodes are all binary
QUERIES, REDUCTIONS, REVERSALS, DSEPS = 4, 2, 2, 4


def shape(k: int):
    """The fixed part of DAG ``k``: node names, edges and operation
    arguments, drawn from seed (1000, k)."""
    rng = np.random.default_rng([1000, k])
    n = SIZES[k]
    names = [f"N{i}" for i in range(n)]
    order = rng.permutation(n)  # a topological order unlike the declared one
    pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    chosen = sorted(rng.choice(len(pairs), size=round(1.8 * n), replace=False))
    edges = [(names[pairs[c][0]], names[pairs[c][1]]) for c in chosen]
    parents = {v: {s for s, t in edges if t == v} for v in names}
    children = {v: {t for s, t in edges if s == v} for v in names}

    def other_path(i, j):
        stack, seen = [c for c in children[i] if c != j], set()
        while stack:
            node = stack.pop()
            if node == j:
                return True
            if node not in seen:
                seen.add(node)
                stack += children[node]
        return False

    reducible = [v for v in names if len(parents[v]) <= 1]
    reversible = [e for e in edges if not other_path(*e)]
    return {
        "names": names,
        "edges": edges,
        "evidence": names[int(rng.integers(n))],
        "queries": [tuple(names[i] for i in rng.choice(n, 2, replace=False)) for _ in range(QUERIES)],
        "reduce": [reducible[i] for i in rng.choice(len(reducible), REDUCTIONS, replace=False)],
        "reverse": [reversible[i] for i in rng.choice(len(reversible), REVERSALS, replace=False)],
        "dsep": [
            (names[a], names[b], [names[g] for g in given])
            for a, b, *given in (
                rng.choice(n, 2 + q, replace=False) for q in rng.integers(0, 3, size=DSEPS)
            )
        ],
    }


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng(seed)
    inf = qpnet.inference  # functions are looked up at call time, where tracing wraps them
    ops = []
    for k in range(len(SIZES)):
        sh = shape(k)
        binary = {v for v in sh["names"] if k in ALL_BINARY or rng.random() < 0.5}
        variables = tuple(
            VariableSpec(v, tuple(np.sort(rng.choice(100, 2 if v in binary else 3, replace=False))))
            for v in sh["names"]
        )
        signs = rng.choice(["+", "-", "?"], size=len(sh["edges"]), p=[0.45, 0.35, 0.2])
        qpn = Qpn(
            SignedDag(
                variables,
                tuple(SignedEdge(s, t, Sign(g)) for (s, t), g in zip(sh["edges"], signs)),
            )
        )

        def add(label, digest, call, **args):
            info = {"dag": k, "qpn": qpn, "binary": binary, "evidence": sh["evidence"], **args}
            ops.append(Op(f"d{k}/{label}", call, digest, None, info))

        ev = sh["evidence"]
        for mode, sign in (("sound", "+"), ("sound", "-"), ("classical", "+")):
            add(f"propagate/{mode}{sign}", _signs_digest,
                lambda q=qpn, e=ev, m=Mode(mode), g=Sign(sign): inf.propagate(q, e, g, m),
                kind="propagate", mode=mode, sign=sign)
        for n, (a, b) in enumerate(sh["queries"]):
            for mode in ("sound", "classical"):
                add(f"query{n}/{a}-{b}/{mode}", _sign_digest,
                    lambda q=qpn, a=a, b=b, m=Mode(mode): inf.query(q, a, b, m),
                    kind="query", pair=(a, b), mode=mode)
        for v in sh["reduce"]:
            add(f"reduce/{v}", edges_of, lambda q=qpn, v=v: inf.reduce_vertex(q, v),
                kind="reduce", node=v)
        for (i, j), mode in zip(sh["reverse"], ("sound", "classical")):
            add(f"reverse/{i}-{j}/{mode}", edges_of,
                lambda q=qpn, i=i, j=j, m=Mode(mode): inf.reverse_edge(q, i, j, m),
                kind="reverse", edge=(i, j), mode=mode)
        for n, (a, b, given) in enumerate(sh["dsep"]):
            add(f"dsep{n}/{a}-{b}|{','.join(given)}", bool,
                lambda q=qpn, a=a, b=b, g=given: q.dag.d_separated(a, b, g),
                kind="dsep", triple=(a, b, given))
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def _signs_digest(result) -> dict:
    return {n: s.value for n, s in result.node_signs.items()}


def _sign_digest(result) -> str:
    return result.sign.value


def check(ops: list[Op], digests: dict) -> dict[str, list[str]]:
    problems = {}

    def report(label, text):
        problems.setdefault(label, []).append(text)

    propagations = {}  # (dag, mode, sign) -> (label, digest)
    answers = {}  # (dag, query label, mode) -> (label, digest)
    for op in ops:
        d = digests.get(op.label)
        if d is None:
            continue
        info = op.info
        names, edges = list(info["qpn"].dag.names), edges_of(info["qpn"])
        kind = info["kind"]
        if kind == "propagate":
            ev = info["evidence"]
            propagations[(info["dag"], info["mode"], info["sign"])] = (op.label, d)
            want = ref.propagate(names, edges, info["binary"], ev, info["sign"], info["mode"])
            if d != want:
                diff = {n: (d.get(n), want[n]) for n in names if d.get(n) != want[n]}
                report(op.label, f"signs (got, reference) differ: {diff}")
            for n in names:
                if n != ev and (d[n] == "0") != ref.d_separated(names, edges, ev, n):
                    report(op.label, f"{n}: sign {d[n]} disagrees with d-separation")
        elif kind == "query":
            answers[(info["dag"], op.label.split("/")[1], info["mode"])] = (op.label, d)
            if (d == "0") != ref.d_separated(names, edges, *info["pair"]):
                report(op.label, f"answer {d} disagrees with d-separation")
        elif kind == "reduce":
            for text in _reduce_problems(edges, info["node"], d):
                report(op.label, text)
        elif kind == "reverse":
            want = _reversed(edges, *info["edge"], info["mode"], info["binary"])
            if sorted(map(tuple, d)) != want:
                report(op.label, f"edges {sorted(d)} != reference {want}")
        elif kind == "dsep":
            if d != ref.d_separated(names, edges, *info["triple"]):
                report(op.label, f"d_separated {d} disagrees with the reference")

    for (k, pair, mode), (label, d) in answers.items():
        classical = answers.get((k, pair, "classical"))
        if mode == "sound" and classical and d not in (classical[1], "?"):
            report(label, f"sound answer {d} is neither classical {classical[1]} nor ?")
    for (k, mode, sign), (label, d) in propagations.items():
        if (mode, sign) != ("sound", "+"):
            continue
        minus = propagations.get((k, "sound", "-"))
        classical = propagations.get((k, "classical", "+"))
        if minus and minus[1] != {n: ref.negate(s) for n, s in d.items()}:
            report(label, "flipping the evidence does not negate every sign")
        if classical:
            for n, s in d.items():
                if s not in (classical[1][n], "?"):
                    report(label, f"{n}: sound sign {s} is neither classical {classical[1][n]} nor ?")
            if k in ALL_BINARY and d != classical[1]:
                report(label, "modes disagree on an all-binary network")
    return problems


def _reduce_problems(edges, v, got) -> list[str]:
    """Removing ``v`` (at most one parent) gives its parent an edge to each
    child, signed by the chained product and merged with any existing
    edge; every other edge stays; any two children left unlinked get a
    '?' edge, in either direction."""
    want = {(s, t): g for s, t, g in edges if v not in (s, t)}
    parent = next((s for s, t, _ in edges if t == v), None)
    children = {t for s, t, _ in edges if s == v}
    if parent is not None:
        in_sign = next(g for s, t, g in edges if (s, t) == (parent, v))
        for s, c, g in edges:
            if s == v:
                chained = ref.sign_product(in_sign, g)
                old = want.get((parent, c))
                want[(parent, c)] = chained if old is None else ref.sign_sum(old, chained)
    got = {(s, t): g for s, t, g in got}
    bad = [f"edge {e} is {got.get(e)}, want {g}" for e, g in want.items() if got.get(e) != g]
    for e, g in got.items():
        if e not in want and not (g == "?" and set(e) <= children):
            bad.append(f"unexpected edge {e}: {g}")
    for c1 in children:
        for c2 in children:
            if c1 < c2 and (c1, c2) not in got and (c2, c1) not in got:
                bad.append(f"children {c1}, {c2} left unlinked")
    return bad


def _reversed(edges, i, j, mode, binary):
    """Edges after reversing i->j: the reversed edge keeps its sign in
    classical mode, and in sound mode only when both ends are binary;
    each end gains the other's former parents through '?' edges."""
    out = {(s, t): g for s, t, g in edges if (s, t) != (i, j)}
    sign = next(g for s, t, g in edges if (s, t) == (i, j))
    keep = mode == "classical" or (i in binary and j in binary)
    out[(j, i)] = sign if keep else "?"
    for s, t, _ in edges:
        if t == i:
            out.setdefault((s, j), "?")
        if t == j and s != i:
            out.setdefault((s, i), "?")
    return sorted((s, t, g) for (s, t), g in out.items())
