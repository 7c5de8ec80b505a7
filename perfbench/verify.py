"""``verify``: check explicit tables through the CLI.

In-process ``qpnet check``, ``qpnet dependence`` and ``qpnet demo`` calls
on few, large tables: the shuttle network and its 2,400-cell joint,
factorized networks of 5 to 7 nodes at 3 or 4 levels (up to 16,384
cells), and pair tables from 3x3 to 6x6.  Network shapes are fixed;
``--seed`` draws the edge signs, the cell values and the order of the
operations.  Every table is built so that no check's cost depends on its
values: factorized tables are FSD-monotone or carry one planted sign
violation, and every pair table is associated, so association's scan
over all pairs of upper sets always runs to its end.
"""

from __future__ import annotations

import numpy as np

import qpnet.io
import qpnet.scenarios
from qpnet.dist import JointTable, VariableSpec
from qpnet.graph import Qpn, SignedDag, SignedEdge
from qpnet.signs import Sign

import reference as ref
from common import Op, cli_digest, edges_of, run_cli

TP2_FAULT = (
    "dependence.tp2_check compares products of cells with the absolute "
    "EPS_PROB, so on a table of tiny cells it reports TP2 while mlrp_check "
    "fails in both directions"
)

NETWORKS = [(5, 3), (6, 3), (7, 3), (5, 4), (6, 4), (7, 4)]  # (nodes, levels)
PAIR_SIZES = (3, 4, 5, 6)
UNMODELLED = 2  # the network also checked without one of its edges


def network_shape(k: int):
    """Nodes, edges and the edge that gets a planted violation for
    factorized network ``k``, from seed (2000, k).  Each node after the
    first takes one or two parents among the nodes before it."""
    n, _ = NETWORKS[k]
    rng = np.random.default_rng([2000, k])
    names = [f"V{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        for p in rng.choice(i, min(i, int(rng.integers(1, 3))), replace=False):
            edges.append((names[p], names[i]))
    return names, edges, edges[int(rng.integers(len(edges)))]


def factorized(names, levels, edges, signs, rng, planted=None) -> np.ndarray:
    """Product of FSD-monotone CPTs; with ``planted`` = (parent, child),
    the child's CPT is reversed along that parent's axis, which turns
    that one edge's influence against its sign and leaves the others."""
    joint = np.ones((levels,) * len(names))
    for v in names:
        # parents precede their child in ``names``, so sorting them puts
        # the CPT's axes in the joint's order
        pa = sorted(((s, g) for (s, t), g in zip(edges, signs) if t == v),
                    key=lambda e: names.index(e[0]))
        cpt = ref.monotone_cpt(rng, (levels,) * (len(pa) + 1), [g for _, g in pa])
        if planted is not None and planted[1] == v:
            cpt = np.flip(cpt, axis=[s for s, _ in pa].index(planted[0]))
        axes = [names.index(s) for s, _ in pa] + [names.index(v)]
        shape = [1] * len(names)
        for a in axes:
            shape[a] = levels
        joint = joint * cpt.reshape(shape)
    return joint


def pair_table(n: int, kind: str, rng) -> np.ndarray:
    """An n-by-n associated joint: a prior times a monotone CPT
    ("monotone", usually not TP2), or exp(g x y + a_x + b_y) with g > 0
    ("tp2", totally positive by construction)."""
    if kind == "monotone":
        return rng.dirichlet(np.ones(n))[:, None] * ref.monotone_cpt(rng, (n, n), "+")
    x = np.arange(n)
    logits = rng.uniform(0.1, 0.6) * np.outer(x, x) + rng.normal(size=n)[:, None] + rng.normal(size=n)
    p = np.exp(logits)
    return p / p.sum()


def tiny_table() -> np.ndarray:
    """3e-5 off the diagonal, 1e-7 on it, the rest of the mass on the
    top corner: TP2 fails by a factor of 9e4 between cell products that
    are all below EPS_PROB."""
    p = np.full((3, 3), 3e-5)
    np.fill_diagonal(p, 1e-7)
    p[2, 2] = 0.0
    p[2, 2] = 1.0 - p.sum()
    return p


def _spec(names, levels):
    return tuple(VariableSpec(n, tuple(range(1, levels + 1))) for n in names)


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []

    def write_table(name, table):
        path = workdir / f"{name}.json"
        qpnet.io.dump_table(table, path)
        return str(path)

    def write_network(name, qpn):
        path = workdir / f"{name}.net.json"
        qpnet.io.dump_network(qpn, path)
        return str(path)

    def add(label, args, fault=None, **info):
        ops.append(Op(label, lambda a=args: run_cli(a), cli_digest, fault, info))

    fault_prob = float(rng.uniform(0.02, 0.1))
    shuttle, shuttle_table = qpnet.scenarios.shuttle_qpn(), qpnet.scenarios.shuttle_distribution(fault_prob)
    net = write_network("shuttle", shuttle)
    add("check/shuttle",
        ["check", "--network", net, "--dist", write_table("shuttle", shuttle_table), "--output", "json"],
        kind="check", names=shuttle_table.names, edges=edges_of(shuttle),
        probs=shuttle_table.probabilities, planted=None)

    for k, (n, levels) in enumerate(NETWORKS):
        names, edge_pairs, planted = network_shape(k)
        signs = list(rng.choice(["+", "-"], size=len(edge_pairs)))
        qpn = Qpn(SignedDag(_spec(names, levels),
                            tuple(SignedEdge(s, t, Sign(g)) for (s, t), g in zip(edge_pairs, signs))))
        net = write_network(f"net{k}", qpn)
        built = {}
        for variant, plant in (("monotone", None), ("planted", planted)):
            probs = built[variant] = factorized(names, levels, edge_pairs, signs, rng, plant)
            table = JointTable(qpn.variables, probs)
            path = write_table(f"net{k}-{variant}", table)
            add(f"check/net{k}-{n}x{levels}/{variant}",
                ["check", "--network", net, "--dist", path, "--output", "json"],
                kind="check", names=tuple(names), edges=edges_of(qpn), probs=probs, planted=plant)
        if k == UNMODELLED:
            # the monotone table against the network without one of its
            # edges: a dependence the network does not allow
            fewer = Qpn(SignedDag(qpn.variables, tuple(e for e in qpn.edges if (e.source, e.target) != planted)))
            add(f"check/net{k}-{n}x{levels}/unmodelled",
                ["check", "--network", write_network(f"net{k}-fewer", fewer), "--dist",
                 str(workdir / f"net{k}-monotone.json"), "--output", "json"],
                kind="check", names=tuple(names), edges=edges_of(fewer),
                probs=built["monotone"], planted=None, unmodelled=True)

    for n in PAIR_SIZES:
        for kind in ("monotone", "tp2"):
            probs = pair_table(n, kind, rng)
            path = write_table(f"pair{n}-{kind}", JointTable(_spec("XY", n), probs))
            for x, y in (("X", "Y"), ("Y", "X")):
                add(f"dependence/{n}x{n}-{kind}/{x}{y}",
                    ["dependence", "--dist", path, "--x", x, "--y", y, "--output", "json"],
                    kind="dependence", probs=probs if x == "X" else probs.T,
                    table=f"{n}-{kind}", order=x + y, levels=n)

    tiny = tiny_table()
    path = write_table("tiny", JointTable(_spec("XY", 3), tiny))
    add("dependence/3x3-tiny/XY",
        ["dependence", "--dist", path, "--x", "X", "--y", "Y", "--output", "json"],
        TP2_FAULT, kind="dependence", probs=tiny, table="tiny", order="XY", levels=3)

    add("demo/table1", ["demo", "table1", "--output", "json"], kind="table1")
    add("demo/shuttle",
        ["demo", "shuttle", "--fault-prob", repr(fault_prob), "--output", "json"],
        kind="shuttle", names=shuttle_table.names, edges=edges_of(shuttle),
        probs=shuttle_table.probabilities)
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def check(ops: list[Op], digests: dict) -> dict[str, list[str]]:
    problems = {}
    mlrp_by_table = {}

    def report(label, text):
        problems.setdefault(label, []).append(text)

    for op in ops:
        if digests.get(op.label) is None:
            continue
        code, data = digests[op.label]
        info = op.info
        try:
            if info["kind"] == "check":
                _check_check(op.label, info, code, data, report)
            elif info["kind"] == "dependence":
                mlrp_by_table.setdefault(info["table"], {})[info["order"]] = data["mlrp"]["holds"]
                _check_dependence(op.label, info, code, data, report)
            elif info["kind"] == "table1":
                _check_table1(op.label, code, data, report)
            else:
                _check_shuttle_demo(op.label, info, code, data, report)
        except (KeyError, TypeError) as exc:
            report(op.label, f"output lacks {exc!r} (exit {code})")

    # MLRP(X|Y) <=> TP2 <=> MLRP(Y|X), across the two orientations
    for op in ops:
        info, d = op.info, digests.get(op.label)
        if info["kind"] == "dependence" and d is not None and d[1] is not None:
            other = mlrp_by_table[info["table"]].get(info["order"][::-1])
            if other is not None and other != d[1]["tp2"]["holds"]:
                report(op.label, f"TP2 {d[1]['tp2']['holds']} but reverse MLRP {other}")
    return problems


def _check_check(label, info, code, data, report):
    names, edges, probs = info["names"], info["edges"], info["probs"]
    factorizes = ref.factorizes(probs, names, edges)
    violated = ref.violated_edges(probs, names, edges)
    satisfied = factorizes and not violated
    if factorizes == info.get("unmodelled", False):
        report(label, f"the reference finds factorizes={factorizes} on a table built for the opposite")
    if info["planted"] is not None and set(violated) != {info["planted"]}:
        report(label, f"reference sees violations {sorted(violated)}, planted {info['planted']}")
    if info["planted"] is None and violated and factorizes:
        report(label, f"monotone-built table breaks {sorted(violated)} by the reference")
    if data["satisfied"] != satisfied or code != (0 if satisfied else 1):
        report(label, f"satisfied {data['satisfied']} (exit {code}), reference {satisfied}")
    if bool(data["markov_violations"]) == factorizes:
        report(label, f"Markov violations {data['markov_violations']} but factorizes={factorizes}")
    got = {(v["from"], v["to"]): v["verdict"]["verdict"] for v in data["edge_violations"]}
    if got != violated:
        report(label, f"edge violations {got} != reference {violated}")


def _check_dependence(label, info, code, data, report):
    probs = info["probs"]
    support = list(range(1, info["levels"] + 1))
    want = {
        "influence_forward": ref.influence(probs, ("X", "Y"), "X", "Y"),
        "influence_reverse": ref.influence(probs, ("X", "Y"), "Y", "X"),
    }
    for key, verdict in want.items():
        if data[key]["verdict"] != verdict:
            report(label, f"{key} {data[key]['verdict']} != reference {verdict}")
    violations = ref.mlrp_violations(probs)
    for key, holds in (("mlrp", not violations), ("tp2", ref.tp2(probs)),
                       ("association", ref.associated(probs))):
        if data[key]["holds"] != holds:
            report(label, f"{key} holds={data[key]['holds']}, reference {holds}")
    if data["mlrp"]["holds"] != data["tp2"]["holds"]:
        report(label, f"MLRP {data['mlrp']['holds']} but TP2 {data['tp2']['holds']}")
    w = data["mlrp"]["witness"]
    if w is not None:
        quad = (w["x"], w["x_prime"], w["y"], w["y_prime"])
        if quad not in {tuple(support[i] for i in v[:4]) for v in violations}:
            report(label, f"MLRP witness {quad} is not a violation by the reference")
    if code != 0:
        report(label, f"exit {code}")


def _check_table1(label, code, data, report):
    # facts of the paper's table 1, fixed by hand
    if data["influence_forward"]["verdict"] != "positive":
        report(label, "X->Y is not positive")
    if data["influence_reverse"]["verdict"] != "ambiguous":
        report(label, "Y->X is not ambiguous")
    if data["mlrp"]["holds"]:
        report(label, "MLRP holds on table 1")
    probs = np.array(data["table"]["probabilities"]).reshape(3, 3)
    if ref.influence(probs, ("X", "Y"), "X", "Y") != "positive":
        report(label, "the reference does not find X->Y positive on the printed table")
    if code != 0:
        report(label, f"exit {code}")


def _check_shuttle_demo(label, info, code, data, report):
    names, edges, probs = info["names"], info["edges"], info["probs"]
    satisfied = ref.factorizes(probs, names, edges) and not ref.violated_edges(probs, names, edges)
    if data["satisfied"] != satisfied:
        report(label, f"satisfied {data['satisfied']}, reference {satisfied}")
    binary = {n for n, s in zip(names, probs.shape) if s == 2}
    want = ref.propagate(list(names), edges, binary, "HeOxTempProbe", "+", "sound")
    if data["propagation"]["node_signs"] != want:
        report(label, f"node signs {data['propagation']['node_signs']} != reference {want}")
    for key, (i, j) in (("influence_temp_on_probe", ("HeOxTemp", "HeOxTempProbe")),
                        ("influence_probe_on_temp", ("HeOxTempProbe", "HeOxTemp"))):
        verdict = ref.influence(probs, names, i, j)
        if data[key]["verdict"] != verdict:
            report(label, f"{key} {data[key]['verdict']} != reference {verdict}")
    if code != 0:
        report(label, f"exit {code}")
