"""Seeded digest of qpnet's outputs, for comparing two checkouts.

Runs the pairwise checkers, ``satisfies_qpn``, ``markov_check``,
``propagate``, ``reverse_edge``, ``query``, ``prop1_witness_search``,
``find_counterexample`` and ``sample_factorized`` on seeded random inputs,
then ``reduce_vertex`` on every node of the ``dags`` section's networks
and, on the same networks, the ``active_trails`` node paths for every pair
of nodes and ``d_separated`` for every pair and every conditioning set of
size 0-2 that avoids both.  Then every ``qpnet`` command runs through
click's test runner on seeded small networks and tables, in text and JSON,
plus one malformed input per command, and its exit code, stdout and stderr
are kept.  Then association runs both ways on 5x5 and 6x6 tables, holding
and failing, then on 7x7 and 7x3 ones, then on 8x8 ones, then on 3x3 to
7x7 ones at the edges of its stochastic-increase certificate.  Last come the
bytes of the shuttle's joint at fixed fault probabilities and of
``sample_factorized`` on the shuttle network for fixed seeds.  It prints
one SHA-256 per section.  Errors are recorded by class and message, so a
changed error shows too.  Run it against each checkout's sources and compare the lines:

    PYTHONPATH=src python tools/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/output_digest.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from qpnet import io
from qpnet.cli import main as cli_main
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
from qpnet.graph import SignedDag, SignedEdge
from qpnet.inference import Mode, propagate, query, reduce_vertex, reverse_edge
from qpnet.scenarios import (
    Claim,
    find_counterexample,
    sample_factorized,
    shuttle_distribution,
    shuttle_qpn,
)
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
    return SignedDag(variables, edges)


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
        out.append(outcome(lambda: influence_sign(table, i, j)))
        out.append(outcome(lambda: influence_sign(table, j, i, context)))
        out.append(outcome(lambda: influence_sign(table, i, j, context)))
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
        dag = SignedDag(variables, edges)
        out.append(outcome(lambda: satisfies_qpn(table, dag)))
        out.append(outcome(lambda: markov_check(table, dag)))


def dags(rng, count, out):
    """Propagations, reversals and queries; returns the networks drawn."""
    networks = []
    for t in range(count):
        dag = random_dag(rng, 3 + t % 6)
        networks.append(dag)
        names = dag.names
        for mode in Mode:
            observed = names[int(rng.integers(len(names)))]
            for sign in (Sign.PLUS, Sign.MINUS):
                out.append(outcome(lambda: propagate(dag, observed, sign, mode)))
            for edge in dag.edges:
                out.append(outcome(lambda: reverse_edge(dag, edge.source, edge.target, mode)))
            for _ in range(3):
                a, b = rng.choice(len(names), 2, replace=False)
                out.append(outcome(lambda: query(dag, names[a], names[b], mode)))
    return networks


def reductions(networks, out):
    for dag in networks:
        for v in dag.names:
            out.append(outcome(lambda: reduce_vertex(dag, v)))


def separations(networks, out):
    for dag in networks:
        names = dag.names
        for a, b in itertools.combinations(names, 2):
            others = [n for n in names if n not in (a, b)]
            for size in range(3):
                for given in itertools.combinations(others, size):
                    out.append([a, b, given, dag.d_separated(a, b, given)])
            out.append([a, b, dag.active_trails(a, b)])


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


def searches(rng, count, out):
    claims = (Sign.PLUS, Sign.MINUS, Sign.ZERO)
    for t in range(count):
        dag = random_dag(rng, 2 + t % 4)
        names = dag.names
        a, b = rng.choice(len(names), 2, replace=False)
        claim = Claim(names[a], names[b], claims[int(rng.integers(3))])
        seed, trials = int(rng.integers(1000)), int(rng.choice([1, 9, 40, 300]))
        out.append(outcome(lambda: find_counterexample(dag, claim, seed, trials)))
        out.append(sample_factorized(dag, np.random.default_rng([seed, t])).probabilities.tobytes().hex())


def pairs(rng, count, out):
    """Association both ways, on 5x5 and 6x6 tables, the sizes the
    benchmark's ``verify`` workload checks: ``random_cells`` kinds, which
    mostly fail, and log-linear tables exp(g x y + a_x + b_y) with g > 0,
    which are TP2 and so hold after comparing every pair of upper sets."""
    kinds = ("exponential", "tiny", "associated", "log-linear")
    for t in range(count):
        n, kind = 5 + t % 2, kinds[t // 2 % 4]
        cells = log_linear(rng, n) if kind == "log-linear" else random_cells(rng, (n, n), kind)
        both_ways(cells, out)


def pairs7(rng, count, out):
    """Association both ways on 7x7 and 7x3 tables, whose scans take many
    blocks of rows: exponential and tiny ``random_cells``, which mostly
    fail, then two log-linear 7x7 tables, which hold."""
    for t in range(count - 2):
        shape, kind = ((7, 7), (7, 3))[t % 2], ("exponential", "tiny")[t // 2 % 2]
        both_ways(random_cells(rng, shape, kind), out)
    for _ in range(2):
        both_ways(log_linear(rng, 7), out)


def pairs8(rng, count, out):
    """Association both ways on 8x8 tables, 12,870 upper sets each:
    exponential and tiny ``random_cells``, which mostly fail, then two
    log-linear tables, which hold."""
    for t in range(count - 2):
        both_ways(random_cells(rng, (8, 8), ("exponential", "tiny")[t % 2]), out)
    for _ in range(2):
        both_ways(log_linear(rng, 8), out)


def edges(rng, count, out):
    """Association both ways at the edges of its stochastic-increase
    certificate, on 3x3 to 7x7 tables: log-linear with g from 1e-15 to
    1e-3; a prior times a monotone CPT whose cdfs are clipped to 0 and 1;
    log-linear with g of either sign and some rows zeroed; log-linear on a
    band of cells; and log-linear with one cell scaled by 1 +- 10^-k.  Then
    three tables that fail and that the certificate must refuse: one whose
    tiny cells round away from its row sums, one with an empty middle row,
    and one with a negative cell."""
    kinds = ("weak", "clipped", "zero rows", "band", "perturbed")
    for t in range(count):
        nx, ny = (int(s) for s in rng.integers(3, 8, size=2))
        kind = kinds[t % len(kinds)]
        u, v = np.arange(nx)[:, None] / (nx - 1), np.arange(ny) / (ny - 1)
        g = 10.0 ** rng.uniform(-15, -3) if kind == "weak" else rng.uniform(0.2, 3.0)
        if kind == "zero rows":
            g *= rng.choice([1, -1])
        cells = np.exp(g * u * v + rng.normal(size=nx)[:, None] + rng.normal(size=ny))
        if kind == "clipped":
            cdf = np.clip(np.sort(rng.uniform(-0.5, 1.5, (nx, ny - 1)), axis=1), 0.0, 1.0)
            cdf = np.minimum.accumulate(cdf, axis=0)
            cells = rng.dirichlet(np.ones(nx))[:, None] * np.diff(cdf, prepend=0.0, append=1.0, axis=1)
        elif kind == "zero rows":
            cells[rng.random(nx) < 0.4] = 0.0
            cells[rng.integers(nx)] += 1e-3
        elif kind == "band":
            cells *= np.abs(u - v) <= rng.uniform(0.2, 0.7)
        elif kind == "perturbed":
            cells[rng.integers(nx), rng.integers(ny)] *= 1 + rng.choice([1, -1]) * 10.0 ** -rng.integers(1, 17)
        both_ways(cells / cells.sum(), out)
    for cells in ([[1e-20, 0.5], [2e-20, 0.5]], [[0, 0.5], [0, 0], [0.5, 0]],
                  [[0.4, 0], [0.6 + 1e-10, -1e-10]]):
        both_ways(np.array(cells), out)


def log_linear(rng, n):
    """exp(g x y + a_x + b_y) on an n-by-n grid with g > 0: TP2, so it holds."""
    x = np.arange(n)
    cells = np.exp(rng.uniform(0.1, 0.6) * np.outer(x, x) + rng.normal(size=n)[:, None]
                   + rng.normal(size=n))
    return cells / cells.sum()


def both_ways(cells, out):
    specs = tuple(VariableSpec(f"A{k}", tuple(range(n))) for k, n in enumerate(cells.shape))
    table = JointTable(specs, cells)
    out.append(outcome(lambda: association_check(table, "A0", "A1")))
    out.append(outcome(lambda: association_check(table, "A1", "A0")))


SHUTTLE_FAULTS = (0.05, 0.2, 1 / 3, 0.999, 1e-9)
SHUTTLE_SEEDS = range(5)


def shuttles(out):
    """The shuttle's joint at each of ``SHUTTLE_FAULTS``, then a
    ``sample_factorized`` draw on its network for each of ``SHUTTLE_SEEDS``."""
    for fault in SHUTTLE_FAULTS:
        out.append(shuttle_distribution(fault).probabilities.tobytes().hex())
    for seed in SHUTTLE_SEEDS:
        table = sample_factorized(shuttle_qpn(), np.random.default_rng(seed))
        out.append(table.probabilities.tobytes().hex())


def invoke(runner, args):
    result = runner.invoke(cli_main, args)
    return [args, result.exit_code, result.stdout, result.stderr]


def clis(rng, count, out):
    """Each command on seeded networks and tables written into a scratch
    directory under relative names, since parse errors name the file."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for t in range(count):
            dag = random_dag(rng, 2 + t % 4)
            names = dag.names
            io.dump_table(dag, "net.json")
            io.dump_table(sample_factorized(dag, rng), "fit.json")
            shape = tuple(v.size for v in dag.variables)
            cells = random_cells(rng, shape, "exponential")
            io.dump_table(JointTable(dag.variables, cells), "any.json")
            nx, ny = (int(s) for s in rng.integers(2, 5, size=2))
            pair = (VariableSpec("A0", tuple(range(nx))), VariableSpec("A1", tuple(range(ny))))
            cells = random_cells(rng, (nx, ny), "associated")
            io.dump_table(JointTable(pair, cells), "pair.json")
            a, b = (names[k] for k in rng.choice(len(names), 2, replace=False))
            others = [n for n in names if n not in (a, b)]
            given = ",".join(others[: int(rng.integers(len(others) + 1))])
            mode = ("sound", "classical")[t % 2]
            claim = f"{a}->{b}:{'+-0'[int(rng.integers(3))]}"
            seed, trials = int(rng.integers(1000)), int(rng.choice([1, 9, 40]))
            commands = [
                ["check", "--network", "net.json", "--dist", "fit.json"],
                ["check", "--network", "net.json", "--dist", "any.json"],
                ["dependence", "--dist", "pair.json", "--x", "A0", "--y", "A1"],
                ["propagate", "--network", "net.json", "--observe", f"{a}=+", "--mode", mode],
                ["propagate", "--network", "net.json", "--observe", f"{b}=-", "--trails"],
                ["query", "--network", "net.json", "--from", a, "--to", b, "--mode", mode],
                ["reduce", "--network", "net.json", "--node", a],
                ["dsep", "--network", "net.json", "--a", a, "--b", b, "--given", given],
                ["find-counterexample", "--network", "net.json", "--claim", claim,
                 "--seed", str(seed), "--trials", str(trials)],
            ]
            commands += [
                ["reverse", "--network", "net.json", "--edge", f"{e.source},{e.target}",
                 "--mode", mode]
                for e in dag.edges[:2]
            ]
            for args in commands:
                for output in ("text", "json"):
                    out.append(invoke(runner, args + ["--output", output]))
        for args in (
            ["demo", "table1"],
            ["demo", "shuttle"],
            ["demo", "shuttle", "--fault-prob", "0.2", "--mode", "classical"],
        ):
            for output in ("text", "json"):
                out.append(invoke(runner, args + ["--output", output]))
        Path("bad.json").write_text("{")
        for args in (
            ["check", "--network", "bad.json", "--dist", "fit.json"],
            ["dependence", "--dist", "bad.json", "--x", "A0", "--y", "A1"],
            ["propagate", "--network", "bad.json", "--observe", "V0=+"],
            ["query", "--network", "bad.json", "--from", "V0", "--to", "V1"],
            ["reduce", "--network", "bad.json", "--node", "V0"],
            ["reverse", "--network", "bad.json", "--edge", "V0,V1"],
            ["dsep", "--network", "bad.json", "--a", "V0", "--b", "V1"],
            ["find-counterexample", "--network", "bad.json", "--claim", "V1->V0:+"],
            ["demo", "shuttle", "--fault-prob", "2"],
        ):
            out.append(invoke(runner, args))


def report(name, count, out):
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    print(f"{name}: {count} inputs, {len(out)} outputs, sha256 {digest}")


def main():
    sections = (
        ("tables", tables, 1200),
        ("dags", dags, 240),
        ("priors", priors, 400),
        ("search", searches, 320),
    )
    for k, (name, section, count) in enumerate(sections):
        out: list = []
        drawn = section(np.random.default_rng([2026, k]), count, out)
        if name == "dags":
            networks = drawn
        report(name, count, out)
    out = []
    reductions(networks, out)
    report("reduce", len(networks), out)
    out = []
    separations(networks, out)
    report("dsep", len(networks), out)
    out = []
    clis(np.random.default_rng([2026, len(sections)]), 60, out)
    report("cli", 60, out)
    out = []
    pairs(np.random.default_rng([2026, len(sections) + 1]), 48, out)
    report("pairs", 48, out)
    out = []
    pairs7(np.random.default_rng([2026, len(sections) + 2]), 14, out)
    report("pairs7", 14, out)
    out = []
    pairs8(np.random.default_rng([2026, len(sections) + 3]), 6, out)
    report("pairs8", 6, out)
    out = []
    edges(np.random.default_rng([2026, len(sections) + 4]), 60, out)
    report("edges", 63, out)
    out = []
    shuttles(out)
    report("shuttle", len(SHUTTLE_FAULTS) + len(SHUTTLE_SEEDS), out)


if __name__ == "__main__":
    main()
