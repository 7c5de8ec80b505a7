"""Command-line entry point.

Thin adapters over the library: every command parses files, calls one
library operation and renders the result.  Output is byte-stable for
identical inputs and flags.  Sound mode is the default everywhere;
classical mode reproduces the literature's (binary-only-valid) answers.

The table commands import ``dependence``, ``semantics`` and ``scenarios``
when they run, after their docstrings (click's help text): those modules
load numpy, which the graph commands never need.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import io
from .errors import ParseError, QpnError
from .inference import Mode, propagate as run_propagate, query as run_query
from .inference import reduce_vertex, reverse_edge
from .signs import Sign


def _finite(data):
    """``data`` with non-finite floats as None: strict JSON has no Infinity."""
    if isinstance(data, dict):
        return {k: _finite(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [_finite(v) for v in data]
    return None if isinstance(data, float) and not math.isfinite(data) else data


def _emit(data: dict, output: str, text_lines) -> None:
    if output == "json":
        click.echo(json.dumps(_finite(data), sort_keys=True, allow_nan=False))
    else:
        for line in text_lines:
            click.echo(line)


output_option = click.option(
    "--output", type=click.Choice(["json", "text"]), default="text",
    help="Rendering format.",
)
mode_option = click.option(
    "--mode", type=click.Choice(["classical", "sound"]), default="sound",
    help="Inference semantics (sound is the corrected default).",
)


class _Group(click.Group):
    """Every command runs inside ``invoke``: an input error (a
    ``QpnError``) or an input too large for memory (a ``MemoryError``)
    becomes one ``error:`` line on stderr and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (QpnError, MemoryError) as exc:
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
            sys.exit(2)


@click.group(cls=_Group)
def main():
    """Qualitative probabilistic network toolkit."""


@main.command()
@click.option("--network", required=True, type=click.Path())
@click.option("--dist", required=True, type=click.Path())
@output_option
def check(network, dist, output):
    """Verify that a distribution satisfies a network."""
    from .semantics import satisfies_qpn

    qpn = io.load_network(network)
    table = io.load_table(dist)
    report = satisfies_qpn(table, qpn)
    lines = ["satisfied" if report.satisfied else "not satisfied"]
    for v in report.markov_violations:
        lines.append(
            f"  markov violation at {v.variable} "
            f"(deviation {v.max_deviation:.3g})"
        )
    for v in report.edge_violations:
        lines.append(
            f"  edge {v.edge.source}->{v.edge.target}:{v.edge.sign.value} "
            f"got verdict {v.verdict.verdict.value}"
        )
    _emit(report.to_jsonable(), output, lines)
    if not report.satisfied:
        sys.exit(1)


@main.command()
@click.option("--dist", required=True, type=click.Path())
@click.option("--x", "x", required=True)
@click.option("--y", "y", required=True)
@output_option
def dependence(dist, x, y, output):
    """All pairwise dependence checks for one variable pair."""
    from .dependence import association_check, tp2_check

    table = io.load_table(dist)
    data, lines, mlrp = _pair_report(table, x, y)
    tp2 = tp2_check(table, x, y)
    assoc = association_check(table, x, y)
    data.update(tp2=tp2.to_jsonable(), association=assoc.to_jsonable())
    lines += [f"tp2: {tp2.holds}", f"association: {assoc.holds}"]
    if mlrp.witness:
        w = mlrp.witness
        lines.append(
            f"  mlrp witness: x={w.x_upper:g} x'={w.x_lower:g} "
            f"y={w.y_upper:g} y'={w.y_lower:g} "
            f"ratios {w.ratio_upper:.4f} < {w.ratio_lower:.4f}"
        )
    _emit(data, output, lines)


def _pair_report(table, x: str, y: str):
    """Influence both ways, then MLRP, for one pair: the JSON fields and
    text lines that ``dependence`` and ``demo table1`` share, and the MLRP
    result."""
    from .dependence import influence_sign, mlrp_check

    forward = influence_sign(table, x, y)
    reverse = influence_sign(table, y, x)
    mlrp = mlrp_check(table, x, y)
    data = {
        "influence_forward": forward.to_jsonable(),
        "influence_reverse": reverse.to_jsonable(),
        "mlrp": mlrp.to_jsonable(),
    }
    lines = [
        f"influence {x}->{y}: {forward.verdict.value}",
        f"influence {y}->{x}: {reverse.verdict.value}",
        f"mlrp: {mlrp.holds}",
    ]
    return data, lines, mlrp


@main.command()
@click.option("--network", required=True, type=click.Path())
@click.option("--observe", required=True, help="NODE=+ or NODE=-")
@mode_option
@click.option("--trails", is_flag=True, help="Include the per-node trail log.")
@output_option
def propagate(network, observe, mode, trails, output):
    """Propagate a qualitative observation through the network."""
    qpn = io.load_network(network)
    if "=" not in observe:
        raise ParseError(f"--observe must look like NODE=+ or NODE=-, got {observe!r}")
    node, _, sign_text = observe.partition("=")
    result = run_propagate(qpn, node.strip(), Sign.from_str(sign_text.strip()), Mode(mode))
    data = result.to_jsonable()
    if not trails:
        data.pop("trails")
    lines = [f"{name}: {sign.value}" for name, sign in sorted(result.node_signs.items())]
    if trails:
        for name, entries in sorted(result.trail_log.items()):
            for trail, sign in entries:
                lines.append(f"  {name} via {'-'.join(trail)}: {sign.value}")
    _emit(data, output, lines)


@main.command()
@click.option("--network", required=True, type=click.Path())
@click.option("--from", "from_", required=True)
@click.option("--to", "to", required=True)
@mode_option
@output_option
def query(network, from_, to, mode, output):
    """Direction of influence of one variable on another."""
    qpn = io.load_network(network)
    result = run_query(qpn, from_, to, Mode(mode))
    lines = [f"{from_} -> {to}: {result.sign.value}"]
    for step in result.transcript:
        lines.append(f"  {step.operation}({', '.join(step.arguments)})")
    _emit(result.to_jsonable(), output, lines)


@main.command()
@click.option("--network", required=True, type=click.Path())
@click.option("--node", required=True)
@output_option
def reduce(network, node, output):
    """Remove a vertex with at most one parent."""
    qpn = io.load_network(network)
    result = reduce_vertex(qpn, node)
    _emit(result.to_jsonable(), output, _edge_lines(result))


@main.command()
@click.option("--network", required=True, type=click.Path())
@click.option("--edge", required=True, help="A,B reverses the edge A->B.")
@mode_option
@output_option
def reverse(network, edge, mode, output):
    """Reverse one edge, inheriting parents."""
    qpn = io.load_network(network)
    try:
        source, target = (part.strip() for part in edge.split(","))
    except ValueError:
        raise ParseError(f"--edge must look like A,B, got {edge!r}") from None
    result = reverse_edge(qpn, source, target, Mode(mode))
    _emit(result.to_jsonable(), output, _edge_lines(result))


def _edge_lines(qpn) -> list[str]:
    return [f"{e.source} -> {e.target}: {e.sign.value}" for e in qpn.edges]


@main.command()
@click.option("--network", required=True, type=click.Path())
@click.option("--a", "a", required=True)
@click.option("--b", "b", required=True)
@click.option("--given", default="", help="Comma-separated conditioning set.")
@output_option
def dsep(network, a, b, given, output):
    """Graphical conditional-independence test."""
    qpn = io.load_network(network)
    given_set = sorted({g.strip() for g in given.split(",") if g.strip()})
    separated = qpn.d_separated(a, b, given_set)
    data = {"a": a, "b": b, "given": given_set, "d_separated": separated}
    _emit(data, output, [f"d-separated: {str(separated).lower()}"])


@main.command()
@click.argument("name", type=click.Choice(["table1", "shuttle"]))
@click.option("--fault-prob", default=0.05, show_default=True)
@mode_option
@output_option
def demo(name, fault_prob, mode, output):
    """Built-in reproductions of the asymmetry demonstrations."""
    from .dependence import influence_sign
    from .scenarios import shuttle_distribution, shuttle_qpn, table1_fixture
    from .semantics import satisfies_qpn

    if name == "table1":
        table = table1_fixture()
        data, lines, _ = _pair_report(table, "X", "Y")
        data["table"] = table.to_jsonable()
        _emit(data, output, lines)
        return

    qpn = shuttle_qpn()
    table = shuttle_distribution(fault_prob)
    report = satisfies_qpn(table, qpn)
    result = run_propagate(qpn, "HeOxTempProbe", Sign.PLUS, Mode(mode))
    fwd = influence_sign(table, "HeOxTemp", "HeOxTempProbe")
    rev = influence_sign(table, "HeOxTempProbe", "HeOxTemp")
    data = {
        "satisfied": report.satisfied,
        "propagation": result.to_jsonable(),
        "influence_temp_on_probe": fwd.to_jsonable(),
        "influence_probe_on_temp": rev.to_jsonable(),
    }
    lines = [f"distribution satisfies network: {report.satisfied}"]
    lines += [
        f"{n}: {s.value}" for n, s in sorted(result.node_signs.items())
    ]
    lines.append(f"influence HeOxTemp->HeOxTempProbe: {fwd.verdict.value}")
    lines.append(f"influence HeOxTempProbe->HeOxTemp: {rev.verdict.value}")
    _emit(data, output, lines)


@main.command("find-counterexample")
@click.option("--network", required=True, type=click.Path())
@click.option("--claim", "claim_text", required=True, help="e.g. 'Y->X:+'")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--trials", default=10000, show_default=True, type=int)
@output_option
def find_counterexample_cmd(network, claim_text, seed, trials, output):
    """Search random satisfying distributions for one refuting a claim."""
    from .scenarios import find_counterexample, parse_claim

    qpn = io.load_network(network)
    claim = parse_claim(claim_text)
    report = find_counterexample(qpn, claim, seed, trials)
    lines = [
        f"found: {report.found} (trials used: {report.trials_used})",
    ]
    if report.found:
        lines.append(f"claim verdict: {report.claim_verdict.verdict.value}")
    _emit(report.to_jsonable(), output, lines)
    if not report.found:
        sys.exit(1)


if __name__ == "__main__":
    main()
