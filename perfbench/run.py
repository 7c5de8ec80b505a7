"""The qpnet benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload search|verify|reason --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports qpnet from
``src/``.  One process and one thread run a closed loop: each operation
starts when the previous one returns.  The workload's operations are
repeated in rounds after one untimed warm-up round; garbage collection
runs between rounds, never inside one, and rounds repeat until
``--seconds`` have passed (at least three rounds and 100 operations).

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the last line holds the per-layer metrics, per
traced round, plus the tracing overhead.  Outputs are checked after the
timed rounds.  Latencies and rates are scaled to a reference machine
speed (see ``Timings``), set-up time is not; the unscaled figures go
to standard error.
Results and span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread, set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("search", "verify", "reason")
SETUP_SAMPLES = 11  # fresh interpreters timed for setup_s, this one included
MIN_ROUNDS = 3
MIN_OPS = 100  # so that ten latencies lie beyond the 90th percentile
CAL_EVERY_NS = 5_000_000  # operation time between calibration slices
CAL_REF_NS = 1_200_000  # a slice's time on a quiet 2-core x86 VM; see Timings
CAL_WINDOW = 9  # slices whose median gives the local speed
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

PER_LAYER_SPANS = {  # span name -> the per-layer metrics taken from it
    "scenarios.find_counterexample": ("calls", "ms"),
    "scenarios.sample_factorized": ("ms",),
    "semantics.satisfies_qpn": ("calls", "ms", "self_ms"),
    "semantics.markov_check": ("ms",),
    "semantics.ci_deviation": ("calls", "ms"),
    "dependence.influence_sign": ("calls", "ms", "self_ms"),
    "dependence.mlrp_check": ("ms",),
    "dependence.tp2_check": ("ms",),
    "dependence.association_check": ("ms",),
    "dist.JointTable": ("calls", "ms"),
    "dist.marginalize": ("calls", "ms"),
    "dist.fsd_compare": ("calls", "ms"),
    "graph.active_trails": ("calls", "ms"),
    "graph.SignedDag": ("calls", "ms"),
    "graph.d_separated": ("calls", "ms"),
    "inference.propagate": ("calls", "ms", "self_ms"),
    "inference.query": ("calls", "ms", "self_ms"),
    "inference.reduce_vertex": ("ms",),
    "inference.reverse_edge": ("ms",),
    "io.load_table": ("ms",),
    "io.load_network": ("ms",),
    "cli": ("self_ms",),
}
PER_LAYER_COUNTS = (
    "dist.Cdf.calls", "graph.active_trails.trails", "graph.descendants.calls",
    "signs.sign_product.calls", "signs.sign_sum.calls", "scenarios.trials",
)


def import_program():
    """Import qpnet and its CLI from this checkout's ``src``; return the
    seconds taken."""
    src = ROOT / "src"
    if not (src / "qpnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qpnet sources under {src}; run from a qpnet checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    qpnet = importlib.import_module("qpnet")
    importlib.import_module("qpnet.cli")
    took = time.perf_counter() - start
    if Path(qpnet.__file__).resolve().parent != (src / "qpnet").resolve():
        sys.exit(f"perfbench: imported qpnet from {qpnet.__file__}, not {src}")
    return took


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program and build the workload's inputs; return the
    workload module, its operations and the seconds it took."""
    import_s = import_program()
    module = importlib.import_module(workload)  # the benchmark's code, not timed
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    ops = module.build(seed, workdir)
    build_s = time.perf_counter() - start
    labels = [op.label for op in ops]
    if len(set(labels)) != len(labels):
        raise RuntimeError(f"{workload}: operation labels are not unique")
    return module, ops, import_s + build_s


def setup_samples(args) -> list[float]:
    """Set-up seconds from further fresh interpreters, one after another.

    They are not scaled like latencies: import time does not follow the
    calibration slices (over 40 fresh interpreters the correlation was
    -0.07), and slices run right after a set-up sometimes fell in a spell
    1.7 times faster than the run's, inflating the scaled figure as much."""
    samples = []
    for k in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--workdir", str(WORK / f"{os.getpid()}-setup{k}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up run failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Timings:
    """Operation latencies, as measured and scaled to a reference speed.

    The machine's speed drifts by tens of percent over seconds to minutes
    (other tenants share its cores), and a whole run can sit in a slow
    spell.  So a calibration slice, a fixed piece of work of the kinds
    qpnet does, runs before each round and again whenever CAL_EVERY_NS of
    operation time have passed.  A latency is scaled by CAL_REF_NS over
    the median of the CAL_WINDOW slices centred on the one after it: the
    time it would have taken at the speed where a slice takes CAL_REF_NS.
    Slices are not timed as work.
    """

    def __init__(self):
        import numpy  # qpnet has loaded it by now

        self._np = numpy
        self._cell = numpy.arange(9.0).reshape(3, 3)
        self.raw_ns: list[int] = []
        self.slice_after: list[int] = []  # per operation, the next slice's index
        self.round_starts: list[int] = []
        self.slices_ns: list[int] = []

    def slice_ns(self) -> int:
        """Pure-Python arithmetic and allocation, small numpy array
        operations and random draws: the kinds of work qpnet does."""
        np, cell, clock = self._np, self._cell, time.perf_counter_ns
        start = clock()
        acc = 0
        for i in range(2000):
            acc += i * i
        table = {f"v{i}": (i, i + 1) for i in range(500)}
        acc += len(table)
        for _ in range(50):
            np.cumsum((cell * 2.0).sum(axis=0))
        for k in range(10):
            np.random.default_rng([7, k]).exponential(size=(3, 3))
        took = clock() - start
        self.slices_ns.append(took)
        return took

    def factors(self) -> list[float]:
        """Per operation, the factor that scales its time to the reference
        speed."""
        half = CAL_WINDOW // 2
        local = [
            statistics.median(self.slices_ns[max(0, j - half): j + half + 1])
            for j in range(len(self.slices_ns))
        ]
        return [CAL_REF_NS / local[j] for j in self.slice_after]

    def scaled_ns(self) -> list[float]:
        return [ns * f for ns, f in zip(self.raw_ns, self.factors())]

    def rounds_s(self, latencies_ns) -> list[float]:
        ends = self.round_starts[1:] + [len(latencies_ns)]
        return [sum(latencies_ns[a:b]) / 1e9 for a, b in zip(self.round_starts, ends)]


def run_round(ops, outputs, timings: Timings, after_op=None):
    """One round of every operation, in order, with garbage collection off.
    ``after_op``, if given, is called after each operation, untimed."""
    gc.collect()
    gc.disable()
    clock = time.perf_counter_ns
    timings.round_starts.append(len(timings.raw_ns))
    try:
        timings.slice_ns()
        waiting, waiting_ns = 0, 0  # operations since the last slice
        for k, op in enumerate(ops):
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # an operation that raises is checked as wrong
                out = exc
            took = clock() - t0
            outputs.append(out)
            timings.raw_ns.append(took)
            if after_op is not None:
                after_op()
            waiting += 1
            waiting_ns += took
            if waiting_ns >= CAL_EVERY_NS or k == len(ops) - 1:
                timings.slice_after += [len(timings.slices_ns)] * waiting
                timings.slice_ns()
                waiting, waiting_ns = 0, 0
    finally:
        gc.enable()


def run_rounds(ops, seconds, digests_per_round, timings: Timings, after_op=None):
    """Timed rounds until ``seconds`` have passed."""
    min_rounds = max(MIN_ROUNDS, math.ceil(MIN_OPS / len(ops)))
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        outputs = []
        run_round(ops, outputs, timings, after_op)
        digests_per_round.append([digest(op, out) for op, out in zip(ops, outputs)])
        rounds += 1


class Raised(str):
    """The digest of an operation that raised, or whose output could not
    be digested."""


def digest(op, out):
    if isinstance(out, Exception):
        return Raised(f"{type(out).__name__}: {out}")
    try:
        return op.digest(out)
    except Exception as exc:  # a malformed output is checked as wrong
        return Raised(f"output not understood: {type(exc).__name__}: {exc}")


def check_outputs(module, ops, digests_per_round):
    """(problems of operations not named as faults, labels of failed ops)."""
    first = digests_per_round[0]
    problems = {}
    clean = {}
    for op, d in zip(ops, first):
        if isinstance(d, Raised):
            problems[op.label] = [d]
        else:
            clean[op.label] = d
    for label, found in module.check(ops, clean).items():
        problems.setdefault(label, []).extend(found)
    for later in digests_per_round[1:]:
        for op, a, b in zip(ops, first, later):
            if a != b:
                problems.setdefault(op.label, []).append("output changed between rounds")
    faults = {op.label for op in ops if op.fault}
    failed = {label for label in problems if label in faults}
    wrong = {label: p for label, p in problems.items() if label not in faults}
    return wrong, failed


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(ops, timings: Timings, setup, peak_rss_mb: float, scaled=True) -> dict:
    latencies_ns = timings.scaled_ns() if scaled else timings.raw_ns
    lat_ms = [ns / 1e6 for ns in latencies_ns]
    rounds = timings.rounds_s(latencies_ns)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / statistics.median(rounds), "1/s"),
        "op_p50_ms": (quantile(lat_ms, 5), "ms"),
        "op_p90_ms": (quantile(lat_ms, 9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, untraced: Timings, traced: Timings) -> dict:
    """Per-layer totals per traced round, and the tracing overhead.  Span
    times are scaled by the factor of the operation they fall in."""
    n_rounds = len(traced.round_starts)
    factors = traced.factors()
    if len(factors) != len(tracer.per_op):
        raise RuntimeError("span totals do not line up with the traced operations")

    def scaled_ms(kind: int, span: str) -> float:  # kind 0: total, 1: self
        return sum(f * op[kind].get(span, 0) for f, op in zip(factors, tracer.per_op)) / 1e6

    out = {}
    for span, kinds in PER_LAYER_SPANS.items():
        for kind in kinds:
            if kind == "calls":
                out[f"{span}.calls"] = (tracer.calls[span] / n_rounds, "count")
            elif kind == "ms":
                out[f"{span}.ms"] = (scaled_ms(0, span) / n_rounds, "ms")
            else:
                out[f"{span}.self_ms"] = (scaled_ms(1, span) / n_rounds, "ms")
    for name in PER_LAYER_COUNTS:
        out[name] = (tracer.counts[name.removesuffix(".calls")] / n_rounds, "count")
    trials = tracer.counts["scenarios.trials"]
    search_s = scaled_ms(0, "scenarios.find_counterexample") / 1e3
    out["scenarios.trials_per_s"] = (trials / search_s if search_s else 0.0, "1/s")
    out["scenarios.accept_ratio"] = (
        tracer.counts["scenarios.accepted"] / trials if trials else 0.0, "ratio"
    )
    overhead = (
        statistics.median(traced.rounds_s(traced.scaled_ns()))
        / statistics.median(untraced.rounds_s(untraced.scaled_ns())) - 1
    )
    out["trace.overhead_pct"] = (100 * overhead, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:  # one set-up sample, in a fresh interpreter
        workdir = Path(args.workdir)
        try:
            print(set_up(args.workload, args.seed, workdir)[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = WORK / str(os.getpid())
    try:
        module, ops, setup_s = set_up(args.workload, args.seed, workdir)
        setup = [setup_s] + ([] if args.trace else setup_samples(args))

        run_round(ops, [], Timings())  # warm-up, untimed and unchecked
        digests = []
        if args.trace:
            import tracing

            untraced = Timings()
            run_rounds(ops, args.seconds / 2, digests, untraced)
            tracer = tracing.Tracer()
            tracer.install()
            tracer.enabled = True
            timings = Timings()
            run_rounds(ops, args.seconds / 2, digests, timings, tracer.end_op)
            tracer.enabled = False
        else:
            timings = Timings()
            run_rounds(ops, args.seconds, digests, timings)
        # read before the checks, whose reference computations are not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        wrong, failed = check_outputs(module, ops, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, found in sorted(wrong.items()):
        print(f"WRONG {label}: {'; '.join(found)}", file=sys.stderr)
    for op in ops:
        if op.label in failed:
            print(f"FAILED {op.label}, a named fault: {op.fault}", file=sys.stderr)

    n_rounds = len(digests)
    if args.trace:
        metrics = per_layer(tracer, untraced, timings)
    else:
        metrics = end_to_end(ops, timings, setup, peak_rss_mb)
    result = {
        "correct": not wrong,
        "attempted": n_rounds * len(ops),
        "failed": n_rounds * len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    unscaled = {k: v for k, (v, _) in end_to_end(ops, timings, setup, peak_rss_mb, scaled=False).items()}
    slice_ms = statistics.median(timings.slices_ns) / 1e6
    print(f"unscaled: {json.dumps(unscaled)}; calibration slice median {slice_ms:.4f} ms",
          file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json")
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "unscaled": unscaled, "calibration_slice_ms": slice_ms}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
