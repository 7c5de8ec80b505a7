"""Reference figures for the rows of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Each figure is one measurement with
fixed seeds, in this process and thread, except the import time, which
is the median of five fresh interpreters, and the CLI process time,
the median of five ``python3 -m qpnet.cli demo table1`` processes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qpnet import scenarios, semantics  # noqa: E402
from qpnet.dist import VariableSpec  # noqa: E402
from qpnet.graph import Qpn, SignedDag, SignedEdge  # noqa: E402
from qpnet.inference import propagate, query  # noqa: E402
from qpnet.signs import Sign  # noqa: E402


def chain(levels: int, n: int) -> Qpn:
    names = [f"X{i + 1}" for i in range(n)]
    variables = tuple(VariableSpec(v, tuple(range(levels))) for v in names)
    edges = tuple(SignedEdge(a, b, Sign.PLUS) for a, b in zip(names, names[1:]))
    return Qpn(SignedDag(variables, edges))


def accepted(qpn: Qpn, trials: int) -> int:
    """Draws of find_counterexample's trials 0..trials-1 that satisfy the QPN."""
    return sum(
        semantics.satisfies_qpn(
            scenarios.sample_factorized(qpn.dag, np.random.default_rng([0, t])), qpn
        ).satisfied
        for t in range(trials)
    )


def random_dag(n: int, m: int, seed: int) -> Qpn:
    rng = np.random.default_rng([3000, n, seed])
    names = [f"N{i}" for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = sorted(rng.choice(len(pairs), size=m, replace=False))
    edges = tuple(SignedEdge(names[pairs[c][0]], names[pairs[c][1]], Sign.PLUS) for c in chosen)
    return Qpn(SignedDag(tuple(VariableSpec(v, (0, 1, 2)) for v in names), edges))


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def fresh(code: list[str], times: int = 5) -> float:
    runs = []
    for _ in range(times):
        start = time.perf_counter()
        subprocess.run(code, check=True, capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def main() -> None:
    claim = scenarios.parse_claim("X2->X1:+")
    report, took = timed(lambda: scenarios.find_counterexample(chain(2, 2), claim, 0, 5000))
    print(f"find_counterexample, 2-node binary QPN: {took / report.trials_used * 1e6:.0f} us/trial "
          f"({report.trials_used} trials in {took:.2f} s)")

    shuttle = scenarios.shuttle_qpn()
    n, took = timed(lambda: accepted(shuttle, 200))
    print(f"sample_factorized + satisfies_qpn, shuttle QPN: {took / 200 * 1e3:.1f} ms/trial; "
          f"{n} of 200 draws accepted")

    for levels in (3, 4, 5):
        print(f"rejection acceptance, 3-node chain at {levels} levels: "
              f"{accepted(chain(levels, 3), 2000)}/2000; 2-node at {levels} levels: "
              f"{accepted(chain(levels, 2), 2000)}/2000")

    for n, m in ((14, 30), (16, 32)):
        qpn = random_dag(n, m, 0)
        result, took = timed(lambda: propagate(qpn, "N0", Sign.PLUS))
        active = sum(len(v) for v in result.trail_log.values())
        queries = [timed(lambda: query(qpn, "N0", f"N{n - 1 - k}"))[1] for k in range(3)]
        print(f"propagate, random DAG of 3-level nodes, n={n}, {m} edges: {took * 1e3:.0f} ms "
              f"({active} active trails); query on it: max {max(queries) * 1e3:.1f} ms of 3")

    cmd = [sys.executable, "-c", "import qpnet, qpnet.cli"]
    bare = fresh([sys.executable, "-c", "pass"])
    print(f"import qpnet.cli in a fresh interpreter: {(fresh(cmd) - bare) * 1e3:.0f} ms "
          f"(numpy alone: {(fresh([sys.executable, '-c', 'import numpy']) - bare) * 1e3:.0f} ms; "
          f"bare interpreter {bare * 1e3:.0f} ms)")
    demo = fresh([sys.executable, "-m", "qpnet.cli", "demo", "table1"])
    print(f"qpnet demo table1, process start to exit: {demo * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
