"""What importing qpnet loads, and the public surface it resolves.

Sign reasoning over a network needs no numpy, so ``import qpnet`` and the
graph commands of the CLI must not load it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qpnet
from qpnet import io
from qpnet.cli import main
from qpnet.scenarios import shuttle_qpn

SRC = str(Path(qpnet.__file__).resolve().parents[1])

# the child runs one command and reports, on its last stderr line, whether
# numpy was loaded by the time the command exited
RUN_COMMAND = """\
import sys
from qpnet.cli import main
try:
    main(sys.argv[1:], prog_name="qpnet")
finally:
    print(f"numpy loaded: {'numpy' in sys.modules}", file=sys.stderr)
"""


def run_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture(scope="module")
def shuttle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("net") / "shuttle.json"
    io.dump_network(shuttle_qpn(), path)
    return str(path)


GRAPH_COMMANDS = {
    "propagate": ["--observe", "HeOxTempProbe=+", "--trails", "--output", "json"],
    "query": ["--from", "HeOxTemp", "--to", "OxPressureProbe"],
    "reduce": ["--node", "HighOxTemp", "--output", "json"],
    "reverse": ["--edge", "HeOxTemp,HeOxTempProbe", "--mode", "classical"],
    "dsep": ["--a", "HeOxTemp", "--b", "HeOxValveProblem", "--given", "OxPressureProbe"],
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_graph_command_loads_no_numpy(shuttle_file, command):
    args = [command, "--network", shuttle_file, *GRAPH_COMMANDS[command]]
    in_process = CliRunner().invoke(main, args)
    assert in_process.exit_code == 0, in_process.output
    proc = run_python("-c", RUN_COMMAND, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == "numpy loaded: False"
    assert proc.stdout == in_process.stdout_bytes


def test_bare_import_loads_no_numpy():
    proc = run_python("-c", "import sys, qpnet; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


def test_table_modules_load_on_first_use():
    # entered in sys.modules by ``import qpnet``, so code that patches a
    # function there finds the module; numpy comes with the first read
    proc = run_python("-c", """\
import sys, qpnet
names = [f"qpnet.{m}" for m in ("dist", "dependence", "semantics", "scenarios")]
print(all(name in sys.modules for name in names), "numpy" in sys.modules)
check = sys.modules["qpnet.dependence"].mlrp_check
print(check is qpnet.mlrp_check, "numpy" in sys.modules)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"True False\nTrue True\n"


PUBLIC_NAMES = [
    "Cdf",
    "Claim",
    "ConditionalTable",
    "CounterexampleReport",
    "DominanceOrder",
    "EPS_CI",
    "EPS_PROB",
    "InfluenceVerdict",
    "JointTable",
    "Mode",
    "PropagationResult",
    "QueryResult",
    "SatisfactionReport",
    "Sign",
    "SignedDag",
    "SignedEdge",
    "VariableSpec",
    "Verdict",
    "association_check",
    "find_counterexample",
    "fsd_compare",
    "influence_sign",
    "markov_check",
    "mlrp_check",
    "parse_claim",
    "prop1_forward",
    "prop1_witness_search",
    "propagate",
    "query",
    "reduce_vertex",
    "reverse_edge",
    "sample_factorized",
    "satisfies_qpn",
    "shuttle_distribution",
    "shuttle_qpn",
    "sign_product",
    "sign_sum",
    "table1_fixture",
    "tp2_check",
    "validate",
]

# where each public name can be imported from
HOMES = {
    "dependence": [
        "ConditionalTable", "InfluenceVerdict", "Verdict", "association_check",
        "influence_sign", "mlrp_check", "prop1_forward", "prop1_witness_search",
        "tp2_check",
    ],
    "dist": [
        "Cdf", "DominanceOrder", "EPS_PROB", "JointTable", "VariableSpec",
        "fsd_compare", "validate",
    ],
    "graph": ["SignedDag", "SignedEdge"],
    "inference": [
        "Mode", "PropagationResult", "QueryResult", "propagate", "query",
        "reduce_vertex", "reverse_edge",
    ],
    "scenarios": [
        "Claim", "CounterexampleReport", "find_counterexample", "parse_claim",
        "sample_factorized", "shuttle_distribution", "shuttle_qpn", "table1_fixture",
    ],
    "semantics": ["EPS_CI", "SatisfactionReport", "markov_check", "satisfies_qpn"],
    "signs": ["Sign", "sign_product", "sign_sum"],
    "variables": ["EPS_PROB", "VariableSpec"],
}


def test_public_names_unchanged():
    assert qpnet.__all__ == PUBLIC_NAMES
    assert set().union(*HOMES.values()) == set(PUBLIC_NAMES)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_public_names_resolve_to_their_modules(module):
    home = importlib.import_module(f"qpnet.{module}")
    for name in HOMES[module]:
        assert name in PUBLIC_NAMES
        assert getattr(qpnet, name) is getattr(home, name), name


def test_star_import():
    namespace = {}
    exec("from qpnet import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(qpnet, name) for name in PUBLIC_NAMES)


def test_dir_lists_public_names():
    assert set(PUBLIC_NAMES) <= set(dir(qpnet))


@pytest.mark.parametrize("name", ["no_such_name", "Qpn", "Trail"])
def test_unknown_attribute(name):
    with pytest.raises(AttributeError, match=name):
        getattr(qpnet, name)
    assert not hasattr(qpnet, name)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_on_path(monkeypatch):
    """``perfbench/`` first on sys.path, its modules imported afresh and
    dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    stems = [path.stem for path in PERFBENCH.glob("*.py")]
    for stem in stems:
        monkeypatch.delitem(sys.modules, stem, raising=False)
    yield
    for stem in stems:
        sys.modules.pop(stem, None)


def test_names_the_benchmark_holds_resolve(perfbench_on_path):
    # the names the benchmark traces, the workloads it imports, and two
    # names its workloads read only when they run
    tracing = importlib.import_module("tracing")
    for _, module, attr in tracing.SPANNED_FUNCTIONS + tracing.COUNTED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _, module, cls, method in tracing.SPANNED_METHODS + tracing.COUNTED_METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, method)), (module, cls, method)
    for workload in ("search", "verify", "reason"):
        assert callable(importlib.import_module(workload).build), workload
    dag = shuttle_qpn()
    assert dag.dag is dag and callable(io.dump_network)


COMMAND_SUMMARIES = {
    "check": "Verify that a distribution satisfies a network.",
    "dependence": "All pairwise dependence checks for one variable pair.",
    "propagate": "Propagate a qualitative observation through the network.",
    "query": "Direction of influence of one variable on another.",
    "reduce": "Remove a vertex with at most one parent.",
    "reverse": "Reverse one edge, inheriting parents.",
    "dsep": "Graphical conditional-independence test.",
    "demo": "Built-in reproductions of the asymmetry demonstrations.",
    "find-counterexample": "Search random satisfying distributions for one refuting a claim.",
}


def test_every_command_is_summarized():
    assert sorted(main.commands) == sorted(COMMAND_SUMMARIES)


@pytest.mark.parametrize("command", sorted(COMMAND_SUMMARIES))
def test_help_shows_the_docstring_summary(command):
    result = CliRunner().invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    assert COMMAND_SUMMARIES[command] in result.stdout
