import contextlib
import gc
import json
import os
import resource
import subprocess
import sys
import weakref
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qpnet
from qpnet import dependence, io
from qpnet.cli import main
from qpnet.dependence import influence_sign, mlrp_check
from qpnet.errors import ParseError
from qpnet.inference import Mode, propagate
from qpnet.scenarios import table1_fixture
from qpnet.signs import Sign

TABLE1_DOC = {
    "variables": [
        {"name": "X", "support": [1, 2, 3]},
        {"name": "Y", "support": [1, 2, 3]},
    ],
    "probabilities": [0.2, 0.05, 0.075, 0.15, 0.15, 0.1, 0.075, 0.1, 0.1],
}

TWO_NODE_DOC = {
    "variables": [
        {"name": "X", "support": [1, 2, 3]},
        {"name": "Y", "support": [1, 2, 3]},
    ],
    "edges": [{"from": "X", "to": "Y", "sign": "+"}],
}

SHUTTLE_DOC = {
    "variables": [
        {"name": "HeOxTemp", "support": list(range(10))},
        {"name": "HeOxTempProbe", "support": list(range(10))},
        {"name": "HighOxTemp", "support": [0, 1]},
        {"name": "OxTankLeak", "support": [0, 1]},
        {"name": "OxPressureProbe", "support": [0, 1, 2]},
        {"name": "HeOxValveProblem", "support": [0, 1]},
    ],
    "edges": [
        {"from": "HeOxTemp", "to": "HeOxTempProbe", "sign": "+"},
        {"from": "HeOxTemp", "to": "HighOxTemp", "sign": "+"},
        {"from": "HeOxTemp", "to": "OxTankLeak", "sign": "+"},
        {"from": "HighOxTemp", "to": "OxTankLeak", "sign": "+"},
        {"from": "OxTankLeak", "to": "OxPressureProbe", "sign": "-"},
        {"from": "HeOxValveProblem", "to": "OxPressureProbe", "sign": "-"},
    ],
}

# p(x | y) puts all mass off the diagonal, so MLRP's witness ratio
# p(x'|y) / p(x'|y') divides by zero
ANTI_DIAGONAL_DOC = {
    "variables": [{"name": "X", "support": [0, 1]}, {"name": "Y", "support": [0, 1]}],
    "probabilities": [0, 0.5, 0.5, 0],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in [
        ("table1.json", TABLE1_DOC),
        ("two_node.json", TWO_NODE_DOC),
        ("shuttle.json", SHUTTLE_DOC),
        ("anti_diagonal.json", ANTI_DIAGONAL_DOC),
    ]:
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


class TestIo:
    def test_load_table_roundtrip(self, files, tmp_path):
        table = io.load_table(files["table1.json"])
        assert table.to_jsonable() == table1_fixture().to_jsonable()
        out = tmp_path / "dump.json"
        io.dump_table(table, out)
        assert io.load_table(out).to_jsonable() == table.to_jsonable()

    def test_load_network(self, files):
        qpn = io.load_network(files["two_node.json"])
        assert qpn.edges[0].sign is Sign.PLUS

    def test_unknown_keys_rejected(self, tmp_path):
        doc = dict(TABLE1_DOC)
        doc["comment"] = "nope"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            io.load_table(p)

    def test_unknown_edge_keys_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TWO_NODE_DOC))
        doc["edges"][0]["weight"] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            io.load_network(p)

    @pytest.mark.parametrize("key, value", [
        ("support", "ab"),
        ("support", ["1", "2"]),
        ("support", [False, True]),
        ("probabilities", ["0.25", "0.25", "0.25", "0.25"]),
        ("probabilities", [True, False, False, False]),
        ("support", [1, 10**400]),
        ("probabilities", [10**400, 0, 0, 0]),
    ])
    def test_non_numbers_rejected(self, tmp_path, key, value):
        variables = [{"name": "X", "support": [1, 2]}, {"name": "Y", "support": [1, 2]}]
        if key == "support":
            variables[0]["support"] = value
        table = {"variables": variables, "probabilities": [0.25, 0.25, 0.25, 0.25]}
        if key == "probabilities":
            table["probabilities"] = value
        network = {"variables": variables, "edges": [{"from": "X", "to": "Y", "sign": "+"}]}
        # a network file has no probabilities; its supports take the same parse
        cases = [(table, io.load_table, ["dependence", "--dist", "{}", "--x", "X", "--y", "Y"])]
        if key == "support":
            cases.append((network, io.load_network, ["propagate", "--network", "{}", "--observe", "X=+"]))
        for doc, load, command in cases:
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(doc))
            with pytest.raises(ParseError, match=key):
                load(p)
            result = CliRunner().invoke(main, [arg.format(p) for arg in command])
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert result.stdout == ""
            assert result.stderr.startswith("error: ")
            assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"variables": [1], "probabilities": [1]}',
        b'{"variables": [{"name": "X"}], "probabilities": [1]}',
        b'{"variables": {}, "probabilities": [1]}',
    ], ids=["not-utf8", "nested-too-deeply", "variable-not-an-object",
            "variable-missing-keys", "variables-not-a-list"])
    def test_malformed_file_is_an_input_error(self, tmp_path, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        with pytest.raises(ParseError, match="bad.json"):
            io.load_table(p)
        result = CliRunner().invoke(
            main, ["dependence", "--dist", str(p), "--x", "X", "--y", "Y"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("kind, text, key", [
        ("table", '{"variables": [], ' + json.dumps(TABLE1_DOC)[1:], "variables"),
        ("table", json.dumps(TABLE1_DOC).replace(
            '"support": [1, 2, 3]}', '"support": [1, 2, 3], "support": [1, 2, 4]}', 1), "support"),
        ("network", '{"edges": [], ' + json.dumps(TWO_NODE_DOC)[1:], "edges"),
        ("network", json.dumps(TWO_NODE_DOC).replace('"sign": "+"', '"sign": "-", "sign": "+"'), "sign"),
    ], ids=["table-top", "table-nested", "network-top", "network-nested"])
    def test_repeated_keys_rejected(self, tmp_path, kind, text, key):
        # otherwise the last value would win and the file would load
        p = tmp_path / "twice.json"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"twice.json: repeated key '{key}'"):
            (io.load_table if kind == "table" else io.load_network)(p)
        command = (["dependence", "--dist", str(p), "--x", "X", "--y", "Y"] if kind == "table"
                   else ["propagate", "--network", str(p), "--observe", "X=+"])
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {p}: repeated key '{key}'\n"

    def test_edges_must_be_a_list(self, tmp_path):
        doc = dict(TWO_NODE_DOC, edges={})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="'edges' must be a list"):
            io.load_network(p)

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\n  oops\n}")
        with pytest.raises(ParseError, match=":2:"):
            io.load_table(p)


class TestCli:
    def run(self, *args, code=0):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == code, result.output
        return result.output

    def test_check_satisfied(self, files):
        out = self.run(
            "check", "--network", files["two_node.json"], "--dist",
            files["table1.json"],
        )
        assert "satisfied" in out

    def test_check_violation_exit_code(self, files, tmp_path):
        doc = json.loads(json.dumps(TWO_NODE_DOC))
        doc["edges"][0] = {"from": "Y", "to": "X", "sign": "+"}
        p = tmp_path / "reversed.json"
        p.write_text(json.dumps(doc))
        out = self.run(
            "check", "--network", str(p), "--dist", files["table1.json"], code=1
        )
        assert "not satisfied" in out

    @pytest.mark.parametrize("variables, message", [
        ([{"name": "X", "support": [1, 2, 3]}, {"name": "Y", "support": [1, 2, 4]}],
         "variable 'Y' has support [1.0, 2.0, 4.0] in the table but [1.0, 2.0, 3.0] in the network"),
        ([{"name": "X", "support": [1, 2, 3]}, {"name": "Z", "support": [1, 2, 3]}],
         "network variables ['Y'] are missing from the table; "
         "table variables ['Z'] are not in the network"),
    ])
    def test_check_names_mismatched_variables(self, files, tmp_path, variables, message):
        p = tmp_path / "table.json"
        p.write_text(json.dumps({**TABLE1_DOC, "variables": variables}))
        result = CliRunner().invoke(
            main, ["check", "--network", files["two_node.json"], "--dist", str(p)]
        )
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: table does not match network: {message}\n"

    def test_parse_error_exit_code(self, files, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        result = CliRunner().invoke(
            main, ["check", "--network", str(p), "--dist", files["table1.json"]]
        )
        assert result.exit_code == 2

    def test_nan_probability_is_an_input_error(self, tmp_path):
        doc = {"variables": [{"name": "X", "support": [1, 2]},
                             {"name": "Y", "support": [1, 2]}],
               "probabilities": [0.5, float("nan"), 0.25, 0.25]}
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(doc))
        result = CliRunner().invoke(
            main, ["dependence", "--dist", str(p), "--x", "X", "--y", "Y"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("probabilities", [[], [1.0]])
    def test_table_without_variables_is_an_input_error(self, tmp_path, probabilities):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"variables": [], "probabilities": probabilities}))
        result = CliRunner().invoke(
            main, ["dependence", "--dist", str(p), "--x", "X", "--y", "Y"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "error: table must have at least one variable\n"

    @pytest.mark.parametrize("command, doc, key", [
        (["dependence", "--x", "X", "--y", "Y", "--dist"],
         {**TABLE1_DOC, "variables": [{"name": ["X"], "support": [1, 2, 3]},
                                      {"name": "Y", "support": [1, 2, 3]}]},
         "name"),
        (["propagate", "--observe", "X=+", "--network"],
         {**TWO_NODE_DOC, "variables": [{"name": "X", "support": [1, 2, 3]},
                                        {"name": 7, "support": [1, 2, 3]}]},
         "name"),
        (["propagate", "--observe", "X=+", "--network"],
         {**TWO_NODE_DOC, "edges": [{"from": ["X"], "to": "Y", "sign": "+"}]},
         "from"),
        (["propagate", "--observe", "X=+", "--network"],
         {**TWO_NODE_DOC, "edges": [{"from": "X", "to": {"Y": 1}, "sign": "+"}]},
         "to"),
    ])
    def test_non_string_name_is_an_input_error(self, tmp_path, command, doc, key):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, command + [str(p)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert f"'{key}' must be a string" in result.stderr
        assert result.stderr.count("\n") == 1

    def test_dependence_same_variable_is_an_input_error(self, files):
        result = CliRunner().invoke(
            main, ["dependence", "--dist", files["table1.json"], "--x", "X", "--y", "X"]
        )
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    def test_dependence_matches_library(self, files):
        out = self.run(
            "dependence", "--dist", files["table1.json"], "--x", "X", "--y", "Y",
            "--output", "json",
        )
        data = json.loads(out)
        table = table1_fixture()
        assert data["influence_forward"] == influence_sign(table, "X", "Y").to_jsonable()
        assert data["influence_reverse"] == influence_sign(table, "Y", "X").to_jsonable()
        assert data["mlrp"]["holds"] is False
        assert data["tp2"]["holds"] is False
        assert data["association"]["holds"] is True

    def test_dependence_conditions_on_a_level_of_tiny_mass(self, tmp_path):
        # log-linear, so TP2; Y=3 has mass 1.6e-11, below EPS_PROB, and MLRP
        # of X given Y still answers, with the TP2 verdict
        probs = np.power(10.0, [[-0.5, -0.5, -11.5], [-0.5, -0.25, -11.0], [-0.5, 0.0, -10.5]])
        doc = {
            "variables": [{"name": v, "support": [1, 2, 3]} for v in "XY"],
            "probabilities": (probs / probs.sum()).ravel().tolist(),
        }
        p = tmp_path / "tiny_level.json"
        p.write_text(json.dumps(doc))
        data = json.loads(self.run("dependence", "--dist", str(p), "--x", "X", "--y", "Y",
                                   "--output", "json"))
        assert data["mlrp"] == {"holds": True, "witness": None, "violation_count": 0}
        assert data["tp2"] == {"holds": True, "witness": None}

    def test_propagate_classical_matches_library(self, files):
        out = self.run(
            "propagate", "--network", files["shuttle.json"], "--observe",
            "HeOxTempProbe=+", "--mode", "classical", "--output", "json",
        )
        data = json.loads(out)
        expected = propagate(
            io.load_network(files["shuttle.json"]),
            "HeOxTempProbe",
            Sign.PLUS,
            Mode.CLASSICAL,
        )
        assert data["node_signs"] == {
            k: v.value for k, v in expected.node_signs.items()
        }

    def test_propagate_default_mode_is_sound(self, files):
        out = self.run(
            "propagate", "--network", files["shuttle.json"], "--observe",
            "HeOxTempProbe=+", "--output", "json",
        )
        assert json.loads(out)["mode"] == "sound"

    def test_propagate_observe_strips_spaces(self, files):
        def observe(text):
            return self.run(
                "propagate", "--network", files["shuttle.json"], "--observe", text,
                "--output", "json",
            )

        assert observe(" HeOxTempProbe = + ") == observe("HeOxTempProbe=+")

    def test_query_modes(self, files):
        classical = self.run(
            "query", "--network", files["two_node.json"], "--from", "Y",
            "--to", "X", "--mode", "classical", "--output", "json",
        )
        sound = self.run(
            "query", "--network", files["two_node.json"], "--from", "Y",
            "--to", "X", "--output", "json",
        )
        assert json.loads(classical)["sign"] == "+"
        assert json.loads(sound)["sign"] == "?"

    @pytest.mark.parametrize("option, message", [
        (["propagate", "--observe", "X+"], "--observe must look like NODE=+ or NODE=-, got 'X+'"),
        (["reverse", "--edge", "X->Y"], "--edge must look like A,B, got 'X->Y'"),
    ], ids=["observe", "edge"])
    def test_malformed_option_is_an_input_error(self, files, option, message):
        result = CliRunner().invoke(main, [*option, "--network", files["two_node.json"]])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_query_same_variable_is_an_input_error(self, files):
        result = CliRunner().invoke(
            main, ["query", "--network", files["two_node.json"], "--from", "X", "--to", "X"]
        )
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == "error: query endpoints must differ\n"

    def test_reduce(self, files, tmp_path):
        doc = {
            "variables": [
                {"name": "X1", "support": [0, 1]},
                {"name": "X2", "support": [0, 1]},
                {"name": "X3", "support": [0, 1]},
            ],
            "edges": [
                {"from": "X1", "to": "X2", "sign": "+"},
                {"from": "X2", "to": "X3", "sign": "-"},
            ],
        }
        p = tmp_path / "chain.json"
        p.write_text(json.dumps(doc))
        out = self.run(
            "reduce", "--network", str(p), "--node", "X2", "--output", "json"
        )
        assert json.loads(out)["edges"] == [{"from": "X1", "to": "X3", "sign": "-"}]

    def test_reverse(self, files):
        out = self.run(
            "reverse", "--network", files["two_node.json"], "--edge", "X,Y",
            "--mode", "classical", "--output", "json",
        )
        assert json.loads(out)["edges"] == [{"from": "Y", "to": "X", "sign": "+"}]

    def test_dsep(self, files):
        out = self.run(
            "dsep", "--network", files["shuttle.json"], "--a", "HeOxTempProbe",
            "--b", "HeOxValveProblem", "--output", "json",
        )
        assert json.loads(out)["d_separated"] is True

    def test_dsep_lists_each_given_name_once(self, files):
        out = self.run(
            "dsep", "--network", files["shuttle.json"], "--a", "HeOxTempProbe",
            "--b", "HeOxValveProblem", "--given", "OxTankLeak,HeOxTemp,OxTankLeak",
            "--output", "json",
        )
        assert json.loads(out)["given"] == ["HeOxTemp", "OxTankLeak"]

    def test_dependence_text_golden(self, files, monkeypatch):
        calls = []
        # the command imports mlrp_check from its module when it runs
        monkeypatch.setattr(
            dependence, "mlrp_check", lambda *args: calls.append(args) or mlrp_check(*args)
        )
        out = self.run("dependence", "--dist", files["table1.json"], "--x", "X", "--y", "Y")
        assert out == (
            "influence X->Y: positive\n"
            "influence Y->X: ambiguous\n"
            "mlrp: False\n"
            "tp2: False\n"
            "association: True\n"
            "  mlrp witness: x=3 x'=1 y=3 y'=2 ratios 1.0909 < 1.6364\n"
        )
        assert len(calls) == 1

    def test_demo_table1_text_golden(self):
        assert self.run("demo", "table1") == (
            "influence X->Y: positive\n"
            "influence Y->X: ambiguous\n"
            "mlrp: False\n"
        )

    def test_demo_table1(self):
        out = self.run("demo", "table1", "--output", "json")
        data = json.loads(out)
        assert data["influence_forward"]["verdict"] == "positive"
        assert data["influence_reverse"]["verdict"] == "ambiguous"
        assert data["mlrp"]["holds"] is False

    def test_demo_shuttle(self):
        out = self.run("demo", "shuttle", "--mode", "classical")
        assert "OxPressureProbe: -" in out
        assert "HeOxValveProblem: 0" in out

    def test_find_counterexample(self, files):
        out = self.run(
            "find-counterexample", "--network", files["two_node.json"],
            "--claim", "Y->X:+", "--seed", "42", "--trials", "5000",
            "--output", "json",
        )
        data = json.loads(out)
        assert data["found"] is True

    def test_find_counterexample_failure_exit_code(self, tmp_path):
        doc = {
            "variables": [
                {"name": "X", "support": [0, 1]},
                {"name": "Y", "support": [0, 1]},
            ],
            "edges": [{"from": "X", "to": "Y", "sign": "+"}],
        }
        p = tmp_path / "binary.json"
        p.write_text(json.dumps(doc))
        self.run(
            "find-counterexample", "--network", str(p), "--claim", "Y->X:+",
            "--seed", "1", "--trials", "200", code=1,
        )

    def test_find_counterexample_negative_seed_is_an_input_error(self, files):
        result = CliRunner().invoke(main, [
            "find-counterexample", "--network", files["two_node.json"],
            "--claim", "Y->X:+", "--seed", "-1",
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("claim", ["A-> :+", " ->B:+"])
    def test_find_counterexample_blank_endpoint_is_an_input_error(self, files, claim):
        result = CliRunner().invoke(main, [
            "find-counterexample", "--network", files["two_node.json"], "--claim", claim,
        ])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: claim must look like 'A->B:+', got {claim!r}\n"

    def test_output_is_byte_stable(self, files):
        args = [
            "propagate", "--network", files["shuttle.json"], "--observe",
            "HeOxTempProbe=+", "--trails", "--output", "json",
        ]
        first = CliRunner().invoke(main, args).output
        second = CliRunner().invoke(main, args).output
        assert first == second

    def test_propagate_on_a_chain_deeper_than_the_recursion_limit(self, tmp_path):
        names = [f"C{k}" for k in range(300)]
        doc = {
            "variables": [{"name": n, "support": [0, 1, 2]} for n in names],
            "edges": [{"from": a, "to": b, "sign": "+"} for a, b in zip(names, names[1:])],
        }
        p = tmp_path / "chain.json"
        p.write_text(json.dumps(doc))
        src = str(Path(qpnet.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import sys; sys.setrecursionlimit(200)\n"
            "from qpnet.cli import main\n"
            "main(sys.argv[1:], prog_name='qpnet')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "propagate", "--network", str(p),
             "--observe", "C0=+", "--output", "json"],
            capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        assert json.loads(proc.stdout)["node_signs"] == {n: "+" for n in names}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# one --output json call per command, naming files of the ``files`` fixture
JSON_CASES = {
    "check": ["check", "--network", "two_node.json", "--dist", "table1.json"],
    "dependence": ["dependence", "--dist", "anti_diagonal.json", "--x", "X", "--y", "Y"],
    "propagate": ["propagate", "--network", "shuttle.json", "--observe", "HeOxTempProbe=+", "--trails"],
    "query": ["query", "--network", "shuttle.json", "--from", "HeOxTemp", "--to", "OxPressureProbe"],
    "reduce": ["reduce", "--network", "shuttle.json", "--node", "HighOxTemp"],
    "reverse": ["reverse", "--network", "shuttle.json", "--edge", "HeOxTemp,HeOxTempProbe"],
    "dsep": ["dsep", "--network", "shuttle.json", "--a", "HeOxTemp", "--b", "HeOxValveProblem"],
    "find-counterexample": [
        "find-counterexample", "--network", "two_node.json", "--claim", "Y->X:+", "--trials", "50",
    ],
    "demo": ["demo", "table1"],
}


@pytest.mark.parametrize("command", sorted(JSON_CASES))
def test_json_output_is_strict(files, command):
    assert set(JSON_CASES) == set(main.commands)
    args = [files.get(arg, arg) for arg in JSON_CASES[command]]
    result = CliRunner().invoke(main, [*args, "--output", "json"])
    assert result.exit_code in (0, 1), result.output
    data = json.loads(result.stdout, parse_constant=_reject_constant)
    if command == "dependence":
        # an unbounded ratio: null in JSON, inf in the text line
        assert data["mlrp"]["witness"]["ratio_at_x_prime"] is None
        text = CliRunner().invoke(main, args).stdout
        assert "ratios 0.0000 < inf" in text


# one input per command that raises a QpnError inside the command
ERROR_CASES = {
    "check": ["check", "--network", "bad.json", "--dist", "bad.json"],
    "dependence": ["dependence", "--dist", "bad.json", "--x", "X", "--y", "Y"],
    "propagate": ["propagate", "--network", "bad.json", "--observe", "X=+"],
    "query": ["query", "--network", "bad.json", "--from", "X", "--to", "Y"],
    "reduce": ["reduce", "--network", "bad.json", "--node", "X"],
    "reverse": ["reverse", "--network", "bad.json", "--edge", "X,Y"],
    "dsep": ["dsep", "--network", "bad.json", "--a", "X", "--b", "Y"],
    "find-counterexample": [
        "find-counterexample", "--network", "bad.json", "--claim", "Y->X:+",
    ],
    "demo": ["demo", "shuttle", "--fault-prob", "2"],
}


def test_error_cases_cover_every_command():
    assert set(ERROR_CASES) == set(main.commands)


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_turns_an_input_error_into_exit_2(command):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("bad.json").write_text("{")
        result = runner.invoke(main, ERROR_CASES[command])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def test_find_counterexample_on_a_joint_too_large_to_sample(tmp_path):
    doc = {
        "variables": [{"name": f"V{k}", "support": [0, 1]} for k in range(70)],
        "edges": [{"from": "V0", "to": "V1", "sign": "+"}],
    }
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [
        "find-counterexample", "--network", str(p), "--claim", "V1->V0:+",
    ])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == (
        f"error: a joint of {2**70} cells over 70 variables exceeds the 2**31-cell guard\n"
    )


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))  # 1.5 GiB


@pytest.mark.parametrize("n, message", [
    # the association check's arrays would take 5.6 GB: refused by its guard
    (11, "over the association check's 1 GiB budget"),
    # the 2x2 minors of a 100x100 table would take 3.8 GiB: refused by the
    # MLRP/TP2 guard, which the command reaches first
    (100, "over the MLRP/TP2 check's 1 GiB budget"),
], ids=["association-budget", "out-of-memory"])
def test_dependence_beyond_memory_is_an_input_error(tmp_path, n, message):
    probs = np.random.default_rng(n).random((n, n))
    doc = {
        "variables": [{"name": v, "support": list(range(n))} for v in "XY"],
        "probabilities": (probs / probs.sum()).ravel().tolist(),
    }
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(doc))
    src = str(Path(qpnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import sys\nfrom qpnet.cli import main\nmain(sys.argv[1:], prog_name='qpnet')\n"
    # one BLAS thread: each further thread reserves buffers in the capped address space
    proc = subprocess.run(
        [sys.executable, "-c", script, "dependence", "--dist", str(p), "--x", "X", "--y", "Y"],
        capture_output=True, timeout=300, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    stderr = proc.stderr.decode()
    assert proc.returncode == 2, stderr[-500:]
    assert proc.stdout == b""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert message in stderr


def test_in_process_runs_keep_no_redirected_stream():
    # click.echo's own stream lookup kept each stream that replaced
    # sys.stdout or sys.stderr, with all that was written to it
    streams = []
    # the second run fails, so its error line goes to stderr
    for args in (["demo", "table1"], ["demo", "shuttle", "--fault-prob", "2"]):
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args, standalone_mode=False)
            except SystemExit:
                pass
        assert out.getvalue() or err.getvalue().startswith("error: ")
        streams += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [s() for s in streams] == [None] * 4


# ---- mutation fuzz of the input files ---------------------------------------

FUZZ_TABLE = {
    "variables": [
        {"name": "X", "support": [1, 2, 3]},
        {"name": "Y", "support": [1, 2, 3]},
        {"name": "Z", "support": [0, 1]},
    ],
    "probabilities": [k / 171 for k in range(1, 19)],
}

FUZZ_NETWORK = {
    "variables": FUZZ_TABLE["variables"],
    "edges": [
        {"from": "X", "to": "Y", "sign": "+"},
        {"from": "X", "to": "Z", "sign": "-"},
        {"from": "Y", "to": "Z", "sign": "?"},
    ],
}

# every command that reads a file, on the fuzzed table and network
FUZZ_COMMANDS = {
    "check": ["check", "--network", "net.json", "--dist", "table.json"],
    "dependence": ["dependence", "--dist", "table.json", "--x", "X", "--y", "Y"],
    "propagate": ["propagate", "--network", "net.json", "--observe", "Y=+", "--trails"],
    "query": ["query", "--network", "net.json", "--from", "Y", "--to", "Z"],
    "reduce": ["reduce", "--network", "net.json", "--node", "Y"],
    "reverse": ["reverse", "--network", "net.json", "--edge", "X,Y"],
    "dsep": ["dsep", "--network", "net.json", "--a", "X", "--b", "Z", "--given", "Y"],
    "find-counterexample": [
        "find-counterexample", "--network", "net.json", "--claim", "Z->X:-", "--trials", "5",
    ],
}

# values a mutation puts in place of a value, or under a new key
FUZZ_VALUES = (
    None, True, 0, -1, 0.5, 2, 10**400, 1e-320, float("nan"), float("inf"), "",
    "X", "Y", "+", [], [0], [1, 2, 3], {}, {"name": "W", "support": [0, 1]},
)
FUZZ_KEYS = ("name", "support", "from", "to", "sign", "variables", "edges", "probabilities", "extra")


def _mutated(doc, rng):
    """A copy of ``doc`` with a value replaced, a key dropped or added, or a
    list entry duplicated, somewhere in its tree."""
    doc = json.loads(json.dumps(doc))
    nodes, stack = [], [doc]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(v for v in (node.values() if isinstance(node, dict) else node)
                     if isinstance(v, (dict, list)))
    node = nodes[int(rng.integers(len(nodes)))]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    value = FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]
    kind = ("replace", "drop", "add", "duplicate")[int(rng.integers(4))] if keys else "add"
    key = keys[int(rng.integers(len(keys)))] if keys else None
    if kind == "replace":
        node[key] = value
    elif kind == "drop":
        del node[key]
    elif isinstance(node, dict):
        # a dict has no entries to duplicate: both kinds add a key
        node[FUZZ_KEYS[int(rng.integers(len(FUZZ_KEYS)))]] = value
    elif kind == "add":
        node.insert(int(rng.integers(len(node) + 1)), value)
    else:
        node.insert(key, node[key])
    return doc


def test_mutated_input_files_exit_cleanly():
    # every command on seeded mutations of its input files, in text and
    # JSON: exit 0, 1 or 2 and never a traceback; an exit 2 prints exactly
    # one error line and nothing on stdout
    assert set(FUZZ_COMMANDS) == set(main.commands) - {"demo"}  # demo reads no file
    rng = np.random.default_rng(2026)
    runner = CliRunner()
    codes = {0: 0, 1: 0, 2: 0}
    with runner.isolated_filesystem():
        for _ in range(150):
            table, network = FUZZ_TABLE, FUZZ_NETWORK
            for _ in range(int(rng.integers(3))):
                table = _mutated(table, rng)
            for _ in range(int(rng.integers(3))):
                network = _mutated(network, rng)
            Path("table.json").write_text(json.dumps(table))
            Path("net.json").write_text(json.dumps(network))
            for args in FUZZ_COMMANDS.values():
                for output in ("text", "json"):
                    result = runner.invoke(main, [*args, "--output", output])
                    case = (args[0], output, table, network, result.output)
                    assert result.exception is None or isinstance(result.exception, SystemExit), case
                    assert result.exit_code in codes, case
                    codes[result.exit_code] += 1
                    if result.exit_code == 2:
                        assert result.stdout == "", case
                        assert result.stderr.startswith("error: "), case
                        assert result.stderr.count("\n") == 1, case
    assert all(codes.values()), codes
