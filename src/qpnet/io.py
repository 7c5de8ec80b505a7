"""JSON file formats for distributions and networks.

Both formats are strict: unknown keys are rejected so typos fail loudly
instead of silently changing meaning.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .errors import ParseError
from .graph import SignedDag, SignedEdge
from .signs import Sign
from .variables import VariableSpec

if TYPE_CHECKING:
    from .dist import JointTable

PathLike = Union[str, Path]


def _load_json(path: PathLike) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from exc


def _require_keys(obj: dict, keys: set[str], where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - keys
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")


def _numbers(raw: object, what: str) -> list[float]:
    """``raw`` as floats if it is a list of JSON numbers; booleans, strings
    and integers beyond the float range are not."""
    if isinstance(raw, list) and set(map(type, raw)) <= {int, float}:
        try:
            return [float(x) for x in raw]
        except OverflowError:
            pass
    raise ParseError(f"{what} must be a list of numbers")


def _string(raw: object, what: str) -> str:
    if not isinstance(raw, str):
        raise ParseError(f"{what} must be a string")
    return raw


def _parse_variables(raw: object, where: str) -> tuple[VariableSpec, ...]:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: 'variables' must be a list")
    out = []
    for k, item in enumerate(raw):
        _require_keys(item, {"name", "support"}, f"{where}: variables[{k}]")
        name = _string(item["name"], f"{where}: variables[{k}]: 'name'")
        support = _numbers(item["support"], f"{where}: variables[{k}]: 'support'")
        out.append(VariableSpec(name, tuple(support)))
    return tuple(out)


def load_table(path: PathLike) -> JointTable:
    """Read a distribution file: variables plus row-major probabilities."""
    from .dist import JointTable  # numpy, which network files do not need

    doc = _load_json(path)
    _require_keys(doc, {"variables", "probabilities"}, str(path))
    variables = _parse_variables(doc["variables"], str(path))
    probs = _numbers(doc["probabilities"], f"{path}: 'probabilities'")
    return JointTable.from_flat(variables, probs)


def load_network(path: PathLike) -> SignedDag:
    """Read a network file: variables plus signed edges."""
    doc = _load_json(path)
    _require_keys(doc, {"variables", "edges"}, str(path))
    variables = _parse_variables(doc["variables"], str(path))
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError(f"{path}: 'edges' must be a list")
    edges = []
    for k, item in enumerate(raw_edges):
        _require_keys(item, {"from", "to", "sign"}, f"{path}: edges[{k}]")
        edges.append(SignedEdge(
            _string(item["from"], f"{path}: edges[{k}]: 'from'"),
            _string(item["to"], f"{path}: edges[{k}]: 'to'"),
            Sign.from_str(item["sign"]),
        ))
    return SignedDag(variables, tuple(edges))


def dump_table(obj: JointTable | SignedDag, path: PathLike) -> None:
    """Write a table, or a network as ``dump_network``, as indented JSON."""
    Path(path).write_text(
        json.dumps(obj.to_jsonable(), indent=2) + "\n", encoding="utf-8"
    )


dump_network = dump_table
