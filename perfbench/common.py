"""What the three workloads share: the operation record and the in-process
CLI call."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

import qpnet.cli


@dataclass
class Op:
    """One operation of a round.

    ``call`` runs the program and returns its raw output.  ``digest``
    turns that output into plain data, outside the timed region; every
    round's digest must equal the first round's, and the first round's
    digests are checked by the workload's ``check``.  ``fault`` names the
    program fault that makes this operation fail today; such an
    operation counts as failed while its check reports a problem.
    ``info`` holds what the workload's check needs to know about it.
    """

    label: str
    call: Callable[[], object]
    digest: Callable[[object], object]
    fault: Optional[str] = None
    info: object = None


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run ``qpnet <args>`` in this process; return (exit code, stdout).

    ``qpnet.cli.main`` is looked up at call time, so a traced run sees
    the wrapped entry point.
    """
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            qpnet.cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_digest(raw) -> tuple[int, dict]:
    """(exit code, parsed JSON output) of a ``--output json`` CLI call."""
    code, text = raw
    return code, json.loads(text) if text.strip() else None


def edges_of(qpn) -> list[tuple[str, str, str]]:
    return [(e.source, e.target, e.sign.value) for e in qpn.edges]
