"""Built-in fixtures and the randomized counterexample finder.

The 3x3 asymmetry table, the space-shuttle network with a concrete
joint distribution exhibiting the probe/temperature asymmetry, and a
search for distributions that satisfy a QPN while contradicting a claimed
inference.  The search samples only joints that satisfy the QPN by
construction: factorized over the DAG, with every conditional cdf made
FSD-monotone along its signed parents, so its blocks decide the claim alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dependence import (
    MEETS,
    VERDICTS,
    InfluenceVerdict,
    influence_sign,
    stack_verdict_codes,
)
from .dist import JointTable, VariableSpec, trial_blocks, valid_masses
from .errors import BadProbability, ParseError, QpnError, SupportTooLarge
from .graph import SignedDag, SignedEdge
from .semantics import SatisfactionReport, satisfies_qpn
from .signs import Sign


def table1_fixture() -> JointTable:
    """The 3x3 joint on {1,2,3}x{1,2,3} whose X->Y influence is positive
    while the reverse is ambiguous and the likelihood ratio is not
    monotone."""
    x = VariableSpec("X", (1, 2, 3))
    y = VariableSpec("Y", (1, 2, 3))
    rows = [
        [0.2, 0.05, 0.075],
        [0.15, 0.15, 0.1],
        [0.075, 0.1, 0.1],
    ]
    return JointTable((x, y), np.array(rows))


TEMP = "HeOxTemp"
PROBE = "HeOxTempProbe"
HIGH_OX = "HighOxTemp"
LEAK = "OxTankLeak"
PRESSURE = "OxPressureProbe"
VALVE = "HeOxValveProblem"


def shuttle_qpn() -> SignedDag:
    """Six-variable tank-temperature network with two probe sensors."""
    tens = tuple(range(10))
    variables = (
        VariableSpec(TEMP, tens),
        VariableSpec(PROBE, tens),
        VariableSpec(HIGH_OX, (0, 1)),
        VariableSpec(LEAK, (0, 1)),
        VariableSpec(PRESSURE, (0, 1, 2)),
        VariableSpec(VALVE, (0, 1)),
    )
    plus, minus = Sign.PLUS, Sign.MINUS
    edges = (
        SignedEdge(TEMP, PROBE, plus),
        SignedEdge(TEMP, HIGH_OX, plus),
        SignedEdge(TEMP, LEAK, plus),
        SignedEdge(HIGH_OX, LEAK, plus),
        SignedEdge(LEAK, PRESSURE, minus),
        SignedEdge(VALVE, PRESSURE, minus),
    )
    return SignedDag(variables, edges)


def shuttle_distribution(fault_prob: float = 0.05) -> JointTable:
    """A concrete joint satisfying the shuttle QPN.

    Temperature is uniform over ten levels; the probe copies it exactly
    except with probability ``fault_prob``, when it reads uniformly from
    the top half {5..9} independent of the true temperature.  A faulted
    probe is how the reverse influence (probe on temperature) breaks: a
    reading of 4 pins the temperature at 4, while readings of 5 and up
    leave mass below 4.  The remaining conditionals are a fixed monotone
    choice that keeps every edge sign valid.
    """
    if not 0.0 < fault_prob < 1.0:
        raise BadProbability(f"fault probability must be in (0, 1), got {fault_prob}")

    n = 10

    p_temp = np.full(n, 1.0 / n)

    # [temp, probe]
    p_probe = np.eye(n) * (1.0 - fault_prob) + np.where(np.arange(n) >= 5, fault_prob / 5.0, 0.0)

    high1 = 0.1 + 0.08 * np.arange(n)  # [temp]
    p_high = np.stack([1.0 - high1, high1], axis=1)  # [temp, high]

    leak1 = (
        0.05
        + 0.4 * (np.arange(n)[:, None] / 9.0)
        + 0.3 * np.array([0.0, 1.0])[None, :]
    )  # [temp, high]
    p_leak = np.stack([1.0 - leak1, leak1], axis=2)  # [temp, high, leak]

    by_severity = np.array(
        [
            [0.1, 0.2, 0.7],  # no leak, no valve problem
            [0.3, 0.4, 0.3],
            [0.6, 0.3, 0.1],  # both
        ]
    )
    p_pressure = by_severity[np.add.outer(np.arange(2), np.arange(2))]  # [leak, valve, pressure]

    p_valve = np.array([0.9, 0.1])

    dag = shuttle_qpn()
    cpts = [c[None] for c in (p_temp, p_probe, p_high, p_leak, p_pressure, p_valve)]
    return JointTable(dag.variables, _joint(_plan(dag)[0], cpts, 1)[0])


# ---- counterexample search ----------------------------------------------


@dataclass(frozen=True)
class Claim:
    """A claimed marginal influence of source on target."""

    source: str
    target: str
    claimed: Sign

    def __post_init__(self):
        if self.source == self.target:
            raise QpnError("claim endpoints must differ")
        if self.claimed not in (Sign.PLUS, Sign.MINUS, Sign.ZERO):
            raise QpnError(f"claimed sign must be +, - or 0, got {self.claimed}")


def parse_claim(text: str) -> Claim:
    """Parse ``source->target:sign`` claim syntax."""
    try:
        pair, sign = text.rsplit(":", 1)
        source, target = (end.strip() for end in pair.split("->"))
    except ValueError:
        raise ParseError(f"claim must look like 'A->B:+', got {text!r}") from None
    if not source or not target:
        raise ParseError(f"claim must look like 'A->B:+', got {text!r}")
    return Claim(source, target, Sign.from_str(sign.strip()))


@dataclass(frozen=True)
class CounterexampleReport:
    found: bool
    table: Optional[JointTable]
    qpn_report: Optional[SatisfactionReport]
    claim_verdict: Optional[InfluenceVerdict]
    trials_used: int
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "found": self.found,
            "trials_used": self.trials_used,
            "seed": self.seed,
            "table": self.table.to_jsonable() if self.table else None,
            "qpn_report": self.qpn_report.to_jsonable() if self.qpn_report else None,
            "claim_verdict": (
                self.claim_verdict.to_jsonable() if self.claim_verdict else None
            ),
        }


# one variable's part of a sampling plan; ``_plan`` says what each field holds
_Entry = namedtuple("_Entry", "columns shape signed order broadcast")


def _plan(dag: SignedDag) -> tuple[list[_Entry], int, int]:
    """The network's sampling plan: one ``_Entry`` per variable in
    declaration order, the number of draws a trial consumes and the joint's
    cell count.  An entry holds the variable's ``columns`` of a trial's
    draws; its CPT's ``shape`` on its family axes (parents ascending by
    table axis, then the variable); per '+' or '-' parent, in ``signed``,
    its axis on the batched CPT stack and whether it is '-'; and the
    ``order`` and ``broadcast`` that lay that stack out against the joint."""
    shape = [s.size for s in dag.variables]
    cells = math.prod(shape)
    # every variable has at least two levels, so a joint within the bound
    # has at most 31 axes and a batch of them fits numpy 1.x's 32; a joint
    # at the bound is already 16 GiB of float64
    if cells > 2**31:
        raise SupportTooLarge(
            f"a joint of {cells} cells over {len(shape)} variables exceeds "
            f"the 2**31-cell guard"
        )
    axis = {name: k for k, name in enumerate(dag.names)}
    plan, start = [], 0
    for v in dag.names:
        dims = tuple(sorted(axis[p] for p in dag.parents(v))) + (axis[v],)
        signs = [dag.edge_between(dag.names[d], v).sign for d in dims[:-1]]
        size = math.prod(shape[d] for d in dims)
        plan.append(_Entry(
            slice(start, start + size),
            tuple(shape[d] for d in dims),
            tuple((k, s is Sign.MINUS) for k, s in enumerate(signs, 1) if s is not Sign.QUESTION),
            (0, *(1 + k for k in np.argsort(dims).tolist())),
            tuple(n if d in dims else 1 for d, n in enumerate(shape)),
        ))
        start += size
    return plan, start, cells


def _cpts(plan: list[_Entry], draws: np.ndarray) -> list[np.ndarray]:
    """Each variable's CPT stack on its family axes, one CPT per row of
    ``draws``: the row's exponential draws, in variable order, normalized
    over the variable's levels.  Along every signed parent each conditional
    cdf is then the pointwise minimum of the cdfs at or below its parent
    level ('+') or at or above it ('-'), which makes the edge an
    FSD-monotone influence; '?' parents stay free."""
    cpts = []
    for entry in plan:
        draw = draws[:, entry.columns].reshape(len(draws), *entry.shape)
        cond = draw / draw.sum(axis=-1, keepdims=True)
        if entry.signed:
            cond = np.cumsum(cond, axis=-1)
            for k, flip in entry.signed:
                along = (slice(None),) * k + (slice(None, None, -1 if flip else 1),)
                cond = np.minimum.accumulate(cond[along], axis=k)[along]
            # cdf back to pmf; the first level's mass is its cdf
            cond[..., 1:] -= cond[..., :-1]
        cpts.append(cond)
    return cpts


def _joint(plan: list[_Entry], cpts: list[np.ndarray], batch: int) -> np.ndarray:
    """The (batch, *shape) stack of joints that are the product of the CPT
    stacks, each on its variable's family axes, in declaration order."""
    joint = np.ones((batch,) + (1,) * len(plan))
    for entry, cond in zip(plan, cpts):
        joint = joint * cond.transpose(entry.order).reshape(batch, *entry.broadcast)
    return joint


def sample_factorized(dag: SignedDag, rng: np.random.Generator) -> JointTable:
    """Random joint that satisfies the QPN on ``dag``: factorized over the
    DAG, so the Markov conditions hold, with every conditional pmf drawn
    uniformly from the simplex (normalized exponential draws) and then made
    FSD-monotone along each signed parent, so every signed edge holds.
    '?' parents are left free; on a DAG with only '?' edges every pmf is
    the uniform simplex draw itself."""
    plan, n_draws, _ = _plan(dag)
    # one call draws the values that one exponential call per variable would
    draws = rng.standard_exponential((1, n_draws))
    return JointTable(dag.variables, _joint(plan, _cpts(plan, draws), 1)[0])


def find_counterexample(
    dag: SignedDag, claim: Claim, seed: int, trials: int
) -> CounterexampleReport:
    """Sample joints satisfying the QPN until one contradicts the claim.

    Every trial's joint is built to satisfy the QPN (see
    ``sample_factorized``), so a trial is decided by the claim alone.
    Trial t draws its row of ``dist.trial_blocks``: row t mod C of a
    generator keyed by (seed, t // C), with C set by the table's cell
    count alone, so the result is reproducible and independent of how the
    trials are blocked.  Trials are decided in blocks, all of a block's
    tables at once; the first trial that contradicts the claim, or that
    fails table validation, is certified from its block's row through
    ``JointTable``, ``satisfies_qpn`` and ``influence_sign``, so a found
    report is self-certifying and a validation error is raised in trial
    order.
    """
    dag._require(claim.source, claim.target)
    source, target = dag.names.index(claim.source), dag.names.index(claim.target)
    refutes = ~MEETS[claim.claimed]
    plan, n_draws, cells = _plan(dag)
    for start, draws in trial_blocks(seed, cells, n_draws, trials):
        stack = _joint(plan, _cpts(plan, draws), len(draws))
        recheck = ~valid_masses(stack) | refutes[stack_verdict_codes(stack, source, target)]
        for k in np.flatnonzero(recheck).tolist():
            table = JointTable(dag.variables, stack[k])
            report = satisfies_qpn(table, dag)
            if report.satisfied:
                verdict = influence_sign(table, claim.source, claim.target)
                if refutes[VERDICTS.index(verdict.verdict)]:
                    return CounterexampleReport(
                        True, table, report, verdict, start + k + 1, seed
                    )
    return CounterexampleReport(False, None, None, None, trials, seed)
