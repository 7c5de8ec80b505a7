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
from .errors import BadProbability, ParseError, QpnError
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

    # axes: TEMP, PROBE, HIGH_OX, LEAK, PRESSURE, VALVE
    joint = (
        p_temp[:, None, None, None, None, None]
        * p_probe[:, :, None, None, None, None]
        * p_high[:, None, :, None, None, None]
        * p_leak[:, None, :, :, None, None]
        * np.transpose(p_pressure, (0, 2, 1))[None, None, None, :, :, :]
        * p_valve[None, None, None, None, None, :]
    )
    return JointTable(shuttle_qpn().variables, joint)


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

    def to_jsonable(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "claimed": self.claimed.value,
        }


def parse_claim(text: str) -> Claim:
    """Parse ``source->target:sign`` claim syntax."""
    try:
        pair, sign = text.rsplit(":", 1)
        source, target = pair.split("->")
    except ValueError:
        raise ParseError(f"claim must look like 'A->B:+', got {text!r}") from None
    if not source or not target:
        raise ParseError(f"claim must look like 'A->B:+', got {text!r}")
    return Claim(source.strip(), target.strip(), Sign.from_str(sign.strip()))


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


def _plan(dag: SignedDag) -> tuple[list[tuple], int]:
    """What ``_factorized`` needs of the network, and the number of draws a
    trial consumes.  Per variable, in declaration order: its columns of a
    trial's draws; its table's shape, parents ascending by table axis and
    then the variable; for each '+' or '-' parent, its axis on the batched
    table and whether it is '-'; the transpose of the batched table into
    table-axis order; and the shape that broadcasts it, after the batch
    axis, against the joint."""
    axis = {name: k for k, name in enumerate(dag.names)}
    shape = [s.size for s in dag.variables]
    plan, start = [], 0
    for v in dag.names:
        dims = tuple(sorted(axis[p] for p in dag.parents(v))) + (axis[v],)
        signs = [dag.edge_between(dag.names[d], v).sign for d in dims[:-1]]
        size = math.prod(shape[d] for d in dims)
        plan.append((
            slice(start, start + size),
            tuple(shape[d] for d in dims),
            tuple((k, s is Sign.MINUS) for k, s in enumerate(signs, 1) if s is not Sign.QUESTION),
            (0, *(1 + k for k in np.argsort(dims).tolist())),
            tuple(n if d in dims else 1 for d, n in enumerate(shape)),
        ))
        start += size
    return plan, start


def _factorized(plan: list[tuple], draws: np.ndarray) -> np.ndarray:
    """Stack of DAG-factorized joints, one per row of ``draws``: each row's
    exponential draws, consumed in variable order, normalized over the
    variable's levels into every conditional pmf of its table.  Where the
    variable has signed parents, each conditional cdf is then replaced by
    the pointwise minimum of the cdfs at or below its parent levels along
    every '+' axis and at or above them along every '-' axis, which makes
    every signed edge an FSD-monotone influence; '?' parents stay free."""
    b = len(draws)
    joint = np.ones((b,) + (1,) * len(plan))
    for columns, shape, signed, order, broadcast in plan:
        draw = draws[:, columns].reshape(b, *shape)
        cond = draw / draw.sum(axis=-1, keepdims=True)
        if signed:
            cond = np.cumsum(cond, axis=-1)
            for k, flip in signed:
                if flip:
                    cond = np.flip(np.minimum.accumulate(np.flip(cond, k), axis=k), k)
                else:
                    cond = np.minimum.accumulate(cond, axis=k)
            # cdf back to pmf; the first level's mass is its cdf
            cond[..., 1:] -= cond[..., :-1]
        cond = np.transpose(cond, order).reshape(b, *broadcast)
        joint = joint * cond
    return joint


def sample_factorized(dag: SignedDag, rng: np.random.Generator) -> JointTable:
    """Random joint that satisfies the QPN on ``dag``: factorized over the
    DAG, so the Markov conditions hold, with every conditional pmf drawn
    uniformly from the simplex (normalized exponential draws) and then made
    FSD-monotone along each signed parent, so every signed edge holds.
    '?' parents are left free; on a DAG with only '?' edges every pmf is
    the uniform simplex draw itself."""
    plan, n_draws = _plan(dag)
    # one call draws the values that one exponential call per variable would
    draws = rng.standard_exponential((1, n_draws))
    return JointTable(dag.variables, _factorized(plan, draws)[0])


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
    if trials <= 0:
        raise QpnError("trials must be positive")
    if seed < 0:
        raise QpnError(f"seed must be non-negative, got {seed}")
    dag._require(claim.source, claim.target)
    source, target = dag.names.index(claim.source), dag.names.index(claim.target)
    refutes = ~MEETS[claim.claimed]
    plan, n_draws = _plan(dag)
    cells = math.prod(s.size for s in dag.variables)
    for start, draws in trial_blocks(seed, cells, n_draws, trials):
        stack = _factorized(plan, draws)
        valid = valid_masses(stack)
        recheck = ~valid
        recheck[valid] = refutes[stack_verdict_codes(stack[valid], source, target)]
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
