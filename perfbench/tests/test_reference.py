"""Tests of the benchmark's reference checkers against facts fixed by hand.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math

import numpy as np
import pytest

import reference as ref

# The paper's table 1, p(X, Y) over {1, 2, 3} x {1, 2, 3}, rows X, columns Y.
TABLE1 = np.array(
    [
        [0.2, 0.05, 0.075],
        [0.15, 0.15, 0.1],
        [0.075, 0.1, 0.1],
    ]
)
XY = ("X", "Y")


def test_table1_influence_is_asymmetric():
    assert ref.influence(TABLE1, XY, "X", "Y") == ref.POSITIVE
    assert ref.influence(TABLE1, XY, "Y", "X") == ref.AMBIGUOUS


def test_table1_mlrp_violation_and_ratios():
    # p(x|y) at x=3, x'=1, y=3, y'=2: 1.0909 < 1.6364
    violations = {v[:4]: v[4:] for v in ref.mlrp_violations(TABLE1)}
    ratios = violations[(2, 0, 2, 1)]  # level indices of (3, 1, 3, 2)
    assert ratios == pytest.approx((1.0909, 1.6364), abs=1e-4)
    assert ref.tp2(TABLE1) is False


def test_mlrp_tp2_and_reverse_mlrp_agree_on_tiny_cells():
    # cross products of 3e-5 cells against diagonals of 1e-7 cells
    p = np.full((3, 3), 3e-5)
    np.fill_diagonal(p, 1e-7)
    p[2, 2] = 0.0
    p[2, 2] = 1.0 - p.sum()
    assert ref.tp2(p) is False
    assert ref.mlrp_violations(p) and ref.mlrp_violations(p.T)


def test_tp2_table_passes_all_checks():
    x = np.arange(4)
    p = np.exp(0.5 * np.outer(x, x))
    p /= p.sum()
    assert ref.tp2(p) and not ref.mlrp_violations(p) and ref.associated(p)
    assert ref.influence(p, XY, "X", "Y") == ref.POSITIVE
    assert ref.influence(p, XY, "Y", "X") == ref.POSITIVE


def test_association_on_hand_tables():
    assert ref.associated(np.full((3, 3), 1 / 9))  # independent
    anti = np.fliplr(np.eye(3)) / 3  # Y = 4 - X
    assert ref.associated(anti) is False
    assert ref.influence(anti, XY, "X", "Y") == ref.NEGATIVE
    assert ref.influence(np.full((3, 3), 1 / 9), XY, "X", "Y") == ref.ZERO


def test_upper_sets_are_the_staircases():
    masks = ref.upper_sets(3, 4)
    assert len(masks) == math.comb(7, 3)
    for m in masks.reshape(-1, 3, 4):
        for x in range(3):
            for y in range(4):
                if m[x, y]:
                    assert m[x:, y:].all()


def test_monotone_cpt_has_the_asked_signs():
    rng = np.random.default_rng(0)
    cpt = ref.monotone_cpt(rng, (3, 4, 3), "+-")
    assert np.allclose(cpt.sum(axis=-1), 1.0) and (cpt > 0).all()
    joint = np.full((3, 4), 1 / 12)[..., None] * cpt
    names = ("A", "B", "C")
    assert ref.influence(joint, names, "A", "C", ["B"]) == ref.POSITIVE
    assert ref.influence(joint, names, "B", "C", ["A"]) == ref.NEGATIVE
    edges = [("A", "C", "+"), ("B", "C", "-")]
    assert ref.factorizes(joint, names, edges)
    assert ref.violated_edges(joint, names, edges) == {}
    flipped = np.full((3, 4), 1 / 12)[..., None] * np.flip(cpt, axis=0)
    assert ref.violated_edges(flipped, names, edges) == {("A", "C"): ref.NEGATIVE}


def test_factorizes_sees_a_broken_independence():
    p = np.array([[0.4, 0.1], [0.1, 0.4]])  # X and Y dependent
    assert ref.factorizes(p, XY, [("X", "Y", "+")])
    assert not ref.factorizes(p, XY, [])


NODES = ["A", "B", "C", "D"]


def test_d_separation_on_chain_fork_and_collider():
    chain = [("A", "B", "+"), ("B", "C", "+")]
    assert not ref.d_separated(NODES, chain, "A", "C")
    assert ref.d_separated(NODES, chain, "A", "C", ["B"])
    collider = [("A", "C", "+"), ("B", "C", "+"), ("C", "D", "+")]
    assert ref.d_separated(NODES, collider, "A", "B")
    assert not ref.d_separated(NODES, collider, "A", "B", ["C"])
    assert not ref.d_separated(NODES, collider, "A", "B", ["D"])
    fork = [("B", "A", "+"), ("B", "C", "+")]
    assert not ref.d_separated(NODES, fork, "A", "C")
    assert ref.d_separated(NODES, fork, "A", "C", ["B"])


def test_propagate_chains_signs_and_stops_at_colliders():
    edges = [("A", "B", "+"), ("B", "C", "-"), ("D", "C", "+")]
    signs = ref.propagate(NODES, edges, set(), "A", "+", "classical")
    assert signs == {"A": "+", "B": "+", "C": "-", "D": "0"}
    # against the edges from C: classical keeps the signs, sound gives '?'
    # unless both ends are binary
    assert ref.propagate(NODES, edges, set(), "C", "+", "classical") == {
        "A": "-", "B": "-", "C": "+", "D": "+"
    }
    assert ref.propagate(NODES, edges, set(), "C", "+", "sound") == {
        "A": "?", "B": "?", "C": "+", "D": "?"
    }
    assert ref.propagate(NODES, edges, set(NODES), "C", "-", "sound") == {
        "A": "+", "B": "+", "C": "-", "D": "-"
    }


def test_parallel_trails_of_opposite_sign_sum_to_question():
    edges = [("A", "B", "+"), ("A", "C", "+"), ("B", "D", "+"), ("C", "D", "-")]
    assert ref.propagate(NODES, edges, set(), "A", "+", "classical")["D"] == "?"
