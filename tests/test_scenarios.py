import collections
import itertools
import json

import numpy as np
import pytest

from qpnet import dist, scenarios
from qpnet.dependence import Verdict, influence_sign, mlrp_check
from qpnet.dist import JointTable, VariableSpec
from qpnet.errors import (
    BadProbability,
    ParseError,
    QpnError,
    ShapeMismatch,
    SupportTooLarge,
)
from qpnet.graph import SignedDag, SignedEdge
from qpnet.scenarios import (
    Claim,
    CounterexampleReport,
    find_counterexample,
    parse_claim,
    sample_factorized,
    shuttle_distribution,
    shuttle_qpn,
    table1_fixture,
)
from qpnet.semantics import satisfies_qpn
from qpnet.signs import Sign


class TestTable1Fixture:
    def test_margins(self):
        assert np.allclose(
            table1_fixture().marginalize({"X"}).probabilities, [0.325, 0.4, 0.275]
        )

    def test_influence(self):
        assert influence_sign(table1_fixture(), "X", "Y").verdict is Verdict.POSITIVE

    def test_mlrp_ratios(self):
        w = mlrp_check(table1_fixture(), "X", "Y").witness
        assert w.ratio_upper == pytest.approx(1.09, abs=5e-3)
        assert w.ratio_lower == pytest.approx(1.64, abs=5e-3)

    def test_satisfies_its_own_qpn(self):
        t = table1_fixture()
        qpn = SignedDag(t.variables, (SignedEdge("X", "Y", Sign.PLUS),))
        assert satisfies_qpn(t, qpn).satisfied


class TestShuttleQpn:
    def test_structure(self):
        dag = shuttle_qpn()
        assert dag.parents("OxTankLeak") == {"HeOxTemp", "HighOxTemp"}
        assert dag.d_separated("HeOxValveProblem", "HeOxTemp")
        assert dag.edge_between("HeOxTemp", "HeOxTempProbe").sign is Sign.PLUS

    def test_supports(self):
        dag = shuttle_qpn()
        assert dag.variable("HeOxTemp").size == 10
        assert dag.variable("HighOxTemp").is_binary


class TestShuttleDistribution:
    def test_satisfies_qpn(self):
        assert satisfies_qpn(shuttle_distribution(0.05), shuttle_qpn()).satisfied

    def test_temp_positively_influences_probe(self):
        v = influence_sign(shuttle_distribution(), "HeOxTemp", "HeOxTempProbe")
        assert v.verdict is Verdict.POSITIVE

    def test_probe_does_not_positively_influence_temp(self):
        v = influence_sign(shuttle_distribution(), "HeOxTempProbe", "HeOxTemp")
        assert v.verdict is Verdict.AMBIGUOUS
        # the breaking pair straddles the fault band: reading 4 is exact,
        # reading 5 may come from a faulted probe
        assert (v.witness.upper, v.witness.lower) == (5.0, 4.0)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.5])
    def test_fault_prob_independence_of_the_argument(self, eps):
        table = shuttle_distribution(eps)
        fwd = influence_sign(table, "HeOxTemp", "HeOxTempProbe").verdict
        rev = influence_sign(table, "HeOxTempProbe", "HeOxTemp").verdict
        assert fwd is Verdict.POSITIVE
        assert rev is Verdict.AMBIGUOUS

    def test_bad_probability(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(BadProbability):
                shuttle_distribution(bad)


class TestClaimParsing:
    def test_roundtrip(self):
        claim = parse_claim("Y->X:+")
        assert claim == Claim("Y", "X", Sign.PLUS)

    def test_bad_syntax(self):
        for text in ("YX:+", "Y->X", "Y->X:*"):
            with pytest.raises(ParseError):
                parse_claim(text)
        # an endpoint that is empty once stripped
        for text in ("->X:+", "A-> :+", " ->B:+"):
            with pytest.raises(ParseError, match=r"claim must look like 'A->B:\+'"):
                parse_claim(text)

    def test_question_claim_rejected(self):
        with pytest.raises(QpnError):
            Claim("A", "B", Sign.QUESTION)

    def test_same_endpoints_rejected(self):
        with pytest.raises(QpnError, match="endpoints must differ"):
            parse_claim("X->X:+")


def two_node_qpn(size):
    variables = (
        VariableSpec("X", tuple(range(size))),
        VariableSpec("Y", tuple(range(size))),
    )
    return SignedDag(variables, (SignedEdge("X", "Y", Sign.PLUS),))


def parallel_qpn():
    """Binary A->B:+, A->C:+ and B->C:?."""
    variables = tuple(VariableSpec(n, (0, 1)) for n in "ABC")
    edges = (
        SignedEdge("A", "B", Sign.PLUS),
        SignedEdge("A", "C", Sign.PLUS),
        SignedEdge("B", "C", Sign.QUESTION),
    )
    return SignedDag(variables, edges)


class TestFindCounterexample:
    def test_ternary_symmetry_claim_refuted(self):
        report = find_counterexample(
            two_node_qpn(3), parse_claim("Y->X:+"), seed=42, trials=10_000
        )
        assert report.found
        # self-certifying: re-verify from scratch
        assert satisfies_qpn(report.table, two_node_qpn(3)).satisfied
        verdict = influence_sign(report.table, "Y", "X").verdict
        assert verdict in (Verdict.NEGATIVE, Verdict.AMBIGUOUS)

    def test_binary_symmetry_claim_survives(self):
        report = find_counterexample(
            two_node_qpn(2), parse_claim("Y->X:+"), seed=42, trials=3_000
        )
        assert not report.found
        assert report.trials_used == 3_000

    def test_deterministic_reports(self):
        a = find_counterexample(two_node_qpn(3), parse_claim("Y->X:+"), 7, 2000)
        b = find_counterexample(two_node_qpn(3), parse_claim("Y->X:+"), 7, 2000)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )

    def test_zero_trials_rejected(self):
        with pytest.raises(QpnError):
            find_counterexample(two_node_qpn(3), parse_claim("Y->X:+"), 1, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(QpnError, match="seed must be non-negative"):
            find_counterexample(two_node_qpn(3), parse_claim("Y->X:+"), -1, 10)


def test_sample_factorized_rejects_an_empty_network():
    with pytest.raises(ShapeMismatch, match="at least one variable"):
        sample_factorized(SignedDag((), ()), np.random.default_rng(0))


def wide_network(n):
    """``n`` binary variables and one '+' edge: a joint of 2**n cells."""
    variables = tuple(VariableSpec(f"V{k}", (0, 1)) for k in range(n))
    return SignedDag(variables, (SignedEdge("V0", "V1", Sign.PLUS),))


# numpy 2.x allows 64 axes and numpy 1.x 32, and a batch of joints has one
# more; these are too large to sample on either
@pytest.mark.parametrize("n", [64, 70])
def test_a_joint_too_large_to_sample_is_rejected(n):
    with pytest.raises(SupportTooLarge, match=f"{2**n} cells"):
        sample_factorized(wide_network(n), np.random.default_rng(0))
    with pytest.raises(SupportTooLarge, match=f"{2**n} cells"):
        find_counterexample(wide_network(n), parse_claim("V1->V0:+"), 0, 10)


def test_sample_factorized_obeys_markov():
    from qpnet.semantics import markov_check

    rng = np.random.default_rng(3)
    qpn = shuttle_qpn()
    table = sample_factorized(qpn, rng)
    assert markov_check(table, qpn) == []


def _in_box(sign, other, level):
    """Whether parent level ``other`` is in the box whose minimum gives the
    cdf at ``level``: at or below it along a '+' edge, at or above it along
    a '-' edge, equal to it along a '?' edge."""
    if sign is Sign.PLUS:
        return other <= level
    if sign is Sign.MINUS:
        return other >= level
    return other == level


def _per_variable_sample(dag, rng):
    """The sampler written from its definition, one exponential draw per
    variable and one loop per parent configuration: the reference for the
    draws, the monotone cdfs and their product.

    Each conditional pmf starts as a normalized draw.  Where the variable
    has a signed parent, its cdf at a parent configuration is the minimum
    of those raw cdfs over every configuration at or below it on the '+'
    axes, at or above it on the '-' axes and equal to it on the '?' axes.
    Without signed parents this is the sampler as it was first written."""
    specs = dag.variables
    axis = {s.name: k for k, s in enumerate(specs)}
    shape = tuple(s.size for s in specs)
    joint = np.ones(shape)
    for spec in specs:
        pa = sorted(dag.parents(spec.name), key=axis.__getitem__)
        dims = tuple(axis[p] for p in pa) + (axis[spec.name],)
        draw = rng.exponential(size=tuple(shape[d] for d in dims))
        cond = draw / draw.sum(axis=-1, keepdims=True)
        signs = [dag.edge_between(p, spec.name).sign for p in pa]
        if any(sign is not Sign.QUESTION for sign in signs):
            raw = np.cumsum(cond, axis=-1)
            cdf = np.empty_like(raw)
            configs = list(itertools.product(*(range(shape[axis[p]]) for p in pa)))
            for config in configs:
                box = [
                    raw[other]
                    for other in configs
                    if all(_in_box(*args) for args in zip(signs, other, config))
                ]
                cdf[config] = np.min(box, axis=0)
            cond = np.diff(cdf, axis=-1, prepend=0.0)
        cond = np.transpose(cond, np.argsort(dims))
        newshape = [1] * len(shape)
        for d in dims:
            newshape[d] = shape[d]
        joint = joint * cond.reshape(newshape)
    return JointTable(specs, joint)


def _all_question(qpn):
    """The network with every edge signed '?'."""
    edges = tuple(SignedEdge(e.source, e.target, Sign.QUESTION) for e in qpn.edges)
    return SignedDag(qpn.variables, edges)


def _contradicts(claimed, verdict):
    if claimed is Sign.PLUS:
        return verdict in (Verdict.NEGATIVE, Verdict.AMBIGUOUS)
    if claimed is Sign.MINUS:
        return verdict in (Verdict.POSITIVE, Verdict.AMBIGUOUS)
    return verdict is not Verdict.ZERO


def _cells(qpn):
    return int(np.prod([s.size for s in qpn.variables]))


def _chunk(qpn):
    """Trials per seeding chunk, by the rule stated in dist.trial_blocks."""
    return max(1, dist.SEED_CELLS // _cells(qpn))


def _trial_draw(qpn, seed, t, n_draws):
    """Trial t's draws, one-shot: row t % C of default_rng([seed, t // C])."""
    c = _chunk(qpn)
    return np.random.default_rng([seed, t // c]).standard_exponential((t % c + 1, n_draws))[-1]


def _per_trial_search(qpn, claim, seed, trials):
    """The search one trial at a time, each trial's table built alone from
    its own row: the reference for find_counterexample."""
    dag = qpn
    plan, n_draws, _ = scenarios._plan(dag)
    for t in range(trials):
        draw = _trial_draw(qpn, seed, t, n_draws)
        table = JointTable(dag.variables, scenarios._joint(plan, scenarios._cpts(plan, draw[None]), 1)[0])
        report = satisfies_qpn(table, qpn)
        if not report.satisfied:
            continue
        verdict = influence_sign(table, claim.source, claim.target)
        if _contradicts(claim.claimed, verdict.verdict):
            return CounterexampleReport(True, table, report, verdict, t + 1, seed)
    return CounterexampleReport(False, None, None, None, trials, seed)


def _random_qpn(rng):
    """2-4 variables of 2-4 levels, declared in name order while the
    topological order is a random permutation; edges of every sign, shuffled."""
    n = int(rng.integers(2, 5))
    names = [f"V{k}" for k in range(n)]
    order = rng.permutation(n)
    edges = [
        SignedEdge(names[order[a]], names[order[b]], Sign(str(rng.choice(["+", "-", "?"]))))
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < 0.6
    ]
    specs = tuple(VariableSpec(v, tuple(range(int(rng.integers(2, 5))))) for v in names)
    return SignedDag(specs, tuple(edges[k] for k in rng.permutation(len(edges))))


def _random_claim(qpn, rng):
    """Any claim, or, half the time, a signed edge's own sign: every draw
    meets that edge, so only a parallel path can refute the claim, and the
    first hit often comes late."""
    signed = [e for e in qpn.edges if e.sign is not Sign.QUESTION]
    if signed and rng.random() < 0.5:
        edge = signed[int(rng.integers(len(signed)))]
        return Claim(edge.source, edge.target, edge.sign)
    names = qpn.names
    a, b = rng.choice(len(names), 2, replace=False)
    return Claim(names[a], names[b], Sign(str(rng.choice(["+", "-", "0"]))))


def _block_starts(qpn):
    """First trial of every block the search decides at once: one chunk,
    then doubling up to the cell cap in whole chunks."""
    chunk = _chunk(qpn)
    cap = chunk * max(1, dist.BLOCK_CELLS // _cells(qpn) // chunk)
    starts, size = [0], chunk
    while starts[-1] < 10_000:
        starts.append(starts[-1] + size)
        size = min(2 * size, cap)
    return starts


def _dumps(report):
    return json.dumps(report.to_jsonable(), sort_keys=True)


def _compare_with_per_trial_search(rng, cases):
    """Check find_counterexample against the per-trial search on random
    QPNs, claims, seeds and budgets; count the situations covered."""
    seen = collections.Counter()
    for _ in range(cases):
        qpn = _random_qpn(rng)
        claim = _random_claim(qpn, rng)
        names = qpn.names
        budget = int(rng.choice([1, 2, 7, 8, 9, 20, 24, 25, 40]))
        seed = int(rng.integers(0, 1000))
        got = find_counterexample(qpn, claim, seed, budget)
        assert _dumps(got) == _dumps(_per_trial_search(qpn, claim, seed, budget))

        starts, chunk = _block_starts(qpn), _chunk(qpn)
        blocks = [(s, min(e, budget)) for s, e in zip(starts, starts[1:]) if s < budget]
        seen[f"claim {claim.claimed.value}"] += 1
        seen["found" if got.found else "not found"] += 1
        seen["budget ends mid-block"] += budget not in starts
        seen["declared out of topological order"] += qpn._order != names
        seen["hit past the first block"] += got.found and got.trials_used > starts[1]
        seen["block straddles a chunk edge"] += any(s // chunk != (e - 1) // chunk for s, e in blocks)
        seen["hit past the first chunk"] += got.found and got.trials_used > chunk
        seen["one trial per chunk"] += chunk == 1
    return seen


class TestBlockedSearch:
    def test_sampler_matches_one_draw_per_variable(self):
        rng = np.random.default_rng(8)
        seen = collections.Counter()
        for k in range(100):
            qpn = _random_qpn(rng)
            for dag in (qpn, _all_question(qpn)):
                got = sample_factorized(dag, np.random.default_rng([k, 1]))
                want = _per_variable_sample(dag, np.random.default_rng([k, 1]))
                assert got.probabilities.tobytes() == want.probabilities.tobytes()
            seen["signed edge"] += any(e.sign is not Sign.QUESTION for e in qpn.edges)
            seen["signed and '?' parents"] += any(
                len({qpn.edge_between(p, v).sign for p in qpn.parents(v)}) > 1
                for v in qpn.names
            )
        for key in ("signed edge", "signed and '?' parents"):
            assert seen[key] > 0, key
        dag = shuttle_qpn()
        got = sample_factorized(dag, np.random.default_rng(5)).probabilities
        assert got.tobytes() == _per_variable_sample(dag, np.random.default_rng(5)).probabilities.tobytes()

    def test_matches_per_trial_search(self):
        seen = _compare_with_per_trial_search(np.random.default_rng(12), 150)
        for key in ("claim +", "claim -", "claim 0", "found", "not found", "budget ends mid-block",
                    "declared out of topological order"):
            assert seen[key] > 0, key

    def test_matches_per_trial_search_across_chunk_edges(self, monkeypatch):
        # small chunks, so that blocks span several chunks and hits land
        # past the first block and the first chunk
        monkeypatch.setattr(dist, "SEED_CELLS", 20)
        seen = _compare_with_per_trial_search(np.random.default_rng(13), 120)
        for key in ("found", "not found", "block straddles a chunk edge", "hit past the first block",
                    "hit past the first chunk", "one trial per chunk"):
            assert seen[key] > 0, key

    def test_reports_do_not_depend_on_the_block_shape(self, monkeypatch):
        rng = np.random.default_rng(14)
        cases = []
        for _ in range(40):
            qpn = _random_qpn(rng)
            cases.append((qpn, _random_claim(qpn, rng), int(rng.integers(0, 1000)), int(rng.choice([1, 9, 60, 300]))))
        want = [_dumps(find_counterexample(*case)) for case in cases]
        assert any(json.loads(w)["found"] for w in want)
        for cells in (1, 50, 1000, 1 << 20):
            monkeypatch.setattr(dist, "BLOCK_CELLS", cells)
            assert [_dumps(find_counterexample(*case)) for case in cases] == want

    @pytest.mark.parametrize("seed, first_hit", [(10, 2), (16, 6), (29, 14), (41, 30)])
    def test_hit_on_the_first_trial_of_a_block(self, monkeypatch, seed, first_hit):
        # the claim runs along a signed edge with a parallel '?' path, and
        # about one draw in ten refutes it, so first hits land past block 1;
        # chunks of 2 trials on 8 cells give blocks at 0, 2, 6, 14, 30
        monkeypatch.setattr(dist, "SEED_CELLS", 16)
        qpn, claim = parallel_qpn(), parse_claim("A->C:+")
        assert first_hit in _block_starts(qpn)
        for budget in (first_hit, first_hit + 1, first_hit + 5, 200):
            got = find_counterexample(qpn, claim, seed, budget)
            assert _dumps(got) == _dumps(_per_trial_search(qpn, claim, seed, budget))
        assert got.trials_used == first_hit + 1

    def test_blocks_are_whole_seeding_chunks(self):
        # (cells, budget): one chunk of 1,024 trials, of 128, of 113 with a
        # cap that is not a power of two, one trial per chunk with a cap
        # of 109 and of 13, and a budget inside the first chunk
        for cells, budget in ((1, 5000), (8, 1000), (9, 20_000), (600, 500), (5000, 40), (8, 7)):
            chunk = max(1, dist.SEED_CELLS // cells)
            cap = chunk * max(1, dist.BLOCK_CELLS // cells // chunk)
            blocks = list(dist.trial_blocks(7, cells, 3, budget))
            starts = [start for start, _ in blocks]
            sizes = [len(rows) for _, rows in blocks]
            assert all(start % chunk == 0 for start in starts)
            assert starts == [sum(sizes[:k]) for k in range(len(sizes))]
            assert sum(sizes) == budget
            want = [chunk]
            while len(want) < len(sizes):
                want.append(min(2 * want[-1], cap))
            assert sizes[:-1] == want[:-1] and sizes[-1] == min(want[-1], budget - starts[-1])
            rows = np.concatenate([rows for _, rows in blocks])
            for k in range(0, budget, chunk):
                drawn = np.random.default_rng([7, k // chunk]).standard_exponential((min(chunk, budget - k), 3))
                assert rows[k : k + chunk].tobytes() == drawn.tobytes()

    def test_validation_error_keeps_trial_order(self, monkeypatch):
        qpn, claim, seed = parallel_qpn(), parse_claim("A->C:+"), 33
        found = find_counterexample(qpn, claim, seed, 100)
        first_hit = found.trials_used - 1
        assert first_hit > 1
        cpts = scenarios._cpts

        def poison(trial):
            """Make the trial's table NaN, in a block and alone alike."""
            marker = _trial_draw(qpn, seed, trial, scenarios._plan(qpn)[1])[0]

            def patched(plan, draws):
                stacks = cpts(plan, draws)
                stacks[0][draws[:, 0] == marker] = np.nan
                return stacks

            monkeypatch.setattr(scenarios, "_cpts", patched)

        for trial in (0, first_hit - 1):
            poison(trial)
            with pytest.raises(BadProbability):
                _per_trial_search(qpn, claim, seed, 100)
            with pytest.raises(BadProbability):
                find_counterexample(qpn, claim, seed, 100)
        poison(first_hit + 1)
        assert _dumps(find_counterexample(qpn, claim, seed, 100)) == _dumps(found)
