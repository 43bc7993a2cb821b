"""Set-of-support resolution: the ground rule, sequence validation, the
saturation search, the path correspondence in both directions, and the
hyper-resolution depth contrast on goal-tree Horn sets."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from altpath.clauses import Clause, ClauseSet, Literal
from altpath.generators import horn_tree, random_ground
from altpath.graph import FIRST_ORDER, INF, bfs_from_support, build_graph
from altpath.resolution import (
    LIMIT,
    REFUTED,
    SATURATED,
    ResolutionSequence,
    SequenceEntry,
    format_sequence,
    hyper_resolution_levels,
    linear_sequence_from_path,
    resolve,
    sos_refute,
    validate_sequence,
    verify_support_path_property,
)
from tests.test_graph import ground_set, lit

from oracles import clause_set_sat, minimal_unsat_subsets, truth_table_sat


def _input_ids(seq: ResolutionSequence) -> set[int]:
    return {e.clause.id for e in seq.entries if e.is_input}


def _depth(seq: ResolutionSequence) -> int:
    """Derivation depth of the last clause: inputs count zero, a resolvent
    is one deeper than its deeper parent."""
    depth: list[int] = []
    for e in seq.entries:
        depth.append(0 if e.is_input else 1 + max(depth[i - 1] for i in e.parents))
    return depth[-1]


def goal_tree_11() -> ClauseSet:
    """One goal unit, one rule for it, three subgoal rules, six facts.
    The goal clause c1 is the support set; distances run 1, 2, 3, 3, 3
    and 4 for each fact."""
    return ground_set(
        "~p",
        "p ~q1 ~q2 ~q3",
        "q1 ~r1 ~r2",
        "q2 ~r3 ~r4",
        "q3 ~r5 ~r6",
        "r1",
        "r2",
        "r3",
        "r4",
        "r5",
        "r6",
    )


# ---------------------------------------------------------------------------
# resolve


def test_resolve_basic():
    c1 = Clause(1, (lit("p"), lit("q")))
    c2 = Clause(2, (lit("~p"), lit("r")))
    out = resolve(c1, c2, lit("p"))
    assert set(out.literals) == {lit("q"), lit("r")}


def test_resolve_units_gives_empty_clause():
    out = resolve(Clause(1, (lit("p"),)), Clause(2, (lit("~p"),)), lit("p"))
    assert out.is_empty


def test_resolve_merges_shared_literals():
    out = resolve(Clause(1, (lit("p"), lit("q"))), Clause(2, (lit("~p"), lit("q"))), lit("p"))
    assert set(out.literals) == {lit("q")}


def test_resolve_orientation_is_symmetric():
    c1 = Clause(1, (lit("~p"), lit("r")))
    c2 = Clause(2, (lit("p"), lit("q")))
    out = resolve(c1, c2, lit("p"))
    assert set(out.literals) == {lit("q"), lit("r")}
    # a negative literal selects the same atom
    same = resolve(c1, c2, lit("~p"))
    assert set(same.literals) == set(out.literals)


def test_resolve_rejects_non_complementary_atom():
    with pytest.raises(ValueError, match="opposite signs"):
        resolve(Clause(1, (lit("p"),)), Clause(2, (lit("p"),)), lit("p"))
    with pytest.raises(ValueError, match="opposite signs"):
        resolve(Clause(1, (lit("p"),)), Clause(2, (lit("~p"),)), lit("q"))


@st.composite
def resolvable_pair(draw):
    pool = [str(i) for i in range(1, 5)]
    atom = draw(st.sampled_from(pool))
    extra = st.lists(
        st.tuples(st.sampled_from(pool), st.booleans()), min_size=0, max_size=3
    )
    c1 = [Literal(True, atom)] + [Literal(s, p) for p, s in draw(extra)]
    c2 = [Literal(False, atom)] + [Literal(s, p) for p, s in draw(extra)]
    return Clause(1, tuple(c1)), Clause(2, tuple(c2)), Literal(True, atom)


@settings(max_examples=150, deadline=None)
@given(resolvable_pair())
def test_resolvent_is_entailed_by_its_parents(pair):
    c1, c2, atom = pair
    out = resolve(c1, c2, atom)
    negation = [Clause(0, (l.negated(),)) for l in out.literals]
    assert not truth_table_sat([c1, c2] + negation)


# ---------------------------------------------------------------------------
# sequence validation


def test_validate_minimal_refutation():
    cs = ground_set("p", "~p")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(2), supported=True),
            SequenceEntry(cs.by_id(1)),
            SequenceEntry(Clause(3, ()), (1, 2), lit("p"), supported=True),
        )
    )
    validate_sequence(seq, cs, [2])
    assert seq.entries[-1].clause.is_empty
    assert seq.resolution_count == 1
    assert _depth(seq) == 1


def test_validate_rejects_unknown_input_id():
    cs = ground_set("p", "~p")
    seq = ResolutionSequence((SequenceEntry(Clause(9, (lit("p"),))),))
    with pytest.raises(ValueError, match="input id 9"):
        validate_sequence(seq, cs, [2])


def test_validate_rejects_changed_input_literals():
    cs = ground_set("p", "~p")
    seq = ResolutionSequence((SequenceEntry(Clause(1, (lit("q"),))),))
    with pytest.raises(ValueError, match="differ from clause c1"):
        validate_sequence(seq, cs, [2])


def test_validate_rejects_wrong_resolvent():
    cs = ground_set("p q", "~p")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(2), supported=True),
            SequenceEntry(cs.by_id(1)),
            SequenceEntry(Clause(3, (lit("r"),)), (1, 2), lit("p"), supported=True),
        )
    )
    with pytest.raises(ValueError, match="not the resolvent"):
        validate_sequence(seq, cs, [2])


def test_validate_rejects_forward_parents():
    cs = ground_set("p", "~p")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(2), supported=True),
            SequenceEntry(Clause(2, ()), (1, 3), lit("p"), supported=True),
            SequenceEntry(cs.by_id(1)),
        )
    )
    with pytest.raises(ValueError, match="earlier entries"):
        validate_sequence(seq, cs, [2])


def test_validate_rejects_wrong_supported_flag():
    cs = ground_set("p", "~p")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(2), supported=False),  # c2 is the support
            SequenceEntry(cs.by_id(1)),
        )
    )
    with pytest.raises(ValueError, match="supported flag"):
        validate_sequence(seq, cs, [2])


def test_validate_rejects_unsupported_resolution_step():
    cs = ground_set("p", "~p", "q")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(1)),
            SequenceEntry(cs.by_id(2)),
            SequenceEntry(Clause(3, ()), (1, 2), lit("p")),
        )
    )
    with pytest.raises(ValueError, match="no supported parent"):
        validate_sequence(seq, cs, [3])


def test_validate_accepts_tautology_resolvent():
    cs = ground_set("p q", "~p ~q")
    taut = resolve(cs.by_id(1), cs.by_id(2), lit("p"))
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(1), supported=True),
            SequenceEntry(cs.by_id(2)),
            SequenceEntry(Clause(3, taut.literals), (1, 2), lit("p"), supported=True),
        )
    )
    validate_sequence(seq, cs, [1])


def test_identical_literals_count_as_support_membership():
    # c3 repeats the support clause c1 under another id; a step whose only
    # support-connected parent is c3 is still within the discipline
    cs = ground_set("~p", "p q", "~p")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(3), supported=True),
            SequenceEntry(cs.by_id(2)),
            SequenceEntry(Clause(3, (lit("q"),)), (1, 2), lit("p"), supported=True),
        )
    )
    validate_sequence(seq, cs, [1])


# ---------------------------------------------------------------------------
# sos_refute


def test_sos_two_units():
    cs = ground_set("p", "~p")
    res = sos_refute(cs, [2])
    assert res.status == REFUTED
    assert res.levels == 1
    assert res.derived_count == 1
    assert format_sequence(res.sequence).splitlines() == [
        "1. ~p  [input]  supported=True",
        "2. p  [input]  supported=False",
        "3. $false  [resolve(1,2) on p]  supported=True",
    ]
    validate_sequence(res.sequence, cs, [2])


def test_sos_goal_tree_needs_ten_resolutions():
    cs = goal_tree_11()
    res = sos_refute(cs, [1])
    assert res.status == REFUTED
    assert res.levels == 10
    seq = res.sequence
    assert seq.entries[-1].clause.is_empty
    assert seq.resolution_count == 10
    assert len(seq.entries) == 21
    assert sorted(_input_ids(seq)) == list(range(1, 12))
    validate_sequence(seq, cs, [1])
    assert verify_support_path_property(seq, cs, [1])


def test_sos_saturates_on_satisfiable_input():
    cs = ground_set("p q", "~p")
    res = sos_refute(cs, [2])
    assert res.status == SATURATED
    assert res.sequence is None
    assert res.levels == 1


def test_sos_respects_level_limit():
    res = sos_refute(goal_tree_11(), [1], max_levels=5)
    assert res.status == LIMIT
    assert res.sequence is None
    assert res.levels == 5


def test_sos_keeps_resolvent_that_repeats_unsupported_input():
    # the derived q duplicates input c3; dropping it would lose the only
    # supported route to the contradiction
    cs = ground_set("p", "~p q", "q", "~q")
    res = sos_refute(cs, [1])
    assert res.status == REFUTED
    assert res.levels == 2
    assert sorted(_input_ids(res.sequence)) == [1, 2, 4]


def test_sos_counts_derived_clauses_per_level():
    res = sos_refute(goal_tree_11(), [1])
    assert res.per_level == (1, 3, 9, 16, 24, 27, 23, 15, 6, 1)
    assert sum(res.per_level) == res.derived_count == 125
    # c2 and c3 each resolve with c1, giving q r and p r s; level 2 keeps
    # r s from q r and c3 and drops the same clause from p r s and c2
    res = sos_refute(ground_set("p q r", "~p", "~q s"), [2, 3])
    assert res.status == SATURATED
    assert res.levels == 2
    assert res.per_level == (2, 1)
    assert res.derived_count == 3


def test_sos_with_only_tautological_support_is_saturated():
    # the support clause is dropped as a tautology, so nothing is supported
    # and the search stops at once: a fixpoint, not a budget
    res = sos_refute(ground_set("p ~p", "~q", "q"), [1])
    assert res.status == SATURATED
    assert res.levels == 0
    assert res.derived_count == 0
    assert res.per_level == ()


def test_sos_refutes_a_long_implication_chain():
    # one resolvent per level; the emitted derivation is 1501 deep
    n = 1500
    cs = ground_set("~p0", *(f"p{i} ~p{i + 1}" for i in range(n)), f"p{n}")
    res = sos_refute(cs, [1], max_levels=5000)
    assert res.status == REFUTED
    assert res.per_level == (1,) * (n + 1)
    validate_sequence(res.sequence, cs, [1])
    assert _depth(res.sequence) == n + 1


def test_sos_handles_empty_input_clause():
    cs = ClauseSet.from_clauses([Clause(1, ()), Clause(2, (lit("p"),))])
    res = sos_refute(cs, [2])
    assert res.status == REFUTED
    assert res.sequence.entries[-1].clause.is_empty
    assert res.sequence.resolution_count == 0


def test_sos_rejects_bad_support():
    cs = ground_set("p", "~p")
    with pytest.raises(ValueError, match="support id 9"):
        sos_refute(cs, [9])
    with pytest.raises(ValueError, match="nonempty support"):
        sos_refute(cs, [])


def _unsat_with_negative_support(rng: random.Random):
    while True:
        cs = random_ground(rng, n_atoms=4, n_clauses=rng.randint(5, 9))
        if clause_set_sat(cs):
            continue
        support = [
            c.id for c in cs.clauses if all(not l.positive for l in c.literals)
        ]
        # unsatisfiable means the all-true assignment falsifies some clause,
        # and a clause false under all-true is all-negative
        assert support
        return cs, support


@pytest.mark.parametrize("seed", range(8))
def test_sos_refutes_random_unsat_sets(seed):
    rng = random.Random(900 + seed)
    for _ in range(5):
        cs, support = _unsat_with_negative_support(rng)
        res = sos_refute(cs, support)
        assert res.status == REFUTED
        seq = res.sequence
        validate_sequence(seq, cs, support)
        assert verify_support_path_property(seq, cs, support)
        for i, e in enumerate(seq.entries):
            if e.is_input:
                continue
            j, k = e.parents
            negation = [Clause(0, (l.negated(),)) for l in e.clause.literals]
            parents = [seq.entries[j - 1].clause, seq.entries[k - 1].clause]
            assert not truth_table_sat(parents + negation)


def test_used_inputs_contain_a_tightly_connected_unsat_core():
    # the input clauses of a refutation are unsatisfiable; a minimal core
    # of m of them has pairwise distances at most 2m-2 within the core
    rng = random.Random(77)
    for _ in range(10):
        cs, support = _unsat_with_negative_support(rng)
        res = sos_refute(cs, support)
        assert res.status == REFUTED
        used = cs.subset(_input_ids(res.sequence))
        assert not clause_set_sat(used)
        core_ids = minimal_unsat_subsets(used)[0]
        core = cs.subset(core_ids)
        graph = build_graph(core, FIRST_ORDER)
        bound = 2 * len(core_ids) - 2
        for cid in core_ids:
            dmap = bfs_from_support(graph, [cid])
            assert all(dmap.distance(d) <= bound for d in core_ids)


# ---------------------------------------------------------------------------
# golden set-of-support results
#
# Status, levels, derived count and the emitted sequence text of every run
# below were recorded once and are pinned as one digest per family.  The
# order in which partners are visited decides which resolvent is kept first,
# so any change to the saturation loop that reorders them shows here.


def _golden_sos_corpus():
    from altpath.generators import random_3sat
    from tests.test_dpll import _pigeonhole, _valid_unsat_instances

    rng = random.Random(31)
    sat = []
    while len(sat) < 30:
        cs = random_ground(rng, n_atoms=rng.randint(4, 7), n_clauses=rng.randint(4, 12))
        if clause_set_sat(cs):
            sat.append((cs, [cs.ids()[0]], {}))
    sat += [(random_3sat(random.Random(n), n, 2 * n), [1], {"max_clauses": 3000})
            for n in (20, 30)]
    php = []
    for p in (3, 4, 5):
        cs = _pigeonhole(p)
        php += [(cs, [1], {"max_clauses": 3000}), (cs, [len(cs)], {"max_clauses": 3000})]
    return {
        "horn": [(horn_tree(d, b), [1], {}) for d, b in ((2, 2), (3, 2), (2, 3), (6, 1))]
        + [(horn_tree(4, 2), [1], {"max_clauses": 2000}),
           (horn_tree(4, 2), [1], {"max_levels": 6})],
        "unsat": [(cs, sup, {}) for cs, sup in _valid_unsat_instances(30, seed=23)],
        "sat": sat,
        "pigeonhole": php,
        "repeat": [(ground_set("p", "~p q", "q", "~q"), [1], {})],
    }


GOLDEN_SOS_DIGESTS = {
    "horn": "ebb6175d0f9b35f6",
    "pigeonhole": "782c3af1707d4dbb",
    "repeat": "a7b76a7d0fddb23e",
    "sat": "a61ddb770bc96909",
    "unsat": "dd8fe53b3d8616d4",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_SOS_DIGESTS))
def test_golden_sos_results(family):
    import hashlib
    import json

    rows = []
    for cs, support, limits in _golden_sos_corpus()[family]:
        res = sos_refute(cs, support, **limits)
        text = format_sequence(res.sequence) if res.sequence else None
        rows.append([res.status, res.levels, res.derived_count, text])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == GOLDEN_SOS_DIGESTS[family]


# ---------------------------------------------------------------------------
# the mask loop against the set-based reference


def _shuffled(cs: ClauseSet, rng: random.Random) -> tuple[ClauseSet, list[int]]:
    """cs with its clauses in a seeded order; the support is the new id of c1."""
    order = list(range(len(cs)))
    rng.shuffle(order)
    shuffled = ClauseSet.from_groups([list(cs.clauses[i].literals) for i in order])
    return shuffled, [order.index(0) + 1]


def _differential_sos_corpus():
    # the golden corpus plus the sos-check Horn shapes, in the generator's
    # clause order and shuffled, and the edge cases of the input loop
    corpus = _golden_sos_corpus()
    rng = random.Random(57)
    for d, b in ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)):
        corpus["horn"] += [(horn_tree(d, b), [1], {"max_clauses": 2000}),
                           (*_shuffled(horn_tree(d, b), rng), {"max_clauses": 2000})]
    corpus["horn"].append((goal_tree_11(), [1], {"max_levels": 5}))
    corpus["edge"] = [
        (ground_set("p ~p q", "~q", "q r", "~r ~p"), [2], {}),  # tautological input
        (ground_set("p ~p", "q ~q", "~r", "r"), [1, 2], {}),  # support all tautologies
        (ClauseSet.from_clauses([Clause(1, ()), Clause(2, (lit("p"),))]), [2], {}),
        (ClauseSet.from_clauses([Clause(1, (lit("p"),)), Clause(2, ())]), [2], {}),
        (ground_set("~p", "~p", "p q", "~q", "p q"), [1, 2], {}),  # duplicate inputs
    ]
    return corpus


@pytest.mark.parametrize("family", sorted(GOLDEN_SOS_DIGESTS) + ["edge"])
def test_mask_loop_matches_the_set_based_reference(family):
    from oracles import reference_sos_refute

    for cs, support, limits in _differential_sos_corpus()[family]:
        got = sos_refute(cs, support, **limits)
        want = reference_sos_refute(cs, support, **limits)
        assert (got.status, got.levels, got.derived_count, got.per_level) == \
            (want.status, want.levels, want.derived_count, want.per_level), (str(cs), support)
        assert (got.sequence is None) == (want.sequence is None)
        if got.sequence is not None:
            assert format_sequence(got.sequence) == format_sequence(want.sequence)


@pytest.mark.parametrize("limits", [
    {"max_clauses": 0}, {"max_clauses": -5}, {"max_levels": 0}, {"max_levels": -1},
], ids=lambda limits: " ".join(f"{k}={v}" for k, v in limits.items()))
def test_sos_budgets_below_one_are_refused(limits):
    (name, value), = limits.items()
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
        sos_refute(horn_tree(3, 2), [1], **limits)


# ---------------------------------------------------------------------------
# support path property


def test_trivial_support_only_sequence_passes():
    cs = ground_set("~p", "p")
    seq = ResolutionSequence((SequenceEntry(cs.by_id(1), supported=True),))
    assert verify_support_path_property(seq, cs, [1])


def test_far_input_placed_early_fails_the_distance_check():
    cs = ground_set("p", "~p q", "~q r", "~r")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(4)),  # distance 4, position 1
            SequenceEntry(cs.by_id(1), supported=True),
            SequenceEntry(cs.by_id(2)),
            SequenceEntry(Clause(4, (lit("q"),)), (2, 3), lit("p"), supported=True),
            SequenceEntry(cs.by_id(3)),
            SequenceEntry(Clause(6, (lit("r"),)), (4, 5), lit("q"), supported=True),
            SequenceEntry(Clause(7, ()), (6, 1), lit("r"), supported=True),
        )
    )
    validate_sequence(seq, cs, [1])
    assert not verify_support_path_property(seq, cs, [1])


def test_invalid_sequence_is_flagged_before_the_distance_check():
    cs = ground_set("p", "~p", "q")
    seq = ResolutionSequence(
        (
            SequenceEntry(cs.by_id(1)),
            SequenceEntry(cs.by_id(2)),
            SequenceEntry(Clause(3, ()), (1, 2), lit("p")),
        )
    )
    with pytest.raises(ValueError, match="no supported parent"):
        verify_support_path_property(seq, cs, [3])


# ---------------------------------------------------------------------------
# linear sequences from shortest paths


def test_linear_sequence_along_a_chain():
    cs = ground_set("p", "~p q", "~q r", "~r")
    dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), [1])
    assert dmap.distance(4) == 4
    seq = linear_sequence_from_path(cs, dmap.witness(4), [1])
    validate_sequence(seq, cs, [1])
    assert len(seq.entries) == 7
    assert seq.entries[-1].clause.is_empty
    assert seq.entries[5].is_input and seq.entries[5].clause.id == 4
    assert verify_support_path_property(seq, cs, [1])


def test_linear_sequence_for_a_support_clause_is_trivial():
    cs = ground_set("p", "~p q")
    dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), [1])
    seq = linear_sequence_from_path(cs, dmap.witness(1), [1])
    assert len(seq.entries) == 1
    assert _depth(seq) == 0
    validate_sequence(seq, cs, [1])


@pytest.mark.parametrize("support", [[99], [1, 99]])
def test_linear_sequence_rejects_an_unknown_support_id(support):
    cs = ground_set("p", "~p q")
    path = bfs_from_support(build_graph(cs, FIRST_ORDER), [1]).witness(2)
    with pytest.raises(ValueError, match="^support id 99 not in the clause set$"):
        linear_sequence_from_path(cs, path, support)


@pytest.mark.parametrize("seed", range(6))
def test_every_reachable_clause_appears_in_a_short_sequence(seed):
    # a clause at distance n is an input of a valid sequence of 2n-1 entries
    rng = random.Random(4711 + seed)
    for _ in range(8):
        cs = random_ground(rng, 4, rng.randint(2, 6))
        support = [cs.ids()[0]]
        dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), support)
        for cid in cs.ids():
            n = dmap.distance(cid)
            if n == INF:
                continue
            path = dmap.witness(cid)
            assert path.length == n
            seq = linear_sequence_from_path(cs, path, support)
            validate_sequence(seq, cs, support)
            assert len(seq.entries) == 2 * int(n) - 1
            positions = [
                i
                for i, e in enumerate(seq.entries, start=1)
                if e.is_input and e.clause.id == cid
            ]
            assert positions and positions[-1] <= 2 * int(n) - 1


# ---------------------------------------------------------------------------
# hyper-resolution


def test_hyper_levels_goal_tree():
    assert hyper_resolution_levels(goal_tree_11()) == 3


def test_hyper_levels_unit_contradiction():
    assert hyper_resolution_levels(ground_set("p", "~p")) == 1


def test_hyper_levels_no_contradiction():
    assert hyper_resolution_levels(ground_set("p", "q ~p ~r")) is None


def test_hyper_levels_empty_clause_input():
    cs = ClauseSet.from_clauses([Clause(1, ())])
    assert hyper_resolution_levels(cs) == 0


def test_hyper_rejects_non_horn():
    with pytest.raises(ValueError, match="not Horn"):
        hyper_resolution_levels(ground_set("p q"))


def _max_input_distance(cs, seq, support):
    dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), support)
    return max(dmap.distance(cid) for cid in _input_ids(seq))


def test_demo_goal_tree_contrast():
    cs = goal_tree_11()
    res = sos_refute(cs, [1])
    assert res.status == REFUTED
    assert res.sequence.resolution_count == 10
    assert _depth(res.sequence) == 10
    assert hyper_resolution_levels(cs) == 3
    assert _max_input_distance(cs, res.sequence, [1]) == 4


def test_demo_unit_contradiction_has_depth_one_both_ways():
    cs = ground_set("p", "~p")
    assert _depth(sos_refute(cs, [2]).sequence) == 1
    assert hyper_resolution_levels(cs) == 1


def test_demo_rejects_non_horn():
    with pytest.raises(ValueError, match="not Horn"):
        hyper_resolution_levels(ground_set("p q", "~p"))


@pytest.mark.parametrize("depth,branching", [(2, 2), (3, 2), (2, 3)])
def test_goal_tree_family_depth_contrast(depth, branching):
    # set-of-support proof depth tracks the node count of the subgoal tree,
    # hyper-resolution levels track only its height
    cs = horn_tree(depth, branching)
    res = sos_refute(cs, [1])
    nodes = sum(branching**d for d in range(depth + 1))
    assert res.status == REFUTED
    assert res.sequence.resolution_count == nodes
    assert _depth(res.sequence) == nodes
    assert hyper_resolution_levels(cs) == depth + 1
    assert _max_input_distance(cs, res.sequence, [1]) == depth + 2


def test_deep_tree_hits_the_limit_while_hyper_finishes():
    cs = horn_tree(4, 2)
    res = sos_refute(cs, [1], max_levels=6)
    assert res.status == LIMIT
    assert res.sequence is None
    assert hyper_resolution_levels(cs) == 5


def test_ground_flags_are_read_once_per_set(monkeypatch):
    # a ground set that is not propositional: its atoms' flags are read off
    # their terms, once for the set, however many entry points ask
    from altpath.parsing import parse_tptp

    cs = parse_tptp("cnf(c1, negated_conjecture, ~q(f(a))).\n"
                    "cnf(c2, axiom, (q(f(a)) | ~p(f(a)))).\n"
                    "cnf(c3, axiom, p(f(a))).\n")
    calls = []
    is_ground = Literal.is_ground

    def counted(self):
        calls.append(self)
        return is_ground(self)

    monkeypatch.setattr(Literal, "is_ground", counted)
    res = sos_refute(cs, [1])
    assert res.status == REFUTED
    assert verify_support_path_property(res.sequence, cs, [1])
    path = bfs_from_support(build_graph(cs), [1]).witness(3)
    assert linear_sequence_from_path(cs, path, [1]).entries[-1].clause.literals == ()
    assert hyper_resolution_levels(cs) == 2
    assert sorted(map(str, calls)) == ["p(f(a))", "q(f(a))"]
