import random

import pytest

from altpath.clauses import ClauseSet, Literal, Var
from altpath.dpll import (
    MODES,
    SolveResult,
    _solve,
    dpll,
    dpll_rel,
    stepping_sequence,
    support_radius,
)
from altpath.generators import random_ground
from altpath.graph import INF, bfs_from_support, build_graph
from altpath.parsing import parse_dimacs, print_dimacs
from altpath.resolution import sos_refute
from tests.test_graph import ground_set

from oracles import (
    brute_distances,
    clause_set_sat,
    model_satisfies,
    partial_model_covers,
    reference_atom_count,
    reference_atoms,
    reference_solve,
    reference_stepping_sequence,
    reference_support_radius,
)


def atom(name: str) -> Literal:
    return Literal(True, name)


def solve_on_buckets(cs: ClauseSet, step: tuple, max_calls: int | None = None,
                     mode: str = "fallback") -> SolveResult:
    """The relevance-restricted engine on hand-made stepping buckets of
    atoms: each atom of the set that bucket m names splits in bucket m, an
    atom the set lacks is skipped, and every other atom sits in the last
    bucket."""
    index = {a: n for n, a in enumerate(cs.atoms(), 1)}
    bucket_of = {index[a]: b for b, bucket in enumerate(step) for a in bucket if a in index}
    return _solve(cs, bucket_of, mode == "trusted", max_calls)


# ---------------------------------------------------------------------------
# plain dpll


def test_dpll_empty_clause_unsat():
    cs = ClauseSet.from_groups([[]])
    assert dpll(cs).verdict == "unsat"


def test_dpll_empty_set_sat():
    assert dpll(ClauseSet.from_groups([])).verdict == "sat"


def test_dpll_contradiction():
    assert dpll(ground_set("p", "~p")).verdict == "unsat"


def test_dpll_model_satisfies():
    cs = ground_set("p q", "~p q", "~q r")
    res = dpll(cs)
    assert res.verdict == "sat"
    assert model_satisfies(cs, res.model)


def test_dpll_tautologies_always_satisfied():
    cs = ground_set("p ~p")
    res = dpll(cs)
    assert res.verdict == "sat" and model_satisfies(cs, res.model)


def test_dpll_rejects_variables():
    from altpath.clauses import Var

    cs = ClauseSet.from_groups([[Literal(True, "p", (Var("X"),))]])
    with pytest.raises(ValueError, match="variable-free"):
        dpll(cs)


def test_dpll_call_limit_gives_unknown():
    cs = ground_set("p q", "~p q", "p ~q", "~p ~q")
    res = dpll(cs, max_calls=1)
    assert res.verdict == "unknown"


def test_dpll_exhaustive_two_atom_subsets():
    # every subset of the full two-atom clause space, checked by truth table
    from itertools import combinations

    space = ["p", "q", "~p", "~q", "p q", "p ~q", "~p q", "~p ~q"]
    for r in range(len(space) + 1):
        for pick in combinations(space, r):
            cs = ground_set(*pick) if pick else ClauseSet.from_groups([])
            want = clause_set_sat(cs)
            assert (dpll(cs).verdict == "sat") == want


@pytest.mark.parametrize("seed", range(20))
def test_dpll_matches_truth_table_oracle(seed):
    rng = random.Random(seed)
    from altpath.generators import random_ground

    cs = random_ground(rng, n_atoms=4, n_clauses=rng.randint(2, 12))
    want = clause_set_sat(cs)
    res = dpll(cs)
    assert (res.verdict == "sat") == want
    if want:
        assert model_satisfies(cs, res.model)


# ---------------------------------------------------------------------------
# stepping sequences


def test_stepping_sequence_chain():
    cs = ground_set("p", "~p q", "~q")
    assert stepping_sequence(cs, [1]) == ((atom("p"),), (atom("q"),))


def test_stepping_sequence_support_everything():
    cs = ground_set("p q", "~p r")
    assert stepping_sequence(cs, [1, 2]) == ((atom("p"), atom("q"), atom("r")),)


def test_stepping_sequence_skips_unreachable_atoms():
    cs = ground_set("p", "~p q", "x y")
    assert [a for bucket in stepping_sequence(cs, [1]) for a in bucket] == \
        [atom("p"), atom("q")]


def test_stepping_sequence_orders_dimacs_atoms_numerically():
    cs = parse_dimacs("p cnf 10 2\n10 2 0\n-2 -10 0\n")
    assert stepping_sequence(cs, [1]) == ((atom("2"), atom("10")),)


def _encoding_corpus():
    """Seeded ground sets, each with a tautology whose atom 99 occurs nowhere
    else, an empty clause and a detached clause, each under two supports,
    plus two fixed sets that put DIMACS atoms 2 and 10 in one bucket."""
    fixed = [ground_set("2 10", "~2 5", "~10 ~5", "7 ~7", "", "11 12", "~11"),
             parse_dimacs("p cnf 10 3\n10 2 0\n-2 -10 0\n3 -3 0\n")]
    for cs in fixed:
        yield cs, [1]
    for seed in range(16):
        rng = random.Random(700 + seed)
        base = random_ground(rng, n_atoms=12, n_clauses=rng.randint(6, 16))
        extra = [[atom("3"), atom("99"), Literal(False, "99")], [],
                 [atom("40"), Literal(False, "41")]]
        cs = ClauseSet.from_groups([c.literals for c in base.clauses] + extra)
        yield cs, [1]
        yield cs, [rng.randint(1, len(base)), len(cs) - 1]  # the empty clause too


def test_stepping_sequence_matches_literal_reference():
    for cs, support in _encoding_corpus():
        dmap = bfs_from_support(build_graph(cs), support)
        assert stepping_sequence(cs, support) == \
            reference_stepping_sequence(cs, dmap.clause_distance)


def test_dpll_rel_buckets_and_neighborhood_match_literal_reference():
    for cs, support in _encoding_corpus():
        dmap = bfs_from_support(build_graph(cs), support)
        reachable = cs.subset([cid for cid, d in dmap.clause_distance.items() if d < INF])
        step = reference_stepping_sequence(cs, dmap.clause_distance)
        for mode in MODES:
            res = dpll_rel(cs, support, mode=mode)
            assert res.k == reference_atom_count(reachable)
            ref = reference_solve(cs, step=step, trusted=mode == "trusted")
            assert (res.verdict, res.stats) == (ref.verdict, ref.stats)


@pytest.mark.parametrize("run", [
    lambda cs: dpll_rel(cs, [1]),
    lambda cs: stepping_sequence(cs, [1]),
    lambda cs: sos_refute(cs, [1]),
])
def test_ground_entry_points_reject_variables(run):
    cs = ClauseSet.from_groups([[Literal(True, "p", (Var("X"),))], [Literal(False, "q")]])
    with pytest.raises(ValueError, match="variable-free"):
        run(cs)


def _split_order(cs: ClauseSet, step: tuple) -> dict[Literal, bool]:
    # on a set where no unit over a stepping atom arises, trusted mode
    # assigns nothing but its splits, true first, so the model shows which
    # atoms were split and in which order
    res = solve_on_buckets(cs, step, mode="trusted")
    assert res.verdict == "sat" and res.stats.unit_props == 0
    return res.model


def test_restrict_by_clause_set():
    # once p is true, bucket 0 has no live atom left and the split moves to
    # bucket 1 (q) although r, deeper down, occurs more often
    step = ((atom("p"),), (atom("q"),), (atom("r"),))
    cs = ground_set("p q", "~p q r", "~p ~q r s", "~p r t")
    assert list(_split_order(cs, step).items()) == [
        (atom("p"), True), (atom("q"), True), (atom("r"), True)]


def test_leading_literal_first_nonempty_bucket():
    # splitting on r first would satisfy both clauses at once
    step = ((), (atom("q"),), (atom("r"),))
    cs = ground_set("q r", "r s")
    assert _split_order(cs, step) == {atom("q"): True, atom("r"): True}


def test_leading_literal_max_occurrence_and_ties():
    step = ((atom("a"), atom("b")),)
    # b occurs 3 times, a twice: b alone satisfies everything
    cs = ground_set("a b", "b ~a", "b x")
    assert _split_order(cs, step) == {atom("b"): True}
    # a tie goes to the smaller index: the one split sets a, and then ~b is
    # a unit
    tied = solve_on_buckets(ground_set("a b", "~a ~b"), step, mode="trusted")
    assert list(tied.model.items()) == [(atom("a"), True), (atom("b"), False)]
    assert (tied.stats.splits, tied.stats.unit_props) == (1, 1)


def test_empty_stepping_sequence_has_no_leading_literal():
    cs = ground_set("p", "~p")
    trusted = solve_on_buckets(cs, (), mode="trusted")
    assert trusted.verdict == "sat" and trusted.model == {}
    assert (trusted.stats.calls, trusted.stats.splits) == (1, 0)
    fallback = solve_on_buckets(cs, ())
    assert fallback.verdict == "unsat" and fallback.stats.fallback_calls == 1


# ---------------------------------------------------------------------------
# dpll_rel


def test_dpll_rel_unit_contradiction_both_modes():
    cs = ground_set("p", "~p")
    for mode in ("trusted", "fallback"):
        assert dpll_rel(cs, [2], mode=mode).verdict == "unsat"


def test_dpll_rel_needs_nonempty_support():
    with pytest.raises(ValueError, match="nonempty"):
        dpll_rel(ground_set("p"), [])


@pytest.mark.parametrize("seed", range(15))
def test_fallback_mode_agrees_with_dpll(seed):
    rng = random.Random(100 + seed)
    from altpath.generators import random_ground

    cs = random_ground(rng, n_atoms=5, n_clauses=12)
    support = rng.sample(cs.ids(), rng.randint(1, 3))
    res = dpll_rel(cs, support)
    assert res.verdict == dpll(cs).verdict
    if res.verdict == "sat":
        assert model_satisfies(cs, res.model)


@pytest.mark.parametrize("seed", range(15))
def test_trusted_mode_agrees_when_support_is_valid(seed):
    rng = random.Random(200 + seed)
    from altpath.generators import random_ground

    # redraw until the support is valid: the clauses after the first are
    # satisfiable without it
    for _ in range(50):
        cs = random_ground(rng, n_atoms=5, n_clauses=rng.randint(5, 8))
        if clause_set_sat(cs.subset(cs.ids()[1:])):
            break
    else:
        pytest.fail("no valid support in 50 draws")
    support = [cs.clauses[0].id]
    res = dpll_rel(cs, support, mode="trusted")
    assert res.verdict == dpll(cs).verdict
    if res.verdict == "sat":
        step = stepping_sequence(cs, support)
        assert partial_model_covers(cs, res, step)


def test_trusted_mode_partial_model_skips_detached_clauses():
    # support part forces p; five satisfiable detached clauses are never read
    cs = ground_set("p", "~p q", "x1", "x2", "x3", "x4 x5", "~x4 x5")
    res = dpll_rel(cs, [1], mode="trusted")
    assert res.verdict == "sat"
    assigned = set(res.model)
    assert assigned <= {atom("p"), atom("q")}
    step = stepping_sequence(cs, [1])
    assert partial_model_covers(cs, res, step)
    # the detached clauses really were skipped, not solved
    assert all(atom(f"x{i}") not in res.model for i in range(1, 6))


def test_trusted_mode_wrong_without_valid_support():
    # detached contradiction: trusted never sees it, fallback does
    cs = ground_set("p", "q", "~q")
    assert dpll_rel(cs, [1], mode="trusted").verdict == "sat"
    res = dpll_rel(cs, [1], mode="fallback")
    assert res.verdict == "unsat"
    assert res.stats.fallback_calls > 0


def test_dpll_rel_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        dpll_rel(ground_set("p"), [1], mode="hopeful")


def test_count_calls_and_neighborhood_counts():
    cs = ground_set("p", "~p")
    res = dpll_rel(cs, [1])
    assert res.stats.calls >= 1
    assert res.k == 1


# ---------------------------------------------------------------------------
# the call bound


def _neighborhood(cs: ClauseSet, support) -> ClauseSet:
    """The clauses within the support radius, or every reachable clause
    when the radius is infinite."""
    dmap = bfs_from_support(build_graph(cs), support)
    radius = support_radius(cs, support)
    if radius == INF:
        radius = max(d for d in dmap.clause_distance.values() if d < INF)
    return cs.subset(dmap.relevant_ids(int(radius)))


def _valid_unsat_instances(count: int, seed: int):
    """Unsat sets whose first clause is a valid support set (rest
    satisfiable), built by rejection sampling."""
    from altpath.generators import random_ground

    rng = random.Random(seed)
    found = []
    while len(found) < count:
        cs = random_ground(rng, n_atoms=rng.randint(3, 5),
                           n_clauses=rng.randint(6, 16),
                           allow_tautologies=False)
        if clause_set_sat(cs):
            continue
        support = [cs.clauses[0].id]
        if not clause_set_sat(cs.subset(cs.ids()[1:])):
            continue
        found.append((cs, support))
    return found


@pytest.mark.parametrize("mode", ["trusted", "fallback"])
def test_call_bound_on_unsat_instances(mode):
    for cs, support in _valid_unsat_instances(25, seed=7):
        rad = support_radius(cs, support)
        assert rad < INF
        k = reference_atom_count(_neighborhood(cs, support))
        res = dpll_rel(cs, support, mode=mode)
        assert res.verdict == "unsat"
        assert res.stats.calls <= 2 ** k
        # with a valid support set the plain solver is never consulted
        assert res.stats.fallback_calls == 0


def test_call_bound_needs_unit_propagation():
    # the units over the one stepping atom close the search in one call,
    # without a split
    res = dpll_rel(ground_set("p", "~p"), [2])
    assert res.verdict == "unsat"
    assert (res.stats.calls, res.stats.splits) == (1, 0)


def test_call_bound_ignores_satisfiable_tail():
    # contradiction near the support set plus a big detached satisfiable
    # tail: the restricted solver's work tracks the small neighborhood
    rows = ["p", "~p q", "~p ~q"]
    rows += [f"t{i} t{i + 1}" for i in range(1, 30)]
    cs = ground_set(*rows)
    k = reference_atom_count(_neighborhood(cs, [1]))
    assert k == 2
    res = dpll_rel(cs, [1], mode="trusted")
    assert res.verdict == "unsat"
    assert res.stats.calls <= 2 ** k


# ---------------------------------------------------------------------------
# support radius and neighborhood


def test_support_radius_two_units():
    cs = ground_set("p", "~p")
    assert support_radius(cs, [1]) == 2


def test_support_radius_chain():
    cs = ground_set("p", "~p q", "~q")
    assert support_radius(cs, [1]) == 3
    assert _neighborhood(cs, [1]).ids() == [1, 2, 3]


def test_support_radius_satisfiable_is_infinite():
    cs = ground_set("p", "~p q")
    assert support_radius(cs, [1]) == INF
    # neighborhood then covers everything reachable
    assert _neighborhood(cs, [1]).ids() == [1, 2]


def test_support_radius_ignores_detached_contradiction():
    cs = ground_set("p", "~p q", "x", "~x")
    assert support_radius(cs, [1]) == INF
    assert _neighborhood(cs, [1]).ids() == [1, 2]


def _radius_corpus():
    """Sets with their supports whose radius lies at the first finite
    level, at the last one, in between, or is infinite, then seeded random
    sets, each also as read back from DIMACS."""
    chain = ["a0"] + [f"~a{i} a{i + 1}" for i in range(5)] + ["~a5"]
    fixed = [(ground_set("p", "~p", "q"), [1, 2]), (ground_set("", "p", "~p"), [2]),
             (ground_set(*chain), [1]), (ground_set("p", "~p q", "~q r"), [1]),
             (ground_set("p", "~p q", "~q", "q r", "~r"), [1])]
    rng = random.Random(4400)
    for _ in range(40):
        cs = random_ground(rng, n_atoms=rng.randint(2, 6), n_clauses=rng.randint(3, 14))
        fixed.append((cs, rng.sample(cs.ids(), rng.randint(1, 2))))
    for cs, support in fixed:
        yield cs, support
        if all(name.isdigit() for name in cs.predicates):
            yield parse_dimacs(print_dimacs(cs)), support


def test_bisected_radius_matches_linear_level_walk():
    seen = set()
    for cs, support in _radius_corpus():
        dist = brute_distances(cs, support)
        radius = support_radius(cs, support)
        assert radius == reference_support_radius(cs, dist), (str(cs), support)
        finite = sorted({d for d in dist.values() if d < INF})
        seen.add("inf" if radius == INF else "first" if radius == finite[0]
                 else "last" if radius == finite[-1] else "between")
    assert seen == {"inf", "first", "last", "between"}


def test_satisfies_reports_partial_gaps():
    # the oracle's model check: a partial model leaves gaps, but a
    # tautology it never touches still counts as satisfied
    cs = ground_set("p q", "r ~r")
    assert model_satisfies(cs, {atom("p"): True})
    assert not model_satisfies(cs, {atom("p"): False})


# ---------------------------------------------------------------------------
# golden solver statistics
#
# Verdict, call/split/unit/fallback counts and the sorted model of every run
# below were recorded once and are pinned as one digest per family.  The
# counts carry the 2**k call-bound meaning, so any engine change must leave
# them untouched.


def _pigeonhole(pigeons: int) -> ClauseSet:
    holes = pigeons - 1
    rows = [" ".join(f"x{p}_{h}" for h in range(holes)) for p in range(pigeons)]
    rows += [f"~x{p}_{h} ~x{q}_{h}" for h in range(holes)
             for p in range(pigeons) for q in range(p + 1, pigeons)]
    return ground_set(*rows)


def _detached_tail(seed: int) -> ClauseSet:
    # a small contradiction at the support clause plus a satisfiable chain
    # that no alternating path from the support reaches
    rng = random.Random(seed)
    core = ["p", "~p q", "~p ~q r", "~r ~q"]
    n = rng.randint(20, 40)
    tail = [f"{rng.choice(('', '~'))}t{i} {rng.choice(('', '~'))}t{i + 1}"
            for i in range(1, n)]
    return ground_set(*core, *tail)


def _golden_corpus() -> dict[str, list[tuple[ClauseSet, list[int]]]]:
    from altpath.generators import horn_tree, random_3sat

    sat3 = [random_3sat(random.Random(9000 + n), n, round(4.3 * n))
            for n in (20, 25, 30, 35, 40, 45)]
    return {
        "3sat": [(cs, [cs.ids()[0]]) for cs in sat3],
        "pigeonhole": [(_pigeonhole(p), [1]) for p in (4, 5, 6)],
        "horn": [(horn_tree(d, b), [1]) for d, b in ((3, 2), (4, 2), (2, 3), (6, 1))],
        "tail": [(_detached_tail(s), [1]) for s in range(4)],
        "valid": _valid_unsat_instances(8, seed=17),
    }


def _golden_rows(instances) -> list:
    rows = []
    for cs, support in instances:
        for solver in ("dpll", "fallback", "trusted"):
            for cap in (None, 7):
                res = dpll(cs, cap) if solver == "dpll" else \
                    dpll_rel(cs, support, cap, mode=solver)
                s = res.stats
                model = sorted((str(a), v) for a, v in res.model.items())
                rows.append([solver, cap, res.verdict, s.calls, s.splits,
                             s.unit_props, s.fallback_calls, model])
    return rows


GOLDEN_DIGESTS = {
    "3sat": "00d4f78b2d33651d",
    "horn": "4079a208f05c2823",
    "pigeonhole": "094c103310f33f2c",
    "tail": "54699f13aa7355e2",
    "valid": "f24207b217b949d1",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_DIGESTS))
def test_golden_solver_stats(family):
    import hashlib
    import json

    rows = _golden_rows(_golden_corpus()[family])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == GOLDEN_DIGESTS[family]


# ---------------------------------------------------------------------------
# differential test against the copy-based reference engine
#
# The incremental engine must reproduce the reference node for node: the
# same verdict, counters and trail (the model lists atoms in the order they
# were assigned), with and without a call budget, for plain, fallback and
# trusted solving.

_DIFF_CAPS = (None, 1, 3, 9, 40)


def _same_as_reference(cs: ClauseSet, step: tuple | None = None,
                       mode: str = "fallback") -> list[tuple[int | None, SolveResult]]:
    runs = []
    for cap in _DIFF_CAPS:
        if step is None:
            got = dpll(cs, cap)
        else:
            got = solve_on_buckets(cs, step, cap, mode)
        want = reference_solve(cs, cap, step, trusted=mode == "trusted")
        assert (got.verdict, got.stats, list(got.model.items())) == \
            (want.verdict, want.stats, list(want.model.items())), (str(cs), step, mode, cap)
        runs.append((cap, got))
    return runs


def _all_solvers(cs: ClauseSet, support: list[int], rng: random.Random):
    """Plain, fallback and trusted runs, on the support's stepping sequence
    and on a random one with empty buckets and an atom the set lacks."""
    runs = _same_as_reference(cs)
    pool = reference_atoms(cs) + [atom("absent")]
    rng.shuffle(pool)
    buckets: list[list[Literal]] = [[] for _ in range(rng.randint(1, 4))]
    for a in pool[:rng.randint(0, len(pool))]:
        rng.choice(buckets).append(a)
    for step in (stepping_sequence(cs, support),
                 tuple(map(tuple, buckets))):
        for mode in ("fallback", "trusted"):
            runs += _same_as_reference(cs, step, mode)
    return runs


def _random_rows(rng: random.Random, names: list[str], n_clauses: int) -> list[str]:
    # units, duplicates, the odd empty clause and tautology among them
    rows: list[str] = []
    for _ in range(n_clauses):
        r = rng.random()
        if r < 0.03:
            rows.append("")
        elif r < 0.13 and rows:
            rows.append(rng.choice(rows))
        else:
            width = rng.choice((1, 2, 2, 3, 3, 3, 4))
            rows.append(" ".join(rng.choice(("", "~")) + rng.choice(names)
                                 for _ in range(width)))
    return rows


def test_engine_matches_reference_on_random_sets():
    rng = random.Random(3100)
    runs = []
    for _ in range(72):
        names = [f"a{i}" for i in range(rng.randint(2, 7))]
        cs = ground_set(*_random_rows(rng, names, rng.randint(3, 18)))
        runs += _all_solvers(cs, rng.sample(cs.ids(), rng.randint(1, 2)), rng)
    assert {res.verdict for _, res in runs} == {"sat", "unsat", "unknown"}


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (4, 1), (3, 3)])
def test_engine_matches_reference_on_horn_trees(shape):
    from altpath.generators import horn_tree

    rng = random.Random(10 * shape[0] + shape[1])
    tree = horn_tree(*shape)
    groups = [c.literals for c in tree.clauses]
    for _ in range(3):
        rows = list(groups)
        if rng.random() < 0.5:  # drop a leaf fact: satisfiable
            rows.remove(rng.choice([g for g in rows if len(g) == 1 and g[0].positive]))
        rng.shuffle(rows)
        cs = ClauseSet.from_groups(rows)
        goal = next(c.id for c in cs.clauses if c.literals == (Literal(False, "g0"),))
        _all_solvers(cs, [goal], rng)


def test_engine_matches_reference_on_fallback_leaves():
    # a core around the support plus a detached part with its own units:
    # those units wait for the fallback sub-solve,
    # which must take them lowest clause first, interleaved with the core's
    rng = random.Random(3300)
    runs = []
    for _ in range(32):
        core = _random_rows(rng, ["p", "q", "r"], rng.randint(2, 5))
        detached = _random_rows(rng, [f"x{i}" for i in range(5)], rng.randint(4, 12))
        detached += [rng.choice(("", "~")) + f"x{rng.randrange(5)}"
                     for _ in range(rng.randint(1, 3))]
        rows = [(row, True) for row in core] + [(row, False) for row in detached]
        rng.shuffle(rows)
        cs = ground_set(*(row for row, _ in rows))
        support = [cid for cid, (row, in_core) in zip(cs.ids(), rows) if in_core and row][:1]
        runs += _all_solvers(cs, support or [cs.ids()[0]], rng)
    assert any(res.stats.fallback_calls for _, res in runs)
    assert any(res.stats.fallback_calls and res.verdict == "sat"
               and any(a.pred.startswith("x") for a in res.model)
               for _, res in runs)


def test_engine_matches_reference_when_a_subsolve_hits_the_cap():
    # the support part is satisfiable after one split; the detached
    # pigeonhole part then costs the sub-solve more than the budget
    core = ground_set("p q", "~p q")
    cs = ClauseSet.from_groups([c.literals for c in core.clauses + _pigeonhole(4).clauses])
    runs = _same_as_reference(cs, stepping_sequence(cs, [1]))
    assert any(res.verdict == "unknown" and res.stats.calls <= cap for cap, res in runs)
    # one budget for both kinds of node: the node past it ends the search
    for cap, res in runs:
        if res.verdict == "unknown":
            assert res.stats.calls + res.stats.fallback_calls == cap + 1


def test_fallback_nodes_draw_on_the_call_budget():
    # the support chain leaves the stepping atoms after one node; the
    # detached pigeonhole part then needs more nodes than the budget
    core = ground_set("p", "~p q", "~q r s", "~s")
    cs = ClauseSet.from_groups([c.literals for c in core.clauses + _pigeonhole(6).clauses])
    res = dpll_rel(cs, [1], max_calls=30)
    assert res.verdict == "unknown"
    assert res.stats.calls + res.stats.fallback_calls == 31
    assert res.stats.fallback_calls > 0


def test_solvers_leave_no_reference_cycles():
    import gc

    core = ground_set("p q", "~p q")
    cs = ClauseSet.from_groups([c.literals for c in core.clauses + _pigeonhole(4).clauses])
    gc.collect()
    gc.disable()
    try:
        results = [dpll(cs), dpll_rel(cs, [1]), dpll_rel(cs, [1], mode="trusted")]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert results[1].stats.fallback_calls > 0  # the fallback region was entered
    assert garbage == 0
