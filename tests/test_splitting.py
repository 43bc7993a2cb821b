"""Splitting clauses into instance-preserving replacements.

The invariant throughout: over a depth-bounded ground universe, the
instances of a split clause's replacements are exactly the instances of
the original, and relevance distances between the untouched clauses never
decrease.
"""

import os
import random

import pytest

from altpath.clauses import App, Clause, ClauseSet, Literal, Var
from altpath.dpll import dpll
from altpath.generators import random_first_order
from altpath.graph import bfs_from_support, build_graph
from altpath.parsing import parse_tptp, print_tptp
from altpath.splitting import (
    SplitPlan,
    binary_split_plan,
    choose_split_variable,
    descendants,
    expand_restricted,
    full_split_plan,
    split_clause,
)
from oracles import ground_instances, herbrand_terms, instance_sets


def lit(s: str, *args, sign=True) -> Literal:
    return Literal(sign, s, tuple(args))


x, y = Var("X"), Var("Y")
a, b = App("a"), App("b")


def f(*args):
    return App("f", tuple(args))


def g(*args):
    return App("g", tuple(args))


def impl_set() -> ClauseSet:
    # c1: ~p(X) | q(X)   c2: p(a)   c3: ~q(f(a))
    return ClauseSet.from_groups(
        [
            [lit("p", x, sign=False), lit("q", x)],
            [lit("p", a)],
            [lit("q", f(a), sign=False)],
        ],
        roles={1: "axiom"},
    )


def counted_set() -> ClauseSet:
    # symbol occurrence counts: a 3, b 2, f 1, g 1
    return ClauseSet.from_groups(
        [
            [lit("p", x, sign=False)],
            [lit("p", a), lit("q", a)],
            [lit("p", f(b))],
            [lit("r", g(a, b))],
        ]
    )


# ---------------------------------------------------------------------------
# Full splits


def test_full_split_replaces_the_clause_in_place():
    cs = impl_set()
    after = split_clause(cs, full_split_plan(cs, 1, var="X"))
    assert after.ids() == [4, 5, 2, 3]
    assert set(after.by_id(4).literals) == {lit("p", a, sign=False), lit("q", a)}
    sv = Var("_sv0")
    assert set(after.by_id(5).literals) == {
        lit("p", f(sv), sign=False),
        lit("q", f(sv)),
    }
    assert after.roles[4] == after.roles[5] == "axiom"
    assert 1 not in after.roles
    assert descendants(cs, after) == [4, 5]


def test_full_split_shares_one_fresh_variable_across_literals():
    cs = impl_set()
    after = split_clause(cs, full_split_plan(cs, 1, var="X"))
    names = {v.name for v in after.by_id(5).variables()}
    assert names == {"_sv0"}


def test_fresh_variables_avoid_existing_names():
    cs = ClauseSet.from_groups(
        [
            [lit("p", Var("_sv3"), sign=False), lit("q", Var("_sv3"))],
            [lit("p", a)],
            [lit("q", f(a), sign=False)],
        ]
    )
    after = split_clause(cs, full_split_plan(cs, 1, var="_sv3"))
    fresh = after.by_id(5).variables()
    assert fresh and fresh[0].name == "_sv4"


def test_full_split_keeps_the_ground_instances():
    cs = impl_set()
    after = split_clause(cs, full_split_plan(cs, 1, var="X"))
    universe = herbrand_terms(cs.functions, 3)
    before = ground_instances(cs.by_id(1), universe, max_depth=3)
    assert before == instance_sets(after, [4, 5], universe, max_depth=3)


def test_plan_validation():
    cs = impl_set()
    with pytest.raises(ValueError, match="overlap"):
        split_clause(cs, SplitPlan(1, "X", (frozenset("af"), frozenset("f"))))
    with pytest.raises(ValueError, match="do not cover"):
        split_clause(cs, SplitPlan(1, "X", (frozenset("a"),)))
    with pytest.raises(ValueError, match="nonempty"):
        split_clause(cs, SplitPlan(1, "X", (frozenset("af"), frozenset())))
    with pytest.raises(ValueError, match="nonempty"):
        split_clause(cs, SplitPlan(1, "X", ()))
    with pytest.raises(ValueError, match="does not occur"):
        split_clause(cs, SplitPlan(2, "X", (frozenset("af"),)))
    with pytest.raises(ValueError, match="does not occur"):
        split_clause(cs, SplitPlan(1, "Y", (frozenset("af"),)))


def test_plan_without_constants_is_rejected():
    cs = ClauseSet.from_groups([[lit("p", f(x))], [lit("p", f(y), sign=False)]])
    with pytest.raises(ValueError, match="no constant symbol"):
        split_clause(cs, SplitPlan(1, "X", (frozenset("f"),)))


def test_no_constant_needs_an_extra_one():
    cs = ClauseSet.from_groups([[lit("p", f(x))]])
    with pytest.raises(ValueError, match="extra_constant"):
        full_split_plan(cs, 1, var="X")
    plan = full_split_plan(cs, 1, var="X", extra_constant="c")
    assert plan.groups == (frozenset("c"), frozenset("f"))
    after = split_clause(cs, plan)
    assert after.by_id(2).literals == (lit("p", f(App("c"))),)
    assert after.by_id(3).literals == (lit("p", f(f(Var("_sv0")))),)


def test_extra_constant_must_not_collide_with_a_function():
    cs = impl_set()
    with pytest.raises(ValueError, match="arity 1"):
        full_split_plan(cs, 1, var="X", extra_constant="f")


def test_splitting_a_restricted_variable_skips_excluded_groups():
    cs = counted_set()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    child = descendants(cs, after)[0]
    allowed = after.by_id(child).variables()[0].allowed
    again = split_clause(after, full_split_plan(after, child, var="X"))
    grand = descendants(after, again)
    # only the symbols inside the restriction survive as groups
    assert len(grand) == len(allowed)


# ---------------------------------------------------------------------------
# Choosing the split variable


def test_chooser_rejects_a_variable_that_breaks_nothing():
    # every instance of p(X) keeps a partner: p(a) against ~p(a),
    # p(f(_)) against ~p(f(Z))
    cs = ClauseSet.from_groups(
        [
            [lit("p", x)],
            [lit("p", a, sign=False)],
            [lit("p", f(Var("Z")), sign=False)],
        ]
    )
    assert choose_split_variable(cs, 1) is None
    with pytest.raises(ValueError, match="breaks"):
        full_split_plan(cs, 1)


def test_chooser_picks_the_variable_with_a_partnerless_instance():
    # p(b) has no partner once b is in the vocabulary
    cs = ClauseSet.from_groups(
        [
            [lit("p", x)],
            [lit("p", a, sign=False)],
            [lit("q", b)],
        ]
    )
    assert choose_split_variable(cs, 1) == Var("X")
    plan = full_split_plan(cs, 1)
    assert plan.var == "X"


def test_chooser_skips_ground_clauses_and_function_free_sets():
    assert choose_split_variable(impl_set(), 2) is None
    flat = ClauseSet.from_groups([[lit("p", x)], [lit("p", y, sign=False)]])
    assert choose_split_variable(flat, 1) is None


def test_chooser_breaks_ties_by_first_occurrence():
    cs = ClauseSet.from_groups(
        [
            [lit("p", x), lit("q", y)],
            [lit("p", a, sign=False)],
            [lit("q", a, sign=False)],
            [lit("r", b)],
        ]
    )
    assert choose_split_variable(cs, 1) == Var("X")


# ---------------------------------------------------------------------------
# Binary splits and restricted variables


def test_binary_plan_balances_symbol_occurrences():
    cs = counted_set()
    plan = binary_split_plan(cs, 1, var="X")
    assert set(plan.groups) == {frozenset("ag"), frozenset("bf")}


def test_binary_plan_needs_two_symbols():
    cs = ClauseSet.from_groups([[lit("p", x)], [lit("p", a, sign=False)]])
    with pytest.raises(ValueError, match="at least two"):
        binary_split_plan(cs, 1, var="X")


def test_binary_split_emits_restricted_variables():
    cs = counted_set()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    kids = descendants(cs, after)
    assert len(kids) == 2
    restrictions = {after.by_id(cid).variables()[0].allowed for cid in kids}
    assert restrictions == {frozenset("ag"), frozenset("bf")}


def test_restricted_instances_honor_the_restriction():
    cs = counted_set()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    child = descendants(cs, after)[0]
    allowed = after.by_id(child).variables()[0].allowed
    universe = herbrand_terms(cs.functions, 2)
    for inst in ground_instances(after.by_id(child), universe, max_depth=2):
        (l,) = inst
        assert l.args[0].functor in allowed


def test_binary_split_keeps_the_ground_instances():
    cs = counted_set()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    universe = herbrand_terms(cs.functions, 2)
    before = ground_instances(cs.by_id(1), universe, max_depth=2)
    assert before == instance_sets(after, descendants(cs, after), universe, max_depth=2)


def test_expand_restricted_removes_all_restrictions():
    cs = counted_set()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    flat = expand_restricted(after)
    assert all(
        v.allowed is None for c in flat.clauses for v in c.variables()
    )
    universe = herbrand_terms(cs.functions, 2)
    assert instance_sets(after, descendants(cs, after), universe, max_depth=2) == (
        instance_sets(flat, descendants(cs, flat), universe, max_depth=2)
    )


def test_expand_restricted_keeps_untouched_ids():
    cs = counted_set()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    flat = expand_restricted(after)
    for cid in (2, 3, 4):
        assert flat.by_id(cid) == after.by_id(cid)


def test_expand_restricted_matches_the_full_split():
    cs = counted_set()
    full = split_clause(cs, full_split_plan(cs, 1, var="X"))
    flat = expand_restricted(split_clause(cs, binary_split_plan(cs, 1, var="X")))
    universe = herbrand_terms(cs.functions, 2)
    assert instance_sets(full, descendants(cs, full), universe, max_depth=2) == (
        instance_sets(flat, descendants(cs, flat), universe, max_depth=2)
    )


def test_expand_restricted_returns_a_set_without_restrictions_as_is():
    cs = impl_set()
    assert expand_restricted(cs) is cs
    full = split_clause(cs, full_split_plan(cs, 1, var="X"))
    assert expand_restricted(full) is full


@pytest.mark.parametrize("seed", range(6))
def test_expand_restricted_reads_only_the_clauses_a_split_made(seed):
    # a set with fresh _svN names already, split again: the expansion that
    # reads only the split's clauses prints what the whole-set one prints
    rng = random.Random(seed)
    cs = random_first_order(rng, 12)
    for _ in range(2):
        clause = rng.choice([c for c in cs.clauses if c.variables()])
        var = rng.choice(clause.variables()).name
        after = split_clause(cs, binary_split_plan(cs, clause.id, var=var))
        made = descendants(cs, after)
        assert print_tptp(expand_restricted(after, made)) == print_tptp(expand_restricted(after))
        cs = expand_restricted(after)


def test_print_tptp_refuses_restricted_variables():
    cs = counted_set()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    with pytest.raises(ValueError, match=r"clause c5 \(~p\(X\{a,g\}\)\) has a restricted "
                                         r"variable.*expand_restricted"):
        print_tptp(after)
    flat = expand_restricted(after)
    assert len(parse_tptp(print_tptp(flat))) == len(flat) == 7


# ---------------------------------------------------------------------------
# Derived sets reuse the parent's tables


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def fo_filter_sets(tmp_path_factory):
    """The benchmark's fo-filter inputs of seed 1, read as the CLI reads them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        import workloads
    inputs = workloads.gen_fo_filter(random.Random(1), str(tmp_path_factory.mktemp("fo")))
    sets = []
    for inp in inputs:
        with open(inp.path) as fh:
            sets.append(parse_tptp(fh.read()))
    return sets


def _assert_split_tables_match_a_rebuild(cs: ClauseSet) -> None:
    open_clauses = [c for c in cs.clauses if c.variables()]
    for target in (open_clauses[0], open_clauses[-1]):
        var = target.variables()[-1]
        for plan in (full_split_plan(cs, target.id, var=var),
                     binary_split_plan(cs, target.id, var=var)):
            after = split_clause(cs, plan)
            for derived in (after, expand_restricted(after)):
                rebuilt = ClauseSet.from_clauses(derived.clauses)
                assert derived.predicates == rebuilt.predicates
                assert derived.functions == rebuilt.functions


def test_split_tables_match_a_rebuild_on_the_test_sets():
    for cs in (impl_set(), counted_set(), equality_set()):
        _assert_split_tables_match_a_rebuild(cs)


def test_split_tables_match_a_rebuild_on_the_benchmark_sets(fo_filter_sets):
    assert len(fo_filter_sets) == 22
    for cs in fo_filter_sets:
        _assert_split_tables_match_a_rebuild(cs)


def test_split_checks_only_the_new_clauses(monkeypatch):
    cs = parse_tptp("cnf(c1, axiom, (~p(X) | q(X))). cnf(c2, axiom, p(a)). "
                    "cnf(c3, axiom, (~q(f(a)) | r(b))).")
    walked: list[int] = []
    check = ClauseSet._check_symbols

    def counting(self, clauses):
        walked.extend(c.id for c in clauses)
        return check(self, clauses)

    monkeypatch.setattr(ClauseSet, "_check_symbols", counting)
    after = split_clause(cs, full_split_plan(cs, 1, var="X"))
    assert walked == descendants(cs, after) == [4, 5, 6]
    assert expand_restricted(after) is after
    walked.clear()
    after = split_clause(cs, binary_split_plan(cs, 1, var="X"))
    flat = expand_restricted(after)
    assert walked == descendants(cs, after) + descendants(after, flat) == [4, 5, 6, 7]


# ---------------------------------------------------------------------------
# Bounded universes


def test_universe_edge_cases():
    assert herbrand_terms({"f": 1}, 3) == []
    assert herbrand_terms({"c": 0}, 2) == [App("c")]
    assert herbrand_terms({"a": 0}, 0) == []


def test_ground_instances_of_a_ground_clause():
    cs = impl_set()
    universe = herbrand_terms(cs.functions, 2)
    assert ground_instances(cs.by_id(2), universe) == {frozenset([lit("p", a)])}


# ---------------------------------------------------------------------------
# Distances never decrease


def equality_set() -> ClauseSet:
    # c1: symmetry rule for eq, c2..c4 ground eq facts, c5/c6 fillers
    return ClauseSet.from_groups(
        [
            [lit("eq", x, y, sign=False), lit("eq", y, x)],
            [lit("eq", a, b)],
            [lit("eq", f(a), f(b), sign=False)],
            [lit("eq", f(b), f(a))],
            [lit("p", a)],
            [lit("p", b, sign=False)],
        ]
    )


def _pair_distances(cs: ClauseSet, ids: list[int]) -> dict[tuple[int, int], float]:
    graph = build_graph(cs)
    out = {}
    for s in ids:
        dmap = bfs_from_support(graph, [s])
        for t in ids:
            out[(s, t)] = dmap.distance(t)
    return out


def test_splitting_the_symmetry_rule_pushes_clauses_apart():
    cs = equality_set()
    before = _pair_distances(cs, [2, 3, 4, 5, 6])
    assert before[(2, 3)] == 3
    after = split_clause(cs, full_split_plan(cs, 1, var="X"))
    after_d = _pair_distances(after, [2, 3, 4, 5, 6])
    assert all(after_d[p] >= before[p] for p in before)
    assert after_d[(2, 3)] > 3


def test_random_splits_never_shrink_surviving_distances():
    rng = random.Random(4242)
    done = 0
    while done < 25:
        cs = random_first_order(rng, rng.randint(4, 7))
        target = next((c for c in cs.clauses if c.variables()), None)
        if target is None:
            continue
        plan = full_split_plan(
            cs, target.id, var=target.variables()[0], extra_constant="k0"
        )
        after = split_clause(cs, plan)
        survivors = [i for i in cs.ids() if i != target.id]
        before = _pair_distances(cs, survivors)
        after_d = _pair_distances(after, survivors)
        assert all(after_d[p] >= before[p] for p in before)
        done += 1


# ---------------------------------------------------------------------------
# Satisfiability over a bounded universe is unchanged


def _tiny_fo(rng: random.Random) -> ClauseSet:
    terms = [a, b, x, y, f(a), f(b), f(x), f(y)]
    groups = []
    for _ in range(rng.randint(3, 5)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(["p", "q", "r"])
            n = 2 if pred == "r" else 1
            args = tuple(rng.choice(terms) for _ in range(n))
            lits.append(Literal(rng.random() < 0.5, pred, args))
        groups.append(lits)
    return ClauseSet.from_groups(groups)


def _grounded_verdict(cs: ClauseSet, universe) -> str:
    seen = set()
    clauses = []
    for c in cs.clauses:
        for lits in ground_instances(c, universe, max_depth=2):
            if lits not in seen:
                seen.add(lits)
                clauses.append(Clause(len(clauses) + 1, tuple(lits)))
    if not clauses:
        return "sat"
    return dpll(ClauseSet.from_clauses(clauses)).verdict


def test_split_preserves_bounded_satisfiability():
    rng = random.Random(99)
    done = 0
    while done < 30:
        cs = _tiny_fo(rng)
        target = next((c for c in cs.clauses if c.variables()), None)
        if target is None:
            continue
        plan = full_split_plan(
            cs, target.id, var=target.variables()[0], extra_constant="a"
        )
        after = split_clause(cs, plan)
        syms = dict(cs.functions)
        syms.setdefault("a", 0)
        universe = herbrand_terms(syms, 2)
        assert _grounded_verdict(cs, universe) == _grounded_verdict(after, universe)
        done += 1


def test_split_preserves_a_known_contradiction():
    cs = ClauseSet.from_groups([[lit("p", x)], [lit("p", f(y), sign=False)]])
    after = split_clause(cs, full_split_plan(cs, 1, var="X", extra_constant="a"))
    universe = herbrand_terms({"a": 0, "f": 1}, 2)
    assert _grounded_verdict(cs, universe) == "unsat"
    assert _grounded_verdict(after, universe) == "unsat"
