"""Core syntax: terms, literals, clause set semantics, unification."""

from __future__ import annotations

import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from altpath.clauses import (
    App,
    ArityError,
    Clause,
    ClauseSet,
    Literal,
    Var,
    apply_literal,
    apply_term,
    complementary_unifiable,
    literal_key,
)
from altpath import parsing
from altpath.dpll import MODES, dpll, dpll_rel
from altpath.generators import random_3sat, random_first_order, random_ground
from altpath.parsing import parse_dimacs, parse_tptp, print_dimacs, print_tptp
from oracles import (
    SymbolConflict,
    enumerate_unifiers,
    herbrand_terms,
    is_tautology,
    naive_unifier,
    reference_atoms,
    reference_rows,
    reference_symbol_tables,
    rename_apart,
    renamed_apart_unifiable,
)


def lit(s: str, *args, sign=True) -> Literal:
    return Literal(sign, s, tuple(args))


x, y, z = Var("X"), Var("Y"), Var("Z")
a, b = App("a"), App("b")


def f(*args):
    return App("f", tuple(args))


def g(*args):
    return App("g", tuple(args))


# ---------------------------------------------------------------------------
# Terms and literals


def test_negate_is_an_involution():
    p = lit("p", x, f(a))
    assert p.negated() != p
    assert p.negated().negated() == p


def test_negate_swaps_sign_only():
    p = lit("p", a)
    assert p.negated() == Literal(False, "p", (a,))


def test_atom_drops_sign():
    assert lit("p", a, sign=False).atom == lit("p", a)
    assert lit("p", a).atom == lit("p", a)


def test_term_vars_first_occurrence_order():
    t = f(g(y, x), y, z)
    assert [v.name for v in t.variables] == ["Y", "X", "Z"]


# ---------------------------------------------------------------------------
# Unification examples: does p(...) complement-unify with ~p(...)?


def unifiable(args1, args2) -> bool:
    """Whether p(args1) and ~p(args2) complement-unify, asked both ways."""
    one, two = lit("p", *args1), lit("p", *args2, sign=False)
    answer = complementary_unifiable(one, two)
    assert complementary_unifiable(two, one) == answer
    return answer


def test_unify_binds_both_sides():
    assert unifiable((x, b), (a, y))
    assert not unifiable((x, b), (a, a))


def test_unify_occurs_check_fails():
    assert not unifiable((x, x), (y, f(y)))
    assert not unifiable((x, f(x)), (g(y, y), y))


def test_unify_mismatched_heads():
    assert not unifiable((f(a),), (g(a, a),))
    assert not unifiable((f(x),), (g(y, z),))
    assert not complementary_unifiable(lit("p", x), lit("q", x, sign=False))


def test_unify_deep_chain():
    assert unifiable((x, g(x, y)), (a, g(z, b)))
    # Z is forced to X's image a
    assert not unifiable((x, g(x, y)), (a, g(b, b)))


def test_unify_same_variable_is_trivial():
    assert naive_unifier((x,), (x,)) == {}
    assert unifiable((x, x), (y, y))


def test_unify_idempotent_application():
    assert unifiable((x, y), (g(z, z), x))
    # the oracle's unifiers are idempotent: applying one twice changes nothing
    sides = rename_apart(lit("p", x, y), lit("p", g(z, z), x, sign=False))
    s = naive_unifier(*sides)
    assert s is not None
    for t in sides[0] + sides[1]:
        assert apply_term(apply_term(t, s), s) == apply_term(t, s)


# ---------------------------------------------------------------------------
# Unifiability against the oracle, and the oracle against ground enumeration

UNIVERSE = herbrand_terms({"a": 0, "b": 0, "f": 1}, 2)


@st.composite
def small_terms(draw, max_depth=3):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        kind = draw(st.sampled_from(["var", "const"]))
        if kind == "var":
            return Var(draw(st.sampled_from(["X", "Y", "Z"])))
        return App(draw(st.sampled_from(["a", "b"])))
    head = draw(st.sampled_from(["f1", "g2"]))
    if head == "f1":
        return App("f", (draw(small_terms(max_depth=depth - 1)),))
    return App(
        "g",
        (
            draw(small_terms(max_depth=depth - 1)),
            draw(small_terms(max_depth=depth - 1)),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(small_terms(), small_terms(), small_terms(), small_terms())
def test_unify_agrees_with_ground_enumeration(t1, t2, t3, t4):
    # the program's yes/no against the oracle, and the oracle against the
    # ground substitutions over the universe (which instantiates no g-term);
    # two arguments a side let a repeated variable need the occurs check
    one, two = lit("p", t1, t2), lit("p", t3, t4, sign=False)
    r1, r2 = rename_apart(one, two)
    sigma = naive_unifier(r1, r2)
    assert complementary_unifiable(one, two) == (sigma is not None)
    if sigma is None:
        assert enumerate_unifiers(App("p", r1), App("p", r2), UNIVERSE) == []
    else:
        assert [apply_term(t, sigma) for t in r1] == [apply_term(t, sigma) for t in r2]


# ---------------------------------------------------------------------------
# Complementary unifiability


def test_complementary_needs_opposite_signs():
    assert not complementary_unifiable(lit("p", x), lit("p", a))
    assert complementary_unifiable(lit("p", x), lit("p", a, sign=False))


def test_complementary_renames_apart():
    # p(X) and ~p(f(X)) share a variable name but are separate occurrences
    assert complementary_unifiable(lit("p", x), lit("p", f(x), sign=False))


def test_complementary_ground_is_exact_complement():
    assert complementary_unifiable(lit("p", a), lit("p", a, sign=False))
    assert not complementary_unifiable(lit("p", a), lit("p", b, sign=False))


def test_complementary_different_predicates():
    assert not complementary_unifiable(lit("p", a), lit("q", a, sign=False))


@settings(max_examples=150, deadline=None)
@given(small_terms(), small_terms(), st.booleans(), st.booleans())
def test_complementary_is_symmetric(t1, t2, s1, s2):
    l1 = Literal(s1, "p", (t1,))
    l2 = Literal(s2, "p", (t2,))
    assert complementary_unifiable(l1, l2) == complementary_unifiable(l2, l1)


def test_complementary_occurs_check_across_sides():
    assert not complementary_unifiable(lit("p", x, f(x)), lit("p", y, y, sign=False))


def test_complementary_repeated_variable_needs_equal_images():
    assert not complementary_unifiable(lit("p", x, x), lit("p", a, b, sign=False))
    assert complementary_unifiable(lit("p", x, x), lit("p", a, a, sign=False))


def test_complementary_disjoint_restrictions_fail():
    r1 = Var("X", frozenset({"a", "f"}))
    r2 = Var("Y", frozenset({"b", "g"}))
    assert not complementary_unifiable(lit("p", r1), lit("p", r2, sign=False))
    # the same name on both sides is two variables, and still disjoint
    r3 = Var("X", frozenset({"b"}))
    assert not complementary_unifiable(lit("p", r1), lit("p", r3, sign=False))


_RESTRICTIONS = (None, None, {"a"}, {"b"}, {"a", "f"}, {"f", "g"}, {"b", "g"})


def _seeded_literal(rng: random.Random, positive: bool, arity: int) -> Literal:
    # a variable name carries one restriction throughout its literal
    allowed = {}
    for name in ("X", "Y", "Z"):
        pick = rng.choice(_RESTRICTIONS)
        allowed[name] = None if pick is None else frozenset(pick)

    def term(depth: int):
        if depth <= 0 or rng.random() < 0.5:
            if rng.random() < 0.6:
                name = rng.choice(("X", "Y", "Z"))
                return Var(name, allowed[name])
            return App(rng.choice(("a", "b")))
        if rng.random() < 0.6:
            return f(term(depth - 1))
        return g(term(depth - 1), term(depth - 1))

    return Literal(positive, "p", tuple(term(3) for _ in range(arity)))


def _assert_restricted_unifier(ts1, ts2):
    """The oracle's unifier equates the sides, and maps each restricted
    variable to an application it allows or to a variable allowing less."""
    s = naive_unifier(ts1, ts2)
    assert [apply_term(t, s) for t in ts1] == [apply_term(t, s) for t in ts2]
    for v in App("", ts1 + ts2).variables:
        image = s.get(v.name, v)
        if v.allowed is None:
            continue
        if isinstance(image, App):
            assert image.functor in v.allowed
        else:
            assert image.allowed is not None and image.allowed <= v.allowed


@pytest.mark.parametrize("seed", range(4))
def test_complementary_matches_renaming_oracle(seed):
    """Seeded pairs with nested terms, variable names shared across the two
    sides, repeated variables and restricted variables."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(400):
        arity = rng.randint(1, 3)
        l1 = _seeded_literal(rng, True, arity)
        l2 = _seeded_literal(rng, False, arity)
        for one, two in ((l1, l2), (l2, l1)):
            want = renamed_apart_unifiable(one, two)
            assert complementary_unifiable(one, two) == want, (str(one), str(two))
        if want:
            _assert_restricted_unifier(*rename_apart(l1, l2))
        hits += want
    # both answers occur often enough for the comparison to mean something
    assert 40 < hits < 360


def test_apply_literal():
    s = {"X": a}
    assert apply_literal(lit("p", x, y, sign=False), s) == lit("p", a, y, sign=False)


# ---------------------------------------------------------------------------
# Restricted variables (used by clause splitting)


def test_restricted_var_accepts_allowed_head():
    r = Var("X", frozenset({"f", "a"}))
    assert unifiable((r,), (f(y),))
    assert unifiable((r,), (a,))


def test_restricted_var_rejects_other_heads():
    r = Var("X", frozenset({"f"}))
    assert not unifiable((r,), (a,))
    assert not unifiable((r,), (g(a, b),))


def test_restricted_vars_merge_on_intersection():
    r1 = Var("X", frozenset({"f", "a"}))
    r2 = Var("Y", frozenset({"f", "b"}))
    assert unifiable((r1, r1), (r2, f(z)))
    # a is allowed by X only and b by Y only: the meet allows neither
    assert not unifiable((r1, r1), (r2, a))
    assert not unifiable((r1, r1), (r2, b))


def test_restricted_vars_disjoint_restrictions_fail():
    assert not unifiable((Var("X", frozenset({"a"})),), (Var("Y", frozenset({"b"})),))


def test_restricted_var_transfers_through_unification():
    # Y is bound to X{a}, so b no longer fits where X does
    r = Var("X", frozenset({"a"}))
    assert not unifiable((f(r), r), (f(y), b))
    assert not unifiable((f(y), y), (f(r), b))
    assert unifiable((f(r), r), (f(y), a))


# ---------------------------------------------------------------------------
# Clause semantics


def test_clause_merges_duplicate_literals():
    c = Clause(1, (lit("p", a), lit("p", a), lit("q", b)))
    assert len(c) == 2


def test_clause_canonical_order_stable():
    c1 = Clause(1, (lit("q", b, sign=False), lit("p", a)))
    c2 = Clause(1, (lit("p", a), lit("q", b, sign=False)))
    assert c1.literals == c2.literals
    assert [l.positive for l in c1.literals] == [True, False]


def test_literal_key_numeric_atoms_sort_numerically():
    lits = [Literal(True, "10"), Literal(True, "2")]
    assert sorted(lits, key=literal_key)[0].pred == "2"


def test_empty_clause():
    c = Clause(1, ())
    assert c.is_empty
    assert str(c) == "$false"


def test_tautology_detection():
    # the oracle's own test, which the reference solvers drop clauses by
    assert is_tautology(Clause(1, (lit("p", a), lit("p", a, sign=False))))
    assert not is_tautology(Clause(1, (lit("p", a), lit("p", b, sign=False))))


def test_clause_set_ids_and_subset():
    cs = ClauseSet.from_groups([[lit("p", a)], [lit("q", b)], [lit("r", a)]])
    assert cs.ids() == [1, 2, 3]
    sub = cs.subset([3, 1])
    assert sub.ids() == [1, 3]
    assert sub.by_id(3).literals == cs.by_id(3).literals


def test_clause_set_subset_unknown_id():
    cs = ClauseSet.from_groups([[lit("p", a)]])
    with pytest.raises(KeyError):
        cs.subset([7])


def test_clause_set_splice_replaces_in_place():
    cs = ClauseSet.from_groups(
        [[lit("p", x)], [lit("q", g(a, b))], [lit("r", a)], [lit("s", b)]],
        roles={1: "axiom", 2: "hypothesis", 3: "negated_conjecture"},
        names={1: "one", 2: "two", 3: "three", 4: "four"},
    )
    out = cs.splice({3: [(lit("r", f(a)), lit("r", b))], 1: [(lit("p", a),), (lit("p", b),)],
                     2: []})
    # fresh ids count up in clause order; the replaced clause's role, no name
    assert out.ids() == [5, 6, 7, 4]
    assert [out.by_id(i).literals for i in (5, 6, 7)] == [
        (lit("p", a),), (lit("p", b),), (lit("r", b), lit("r", f(a)))]
    assert out.roles == {5: "axiom", 6: "axiom", 7: "negated_conjecture"}
    assert out.names == {4: "four"}
    # the parent's tables plus the new clauses' symbols; g outlives c2
    assert out.predicates == {"p": 1, "q": 1, "r": 1, "s": 1}
    assert out.functions == {"a": 0, "b": 0, "g": 2, "f": 1}
    assert cs.ids() == [1, 2, 3, 4] and "f" not in cs.functions
    assert out.splice({}).ids() == out.ids()


def test_clause_set_splice_checks_the_new_clauses():
    cs = ClauseSet.from_groups([[lit("p", a)], [lit("q", f(a))]])
    with pytest.raises(ArityError, match="clause 3"):
        cs.splice({1: [(lit("p", a, b),)]})
    with pytest.raises(ArityError, match="clause 3"):
        cs.splice({1: [(lit("p", App("f", (a, b))),)]})
    with pytest.raises(KeyError, match=r"\[7\]"):
        cs.splice({7: []})


def test_clause_set_check_support():
    cs = ClauseSet.from_groups([[lit("p", a)], [lit("q", b)]])
    assert cs.check_support([2, 1, 2]) == frozenset({1, 2})
    with pytest.raises(ValueError, match="support id 7 not in the clause set"):
        cs.check_support([1, 7])
    with pytest.raises(ValueError, match="support ids 7, 9 not in the clause set"):
        cs.check_support([9, 7])


def test_encode_keeps_clause_order_tautologies_and_empty_clauses():
    cs = ClauseSet.from_groups([
        [lit("q", b), lit("p", a, sign=False)],
        [],
        [lit("p", a), lit("p", a, sign=False)],
        [lit("r", Var("X"))],
    ])
    assert cs.atoms() == [lit("p", a), lit("q", b), lit("r", Var("X"))]
    assert cs.rows == [(2, -1), (), (1, -1), (3,)]


@pytest.mark.parametrize("seed", range(6))
def test_encode_matches_reference_order(seed):
    # numeric names past 9 tell numeric from text order; first-order atoms
    # with shared predicates are ordered by their printed arguments
    rng = random.Random(seed)
    for cs in (random_ground(rng, n_atoms=14, n_clauses=30),
               random_first_order(rng, n_clauses=12)):
        atoms = reference_atoms(cs)
        assert (cs.atoms(), cs.rows) == (atoms, reference_rows(cs, atoms))


def _sets_of_every_birth(seed: int):
    """(birth, set) pairs for one seed, each set unread so far: DIMACS from
    both readers, ``from_groups`` with numeric names past 9 and with text
    names, TPTP, a subset and a subset of a subset of each (taken after the
    parent is numbered, so they are born from rows), and a splice."""
    rng = random.Random(seed)
    text = print_dimacs(random_3sat(rng, rng.randint(12, 40), rng.randint(10, 60)))
    padded = re.sub(r"(^| )-(\d)", r"\1-0\2", text, flags=re.M)
    assert parsing._dimacs_fast(padded) is None  # the line reader's alone
    ground = [c.literals for c in random_ground(rng, n_atoms=14, n_clauses=30)]
    names = ("p", "q1", "q10", "r", "2", "10", "9")
    named = [[lit(names[int(l.pred) % 7], sign=l.positive) for l in c]
             for c in random_ground(rng, n_atoms=14, n_clauses=20)]
    tptp = print_tptp(random_first_order(rng, n_clauses=12))
    makers = {"dimacs": lambda: parse_dimacs(text), "dimacs lines": lambda: parse_dimacs(padded),
              "groups": lambda: ClauseSet.from_groups(ground),
              "names": lambda: ClauseSet.from_groups(named), "tptp": lambda: parse_tptp(tptp)}
    sets = []
    for birth, make in makers.items():
        sets.append((birth, make()))
        parent = make()
        parent.rows  # numbered, so its subsets are born from rows
        if rng.random() < 0.5:
            parent.atoms()  # and its literals are held before the subset reads them
        sub = parent.subset(rng.sample(parent.ids(), 2 * len(parent) // 3))
        sets.append((birth + " subset", sub))
        sub.rows
        inner = sub.subset(rng.sample(sub.ids(), len(sub) // 2))
        sets.append((birth + " subset of a subset", inner))
    spliced = ClauseSet.from_groups(ground)
    victim = rng.choice(spliced.ids())
    sets.append(("splice", spliced.splice({victim: [spliced.by_id(victim).literals + (lit("11"),),
                                                    (lit("12", sign=False), lit("3"))]})))
    return sets


@pytest.mark.parametrize("seed", range(8))
def test_held_order_matches_reference_for_every_birth(seed):
    for birth, cs in _sets_of_every_birth(seed):
        got = cs.atoms(), cs.rows  # read before the reference derives any clause object
        atoms = reference_atoms(cs)
        assert got == (atoms, reference_rows(cs, atoms)), birth


def _tables(cs: ClauseSet):
    return list(cs.predicates.items()), list(cs.functions.items())


def _items(tables):
    return tuple(list(table.items()) for table in tables)


@pytest.mark.parametrize("seed", range(8))
def test_symbol_tables_keep_first_occurrence_order_for_every_birth(seed):
    # the oracle walks the clause objects; a subset keeps its parent's
    # tables, and a splice of the "groups" set registers its new clauses
    # after the parent's symbols
    want: dict[str, tuple] = {}
    sets = _sets_of_every_birth(seed)
    got = [_tables(cs) for _, cs in sets]  # read before the oracle derives clause objects
    for (birth, cs), tables in zip(sets, got):
        parent = birth.split(" subset")[0]
        if birth == "splice":
            groups = dict(sets)["groups"]
            new = [c for c in cs.clauses if c.id > groups.max_id()]
            assert new
            expected = _items(reference_symbol_tables(new, *want["groups"]))
        elif parent != birth:
            expected = _items(want[parent])
        else:
            want[birth] = reference_symbol_tables(cs.clauses)
            expected = _items(want[birth])
        assert tables == expected, birth


def _with_conflicts(rng: random.Random, clauses: list[Clause]) -> list[Clause]:
    """The clauses, renumbered from 1, with one to three literals added that
    may use a symbol at a second arity: a predicate given one more
    argument, or a function symbol at a random arity under a fresh
    predicate."""
    groups = [list(c.literals) for c in clauses]
    used = [l for c in clauses for l in c.literals] or [lit("p")]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            old = rng.choice(used)
            new = Literal(rng.random() < 0.5, old.pred, old.args + (a,))
        else:
            term = App(rng.choice(("f", "g", "a", "h")), (b,) * rng.randint(0, 2))
            new = Literal(rng.random() < 0.5, "z", (term,))
        rng.choice(groups).append(new)
    return [Clause(i, tuple(g)) for i, g in enumerate(groups, 1)]


@pytest.mark.parametrize("seed", range(8))
def test_arity_error_names_the_clause_of_the_first_conflict(seed):
    # the oracle's first conflict is the clause ArityError names, for clause
    # objects, for TPTP text and for the new clauses of a splice; with no
    # conflict, the tables are the oracle's in order
    rng = random.Random(seed)
    checked = 0
    for _ in range(12):
        first_order = rng.random() < 0.6
        base = (random_first_order(rng, n_clauses=rng.randint(1, 12)) if first_order
                else random_ground(rng, n_atoms=8, n_clauses=rng.randint(1, 12)))
        clauses = _with_conflicts(rng, base.clauses)
        parent = ClauseSet.from_clauses(base.clauses)
        victim = rng.choice(parent.ids())
        added = clauses[parent.ids().index(victim)].literals
        births = [(ArityError, lambda: ClauseSet.from_clauses(clauses), clauses, ({}, {})),
                  (ArityError, lambda: parent.splice({victim: [added]}),
                   [Clause(parent.max_id() + 1, added)], (parent.predicates, parent.functions))]
        if first_order:
            text = print_tptp(ClauseSet(clauses))
            births.append((parsing.ParseError, lambda: parse_tptp(text), clauses, ({}, {})))
        for error, make, walked, tables in births:
            try:
                want = reference_symbol_tables(walked, *tables)
            except SymbolConflict as conflict:
                with pytest.raises(error) as raised:
                    make()
                assert str(raised.value).endswith(f"(clause {conflict.clause})"), walked
                checked += 1
            else:
                assert _tables(make()) == _items(want), walked
    assert checked


@pytest.mark.parametrize("seed", range(2))
def test_sets_of_every_birth_pickle_before_and_after_numbering(seed):
    for birth, cs in _sets_of_every_birth(seed):
        unread = pickle.dumps(cs)
        cs.atoms()
        for back in (pickle.loads(unread), pickle.loads(pickle.dumps(cs))):
            assert (back.rows, back.atoms(), back.clauses) == (cs.rows, cs.atoms(), cs.clauses), birth
            assert back == cs, birth


@pytest.mark.parametrize("seed", range(6))
def test_dimacs_and_object_sets_solve_alike(seed):
    rng = random.Random(400 + seed)
    objects = random_3sat(rng, rng.randint(8, 30), rng.randint(20, 90))
    text = print_dimacs(objects)
    padded = re.sub(r"(^| )-(\d)", r"\1-0\2", text, flags=re.M)
    for read in (parse_dimacs(text), parse_dimacs(padded)):
        results = [(dpll(read), dpll(objects))]
        results += [(dpll_rel(read, [1], mode=mode), dpll_rel(objects, [1], mode=mode))
                    for mode in MODES]
        for got, want in results:
            assert got == want
            assert list(got.model) == list(want.model)


def test_clause_set_arity_conflict_rejected():
    with pytest.raises(ArityError):
        ClauseSet.from_groups([[lit("p", a)], [lit("p", a, b)]])
    with pytest.raises(ArityError):
        ClauseSet.from_groups([[lit("p", f(a))], [lit("q", App("f", (a, b)))]])


def test_clause_set_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        ClauseSet.from_clauses([Clause(1, (lit("p", a),)), Clause(1, (lit("q", a),))])


def test_clause_set_atoms_sorted():
    cs = ClauseSet.from_groups([[lit("q", b, sign=False)], [lit("p", a)]])
    assert [l.pred for l in cs.atoms()] == ["p", "q"]


def test_atom_unification_ignores_sign():
    assert complementary_unifiable(lit("p", x), lit("p", a, sign=False))
    assert complementary_unifiable(lit("p", x, sign=False), lit("p", a))
    assert not complementary_unifiable(lit("p", x), lit("q", a, sign=False))
