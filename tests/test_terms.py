"""Terms carry their hash, ground flag, text and variables: each field
against the oracle's own walks, and terms too deep for any walk that
recurses."""

from __future__ import annotations

import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from altpath.clauses import (
    App,
    Literal,
    Var,
    apply_term,
    complementary_unifiable,
    term_vars,
)
from altpath.generators import bounded_occurrence, random_first_order
from altpath.splitting import binary_split_plan, full_split_plan, split_clause

from oracles import reference_text, reference_vars, renamed_apart_unifiable


def _sets(seed: int):
    """Seeded first-order sets, and split outputs that keep the split's
    restricted variables and fresh ``_svN`` names."""
    rng = random.Random(seed)
    sets = [random_first_order(rng, 30, max_depth=3),
            bounded_occurrence(rng, 3, 3, 6, 30, first_order=True)]
    for cs in list(sets):
        clause = next(c for c in cs.clauses if c.variables())
        var = clause.variables()[-1].name
        sets.append(split_clause(cs, binary_split_plan(cs, clause.id, var=var)))
        sets.append(split_clause(cs, full_split_plan(cs, clause.id, var=var)))
    return sets


def _subterms(t):
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        if isinstance(t, App):
            todo.extend(t.args)


def _rebuilt(t):
    # an equal term made of new objects
    if isinstance(t, Var):
        return Var(t.name, t.allowed)
    return App(t.functor, tuple(_rebuilt(a) for a in t.args))


@pytest.mark.parametrize("seed", range(4))
def test_cached_fields_match_the_oracle_walks(seed):
    restricted = 0
    for cs in _sets(seed):
        for clause in cs.clauses:
            args = [a for lit in clause.literals for a in lit.args]
            assert [v.name for v in clause.variables()] == [v.name for v in reference_vars(args)]
            for lit in clause.literals:
                assert lit.is_ground() == (not reference_vars(lit.args))
                for top in lit.args:
                    for t in _subterms(top):
                        want = reference_vars([t])
                        assert str(t) == reference_text(t)
                        assert term_vars(t) == want
                        assert (isinstance(t, App) and t.ground) == (not want)
                        twin = _rebuilt(t)
                        assert twin == t and hash(twin) == hash(t)
                        restricted += isinstance(t, Var) and t.allowed is not None
    assert restricted  # the binary splits left restrictions to read


@pytest.mark.parametrize("seed", range(4))
def test_complementary_unifiable_matches_the_oracle_on_seeded_sets(seed):
    rng = random.Random(seed)
    answers = set()
    for cs in _sets(seed):
        lits = sorted({lit for c in cs.clauses for lit in c.literals}, key=str)
        pairs = [(l, m) for l in lits for m in lits if l.pred == m.pred]
        for l, m in rng.sample(pairs, min(300, len(pairs))):
            want = renamed_apart_unifiable(l, m)
            assert complementary_unifiable(l, m) == want, (str(l), str(m))
            answers.add(want)
    assert answers == {True, False}


def test_restricted_variables_prefilter_and_merge():
    ab, bc, c = frozenset("ab"), frozenset("bc"), frozenset("c")
    f, a, b = (lambda *xs: App("f", xs)), App("a"), App("b")
    cases = [
        ((Var("X", ab), Var("Y", bc)), (Var("Z", bc), Var("Z", ab))),  # a merge at b
        ((Var("X", ab), Var("X", ab)), (Var("Y", c), Var("Z"))),       # disjoint meet
        ((f(Var("X", ab)), b), (f(Var("Y", bc)), b)),                  # ground pair equal
        ((f(Var("X", ab)), b), (f(Var("Y", bc)), a)),                  # ground pair unequal
        ((f(Var("X")), a), (App("g", (a,)), Var("Y"))),                # top symbols differ
        ((Var("X", ab),), (f(a),)),                                    # lone restricted var
        ((Var("X"),), (f(Var("X")),)),                                 # renamed apart
    ]
    for left, right in cases:
        l, m = Literal(True, "p", left), Literal(False, "p", right)
        assert complementary_unifiable(l, m) == renamed_apart_unifiable(l, m), (str(l), str(m))


def _deep(inner, depth=10_000):
    t = inner
    for _ in range(depth):
        t = App("f", (t,))
    return t


def test_deep_terms_compare_hash_print_and_unify_without_recursion():
    y, a = Var("Y"), App("a")
    one, two = _deep(a), _deep(a)
    assert one is not two and one == two and hash(one) == hash(two)
    assert one != _deep(App("b")) and one.ground and not _deep(y).ground
    assert str(one) == "f(" * 10_000 + "a" + ")" * 10_000
    assert term_vars(_deep(y)) == [y]
    assert apply_term(_deep(y), {"Y": a}) == one
    lit = Literal(True, "p", (_deep(y),))
    assert complementary_unifiable(lit, Literal(False, "p", (one,)))
    bottom = Literal(True, "p", (_deep(App("g", (y,))),))  # g(Y) meets b at the bottom
    assert not complementary_unifiable(bottom, Literal(False, "p", (_deep(App("b")),)))
    # Y against f(... f(Y) ...) read on one side: the occurs check fails it
    loop = Literal(True, "q", (y, _deep(y)))
    assert not complementary_unifiable(loop, Literal(False, "q", (Var("Z"), Var("Z"))))


def test_terms_keep_their_repr_immutability_and_pickling():
    t = App("f", (Var("X"), Var("Y", frozenset({"a"})), App("a")))
    assert repr(t) == ("App(functor='f', args=(Var(name='X', allowed=None), "
                       "Var(name='Y', allowed=frozenset({'a'})), App(functor='a', args=())))")
    with pytest.raises(FrozenInstanceError):
        t.functor = "g"
    with pytest.raises(FrozenInstanceError):
        Var("X").name = "Z"
    back = pickle.loads(pickle.dumps(t))
    assert back == t and str(back) == str(t) == "f(X,Y{a},a)"
