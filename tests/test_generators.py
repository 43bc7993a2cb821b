import random

from altpath.clauses import Literal
from altpath.generators import (
    bounded_occurrence,
    fan_fixture,
    horn_tree,
    random_3sat,
    random_first_order,
    random_ground,
)

from oracles import is_tautology


def test_random_3sat_shape():
    cs = random_3sat(random.Random(7), n_vars=20, n_clauses=50)
    assert len(cs.clauses) == 50
    for c in cs.clauses:
        assert len(c) == 3
        assert len({lit.pred for lit in c}) == 3  # distinct atoms inside a clause


def test_random_3sat_deterministic():
    a = random_3sat(random.Random(11), 10, 30)
    b = random_3sat(random.Random(11), 10, 30)
    assert str(a) == str(b)


def test_random_ground_no_tautologies():
    cs = random_ground(random.Random(3), n_atoms=6, n_clauses=80, allow_tautologies=False)
    assert not any(map(is_tautology, cs.clauses))
    assert all(len(c) >= 1 for c in cs.clauses)


def test_random_first_order_has_variables():
    cs = random_first_order(random.Random(5), n_clauses=40)
    assert any(not c.is_ground() for c in cs.clauses)


def test_horn_tree_depth_two():
    cs = horn_tree(depth=2, branching=3)
    # goal unit, one rule for the root, three rules one level down, nine leaf units
    assert len(cs.clauses) == 1 + 1 + 3 + 9
    goal = cs.by_id(1)
    assert len(goal) == 1 and not goal.literals[0].positive
    leaves = [c for c in cs.clauses if len(c) == 1 and c.literals[0].positive]
    assert len(leaves) == 9


def test_fan_fixture_counts():
    cs = fan_fixture(4, 6)
    pos = [c for c in cs.clauses if c.literals[0].positive]
    neg = [c for c in cs.clauses if not c.literals[0].positive]
    assert len(pos) == 4 and len(neg) == 6
    assert all(len(c) == 1 for c in cs.clauses)


def test_bounded_occurrence_budgets():
    b, k = 3, 4
    cs = bounded_occurrence(random.Random(9), b=b, k=k, n_preds=12, n_clauses=40)
    counts: dict[tuple[str, bool], int] = {}
    for c in cs.clauses:
        assert 1 <= len(c) <= k
        preds = [lit.pred for lit in c]
        assert len(set(preds)) == len(preds)  # a predicate at most once per clause
        for lit in c:
            counts[(lit.pred, lit.positive)] = counts.get((lit.pred, lit.positive), 0) + 1
    assert all(v <= b for v in counts.values())


def test_bounded_occurrence_first_order_mode():
    cs = bounded_occurrence(random.Random(2), b=2, k=3, n_preds=8, n_clauses=20,
                            first_order=True)
    assert any(not c.is_ground() for c in cs.clauses)
    for c in cs.clauses:
        for lit in c:
            assert isinstance(lit, Literal) and lit.args
