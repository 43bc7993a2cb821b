import random

import pytest

from altpath.clauses import ClauseSet, Literal
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


def _random_3sat_from_groups(rng, n_vars, n_clauses, width=3):
    """``random_3sat`` built from literal groups, with the same draws."""
    groups = [[Literal(rng.random() < 0.5, str(v))
               for v in rng.sample(range(1, n_vars + 1), min(width, n_vars))]
              for _ in range(n_clauses)]
    return ClauseSet.from_groups(groups)


@pytest.mark.parametrize("seed", range(10))
def test_random_3sat_is_the_set_its_literal_groups_make(seed):
    # born from its integers as a DIMACS set is, it draws as the literal
    # groups did and equals their set in rows, clauses and tables in order
    shape = random.Random(seed).choice([(0, 3), (2, 5), (5, 0)] + [(20, 50), (60, 200)] * 3)
    born, grouped = random.Random(seed), random.Random(seed)
    got = random_3sat(born, *shape, width=seed % 4 + 1)
    want = _random_3sat_from_groups(grouped, *shape, width=seed % 4 + 1)
    assert born.getstate() == grouped.getstate()
    assert got.rows == want.rows  # read before any clause object exists
    assert got == want
    for table in ("predicates", "functions", "roles", "names"):
        assert list(getattr(got, table).items()) == list(getattr(want, table).items())
