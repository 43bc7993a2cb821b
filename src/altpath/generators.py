"""Seeded instance generators: random CNF, goal-tree Horn sets, and
occurrence-bounded sets for neighborhood-size experiments."""

from __future__ import annotations

import random

from altpath.clauses import App, ClauseSet, Literal, Term, Var, _dimacs_set


def random_3sat(rng: random.Random, n_vars: int, n_clauses: int, width: int = 3) -> ClauseSet:
    """Uniform random k-SAT with integer-named atoms and no repeated atoms
    inside a clause, born from its integers as a DIMACS set is."""
    ints: list[int] = []
    for _ in range(n_clauses):
        for v in rng.sample(range(1, n_vars + 1), min(width, n_vars)):
            ints.append(v if rng.random() < 0.5 else -v)
        ints.append(0)
    return _dimacs_set(ints)


def random_ground(
    rng: random.Random,
    n_atoms: int,
    n_clauses: int,
    max_width: int = 3,
    allow_tautologies: bool = True,
) -> ClauseSet:
    """Random propositional clauses of mixed width over a small atom pool."""
    groups = []
    for _ in range(n_clauses):
        width = rng.randint(1, max_width)
        lits: list[Literal] = []
        for _ in range(width):
            cand = Literal(rng.random() < 0.5, str(rng.randint(1, n_atoms)))
            if not allow_tautologies and cand.negated() in lits:
                continue
            lits.append(cand)
        if not lits:
            lits = [Literal(True, str(rng.randint(1, n_atoms)))]
        groups.append(lits)
    return ClauseSet.from_groups(groups)


_FO_VARS = ("X", "Y", "Z")


def _random_term(rng: random.Random, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.45:
        choice = rng.random()
        if choice < 0.5:
            return Var(rng.choice(_FO_VARS))
        return App(rng.choice(("a", "b")))
    if rng.random() < 0.7:
        return App("f", (_random_term(rng, depth - 1),))
    return App("g", (_random_term(rng, depth - 1), _random_term(rng, depth - 1)))


def random_first_order(
    rng: random.Random,
    n_clauses: int,
    max_width: int = 3,
    max_depth: int = 2,
) -> ClauseSet:
    """Random first-order clauses over a fixed small vocabulary.

    Predicates p/1, q/1, r/2; functions f/1, g/2; constants a, b; up to three
    variables per clause.
    """
    groups = []
    for _ in range(n_clauses):
        width = rng.randint(1, max_width)
        lits = []
        for _ in range(width):
            pred = rng.choice(("p", "q", "r"))
            arity = 2 if pred == "r" else 1
            args = tuple(_random_term(rng, rng.randint(0, max_depth)) for _ in range(arity))
            lits.append(Literal(rng.random() < 0.5, pred, args))
        groups.append(lits)
    return ClauseSet.from_groups(groups)


def horn_tree(depth: int, branching: int = 2) -> ClauseSet:
    """A goal-directed Horn set shaped like a complete tree.

    Node 0 is the goal atom g0.  The set contains the goal clause ~g0, one
    rule per internal node deriving it from its children, and one unit clause
    per leaf.  The whole set is unsatisfiable and the goal clause is the
    natural support set (its id is 1).
    """
    if depth < 0 or branching < 1:
        raise ValueError("depth must be >= 0 and branching >= 1")
    groups: list[list[Literal]] = [[Literal(False, "g0")]]
    n_internal = sum(branching**d for d in range(depth))
    total = sum(branching**d for d in range(depth + 1))
    for node in range(total):
        atom = Literal(True, f"g{node}")
        if node < n_internal:
            children = [branching * node + 1 + i for i in range(branching)]
            rule = [atom] + [Literal(False, f"g{c}") for c in children]
            groups.append(rule)
        else:
            groups.append([atom])
    return ClauseSet.from_groups(groups)


def fan_fixture(n_pos: int, n_neg: int) -> ClauseSet:
    """n_pos unit clauses p and n_neg unit clauses ~p over a single atom."""
    groups = [[Literal(True, "1")] for _ in range(n_pos)]
    groups += [[Literal(False, "1")] for _ in range(n_neg)]
    return ClauseSet.from_groups(groups)


def bounded_occurrence(
    rng: random.Random,
    b: int,
    k: int,
    n_preds: int,
    n_clauses: int,
    first_order: bool = False,
) -> ClauseSet:
    """Random clauses where every clause has at most k literals and every
    predicate occurs with a given sign in at most b clauses."""
    budget: dict[tuple[str, bool], int] = {}
    for i in range(1, n_preds + 1):
        for sign in (True, False):
            budget[(str(i), sign)] = b
    groups = []
    for _ in range(n_clauses):
        width = rng.randint(1, k)
        available = [key for key, left in budget.items() if left > 0]
        if not available:
            break
        rng.shuffle(available)
        picked: list[tuple[str, bool]] = []
        used_preds: set[str] = set()
        for key in available:
            if len(picked) == width:
                break
            pred, _ = key
            if pred in used_preds:
                continue
            picked.append(key)
            used_preds.add(pred)
        if not picked:
            break
        lits = []
        for pred, sign in picked:
            budget[(pred, sign)] -= 1
            if first_order:
                args: tuple[Term, ...] = (_random_term(rng, 1),)
                lits.append(Literal(sign, "p" + pred, args))
            else:
                lits.append(Literal(sign, pred))
        groups.append(lits)
    return ClauseSet.from_groups(groups)
