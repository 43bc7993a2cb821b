"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exhaustive enumeration and direct
definitions, no shared data structures with the code under test beyond the
basic term/literal types.
"""

from __future__ import annotations

import itertools
from collections import deque

from altpath.clauses import (
    App,
    ClauseSet,
    Literal,
    Substitution,
    Term,
    Var,
    apply_term,
    term_vars,
    unify_seq,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# Truth-table satisfiability


def truth_table_sat(clauses) -> bool:
    """Satisfiability of ground clauses by exhausting all assignments."""
    lit_sets = [frozenset((lit.positive, lit.pred, lit.args) for lit in c) for c in clauses]
    atoms = sorted({(p, a) for ls in lit_sets for (_, p, a) in ls})
    for bits in itertools.product([False, True], repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if all(any(val[(p, a)] == sign for (sign, p, a) in ls) for ls in lit_sets):
            return True
    return False


def clause_set_sat(cs: ClauseSet) -> bool:
    return truth_table_sat(cs.clauses)


def minimal_unsat_subsets(cs: ClauseSet) -> list[list[int]]:
    """All minimal unsatisfiable sub-collections, as sorted id lists."""
    ids = cs.ids()
    unsat: list[frozenset[int]] = []
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            sub = frozenset(combo)
            if any(prev <= sub for prev in unsat):
                continue
            if not truth_table_sat([cs.by_id(i) for i in combo]):
                unsat.append(sub)
    return [sorted(s) for s in unsat]


# ---------------------------------------------------------------------------
# Complementary unifiability by renaming apart


def _rename_term(t: Term, suffix: str) -> Term:
    if isinstance(t, Var):
        return Var(t.name + suffix, t.allowed)
    return App(t.functor, tuple(_rename_term(a, suffix) for a in t.args))


def renamed_apart_unifiable(l1: Literal, l2: Literal) -> bool:
    """True iff the literals have opposite signs and their atoms unify after
    copying each with its variables renamed apart."""
    if l1.positive == l2.positive:
        return False
    if l1.pred != l2.pred or len(l1.args) != len(l2.args):
        return False
    r1 = tuple(_rename_term(a, "#1") for a in l1.args)
    r2 = tuple(_rename_term(a, "#2") for a in l2.args)
    return unify_seq(r1, r2) is not None


# ---------------------------------------------------------------------------
# Shortest alternating paths, from the definition

# A path is a sequence of clauses where consecutive clauses are linked by a
# complementary-unifiable literal pair and the literal used to leave a clause
# differs from the literal used to enter it.  Whether a partial path can be
# extended depends only on its last clause and entry literal, so a breadth
# first search over (clause, entry literal) states finds shortest lengths.


def brute_distances(cs: ClauseSet, support_ids) -> dict[int, float]:
    support = set(support_ids)
    occs = [(c.id, lit) for c in cs.clauses for lit in c.literals]
    dist: dict[tuple[int, Literal | None], int] = {}
    queue: deque[tuple[int, Literal | None]] = deque()
    for cid in cs.ids():
        if cid in support:
            dist[(cid, None)] = 1
            queue.append((cid, None))
    best: dict[int, float] = {
        c.id: (1 if c.id in support else INF) for c in cs.clauses
    }
    while queue:
        cid, entry = queue.popleft()
        length = dist[(cid, entry)]
        for exit_lit in cs.by_id(cid).literals:
            if entry is not None and exit_lit == entry:
                continue
            for did, target in occs:
                if not renamed_apart_unifiable(exit_lit, target):
                    continue
                state = (did, target)
                if state not in dist:
                    dist[state] = length + 1
                    best[did] = min(best[did], length + 1)
                    queue.append(state)
    return best


def enumerate_path_distances(cs: ClauseSet, support_ids, max_len: int) -> dict[int, float]:
    """Shortest alternating-path lengths by enumerating every path.

    Exponential; only usable on tiny sets.  Exists to sanity-check
    brute_distances itself.
    """
    support = set(support_ids)
    best: dict[int, float] = {
        c.id: (1 if c.id in support else INF) for c in cs.clauses
    }
    occs = [(c.id, lit) for c in cs.clauses for lit in c.literals]

    def extend(cid: int, entry: Literal | None, length: int) -> None:
        if length >= max_len:
            return
        for exit_lit in cs.by_id(cid).literals:
            if entry is not None and exit_lit == entry:
                continue
            for did, target in occs:
                if renamed_apart_unifiable(exit_lit, target):
                    if length + 1 < best[did]:
                        best[did] = length + 1
                    extend(did, target, length + 1)

    for cid in support:
        extend(cid, None, 1)
    return best


# ---------------------------------------------------------------------------
# Substitution enumeration over a small Herbrand universe


def herbrand_terms(functions: dict[str, int], depth: int) -> list[Term]:
    """All ground terms over the given symbols up to the given depth."""
    terms: list[Term] = []
    for d in range(1, depth + 1):
        new: list[Term] = []
        for f, ar in sorted(functions.items()):
            if ar == 0:
                if d == 1:
                    new.append(App(f))
            else:
                for combo in itertools.product(terms, repeat=ar):
                    if 1 + max(term_depth_of(a) for a in combo) == d:
                        new.append(App(f, combo))
        terms = terms + new
    return terms


def term_depth_of(t: Term) -> int:
    if isinstance(t, Var) or not t.args:
        return 1
    return 1 + max(term_depth_of(a) for a in t.args)


def enumerate_unifiers(t1: Term, t2: Term, universe: list[Term]) -> list[Substitution]:
    """All ground substitutions over the universe that make t1 and t2 equal."""
    names = [v.name for v in term_vars(t1, term_vars(t2, []))]
    out = []
    for combo in itertools.product(universe, repeat=len(names)):
        sub = dict(zip(names, combo))
        if apply_term(t1, sub) == apply_term(t2, sub):
            out.append(sub)
    return out


def match_term(pattern: Term, target: Term, bind: Substitution | None = None) -> Substitution | None:
    """One-way matching: a substitution s with pattern*s == target, or None."""
    if bind is None:
        bind = {}
    if isinstance(pattern, Var):
        seen = bind.get(pattern.name)
        if seen is None:
            bind[pattern.name] = target
            return bind
        return bind if seen == target else None
    if isinstance(target, Var):
        return None
    if pattern.functor != target.functor or len(pattern.args) != len(target.args):
        return None
    for a, b in zip(pattern.args, target.args):
        bind = match_term(a, b, bind)
        if bind is None:
            return None
    return bind


def factors_through(sigma: Substitution, theta: Substitution, names) -> bool:
    """True iff theta = sigma composed with some lam (checked by matching)."""
    bind: Substitution | None = {}
    for name in names:
        image = sigma.get(name, Var(name))
        want = theta.get(name, Var(name))
        bind = match_term(image, want, bind)
        if bind is None:
            return False
    return True
