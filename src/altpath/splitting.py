"""Clause splitting: replace a clause C[x] by instances that jointly keep
the same ground instances, to break spurious complement unifications and
push relevance distances apart.

A split is described by a plan: the clause, the variable, and a partition
of the clause set's function symbols (constants included) into groups.  A
singleton group contributes the instance C[x -> f(y1..yn)] with fresh
variables; a larger group contributes one clause in which x keeps its name
but is restricted to the group's symbols at the top level.  Unification
honors such restrictions, and expand_restricted rewrites them away for
export formats that cannot carry them.

Splitting can only narrow a literal's set of unification partners, so
relevance distances between the untouched clauses never decrease; the
variable chooser looks for the split that disconnects the most partner
links outright.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass

from altpath.clauses import (
    App,
    Clause,
    ClauseSet,
    Literal,
    Term,
    Var,
    apply_literal,
    complementary_unifiable,
)

_SV = re.compile(r"_sv(\d+)$")


def _fresh_sv(cs: ClauseSet) -> Iterator[int]:
    """Numbers N for fresh ``_svN`` variables, above every one in the set.

    Reads each argument's variables off the term and matches each distinct
    name once."""
    names = {v.name for c in cs.clauses for lit in c.literals for a in lit.args
             if not a.ground for v in a.variables}
    taken = [int(m[1]) for name in names if (m := _SV.match(name))]
    return itertools.count(max(taken, default=-1) + 1)


def _image(cs: ClauseSet, symbol: str, fresh: Iterator[int]) -> App:
    """``symbol`` applied to fresh ``_svN`` variables."""
    return App(symbol, tuple(Var(f"_sv{next(fresh)}") for _ in range(_arity(cs, symbol))))


@dataclass(frozen=True)
class SplitPlan:
    """Which clause to split, on which variable, over which symbol groups.

    groups partition the clause set's function symbols; symbols unknown to
    the set are permitted as extra constants for sets that have none.
    """

    clause_id: int
    var: str
    groups: tuple[frozenset[str], ...]


def _check_plan(cs: ClauseSet, plan: SplitPlan) -> Clause:
    clause = cs.by_id(plan.clause_id)
    if all(v.name != plan.var for v in clause.variables()):
        raise ValueError(
            f"variable {plan.var} does not occur in clause c{plan.clause_id}"
        )
    if not plan.groups or any(not g for g in plan.groups):
        raise ValueError("split groups must be nonempty")
    union: set[str] = set()
    for g in plan.groups:
        overlap = union & g
        if overlap:
            raise ValueError(f"split groups overlap on {sorted(overlap)}")
        union |= g
    missing = set(cs.functions) - union
    if missing:
        raise ValueError(f"split groups do not cover {sorted(missing)}")
    if not any(_arity(cs, f) == 0 for f in union):
        raise ValueError(
            "the clause set has no constant symbol; allow one explicitly or "
            "the split instances have no ground instances"
        )
    return clause


def _arity(cs: ClauseSet, symbol: str) -> int:
    # symbols outside the set's tables are extra constants by construction
    return cs.functions.get(symbol, 0)


def _symbols_for_split(cs: ClauseSet, extra_constant: str | None) -> dict[str, int]:
    syms = dict(cs.functions)
    if extra_constant is not None:
        known = syms.get(extra_constant)
        if known not in (None, 0):
            raise ValueError(
                f"{extra_constant!r} is a function symbol of arity {known}, not a constant"
            )
        syms.setdefault(extra_constant, 0)
    if not any(ar == 0 for ar in syms.values()):
        raise ValueError(
            "the clause set has no constant symbol; pass extra_constant to allow one"
        )
    return syms


def _resolve_var(cs: ClauseSet, clause_id: int, var) -> str:
    if var is None:
        picked = choose_split_variable(cs, clause_id)
        if picked is None:
            raise ValueError(
                f"no variable of clause c{clause_id} breaks any unification when split"
            )
        return picked.name
    name = var.name if isinstance(var, Var) else var
    clause = cs.by_id(clause_id)
    if all(v.name != name for v in clause.variables()):
        raise ValueError(f"variable {name} does not occur in clause c{clause_id}")
    return name


def full_split_plan(
    cs: ClauseSet, clause_id: int, var=None, extra_constant: str | None = None
) -> SplitPlan:
    """One singleton group per function symbol of the set."""
    name = _resolve_var(cs, clause_id, var)
    syms = _symbols_for_split(cs, extra_constant)
    groups = tuple(frozenset([f]) for f in sorted(syms))
    return SplitPlan(clause_id, name, groups)


def binary_split_plan(
    cs: ClauseSet, clause_id: int, var=None, extra_constant: str | None = None
) -> SplitPlan:
    """Two groups balanced by how often the symbols occur in the set."""
    name = _resolve_var(cs, clause_id, var)
    syms = _symbols_for_split(cs, extra_constant)
    if len(syms) < 2:
        raise ValueError("binary split needs at least two function symbols")
    counts = {f: 0 for f in syms}
    todo: list[Term] = [a for c in cs.clauses for lit in c.literals for a in lit.args]
    while todo:
        t = todo.pop()
        if t.__class__ is App:
            counts[t.functor] += 1
            todo.extend(t.args)
    sides: tuple[list[str], list[str]] = ([], [])
    weights = [0, 0]
    for f in sorted(syms, key=lambda f: (-counts[f], f)):
        pick = 0 if weights[0] <= weights[1] else 1
        sides[pick].append(f)
        weights[pick] += counts[f]
    return SplitPlan(clause_id, name, (frozenset(sides[0]), frozenset(sides[1])))


def split_clause(cs: ClauseSet, plan: SplitPlan) -> ClauseSet:
    """Replace the planned clause by one instance per symbol group.

    A group that a pre-existing restriction on the variable rules out
    entirely contributes nothing.  The instances are spliced in as
    ``ClauseSet.splice`` does: fresh ids, the replaced clause's position
    and role.
    """
    clause = _check_plan(cs, plan)
    allowed = next(v for v in clause.variables() if v.name == plan.var).allowed
    fresh = _fresh_sv(cs)
    replacements: list[tuple[Literal, ...]] = []
    for group in plan.groups:
        eff = sorted(group if allowed is None else (group & allowed))
        if not eff:
            continue
        image = _image(cs, eff[0], fresh) if len(eff) == 1 else Var(plan.var, frozenset(eff))
        subst = {plan.var: image}
        replacements.append(tuple(apply_literal(l, subst) for l in clause.literals))
    return cs.splice({plan.clause_id: replacements})


def descendants(before: ClauseSet, after: ClauseSet) -> list[int]:
    """Ids present only in the split result."""
    old = set(before.ids())
    return [cid for cid in after.ids() if cid not in old]


def choose_split_variable(cs: ClauseSet, clause_id: int) -> Var | None:
    """The clause variable whose full split breaks the most unifications.

    A split instance literal counts as a break when it no longer
    complement-unifies with any occurrence in the other clauses, and it
    scores the number of partners the original literal had; the variable
    with the highest positive total wins, ties going to the one occurring
    first.  None for ground clauses and when no instance literal comes out
    partnerless.
    """
    clause = cs.by_id(clause_id)
    variables = clause.variables()
    if not variables or not cs.functions:
        return None
    others = [
        lit for c in cs.clauses if c.id != clause_id for lit in c.literals
    ]
    # only an opposite literal of the same predicate can complement-unify
    partners = [
        [m for m in others
         if m.pred == l.pred and m.positive != l.positive and complementary_unifiable(l, m)]
        for l in clause.literals
    ]
    # probe arguments are fresh for the clause, so none captures its variables
    taken = {v.name for v in variables}
    names = (f"_q{i}" for i in range(len(taken) + max(cs.functions.values())))
    probes = tuple(Var(n) for n in names if n not in taken)
    best: Var | None = None
    best_score = 0
    for v in variables:
        symbols = [
            f for f in sorted(cs.functions) if v.allowed is None or f in v.allowed
        ]
        score = 0
        for f in symbols:
            subst = {v.name: App(f, probes[:cs.functions[f]])}
            for l, candidates in zip(clause.literals, partners):
                if not candidates:
                    continue
                inst = apply_literal(l, subst)
                if not any(complementary_unifiable(inst, m) for m in candidates):
                    score += len(candidates)
        if score > best_score:
            best, best_score = v, score
    return best


def expand_restricted(cs: ClauseSet, made=None) -> ClauseSet:
    """Rewrite every restricted variable into one clause per allowed symbol.

    The result carries no restrictions and has the same ground instances;
    untouched clauses keep their ids, expansions are spliced in as
    ``ClauseSet.splice`` does.  A set without restrictions is returned as is.
    ``made``, when given, lists the ids of the only clauses that can hold a
    restriction, such as those a split of restriction-free input made
    (``descendants``); the others are not read.
    """
    clauses = cs.clauses if made is None else map(cs.by_id, made)
    todo = [(c, vs) for c in clauses
            if (vs := [v for v in c.variables() if v.allowed is not None])]
    if not todo:
        return cs
    fresh = _fresh_sv(cs)

    # an image holds fresh variables only, so the restricted variables left
    # keep their order of first occurrence
    def expand(lits: tuple[Literal, ...], restricted: list[Var]) -> list[tuple[Literal, ...]]:
        if not restricted:
            return [lits]
        v, out = restricted[0], []
        for f in sorted(v.allowed):
            subst = {v.name: _image(cs, f, fresh)}
            out += expand(tuple(apply_literal(l, subst) for l in lits), restricted[1:])
        return out

    return cs.splice({c.id: expand(c.literals, vs) for c, vs in todo})
