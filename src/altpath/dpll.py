"""Propositional satisfiability with relevance-restricted branching.

``dpll`` is a plain splitting solver.  ``dpll_rel`` restricts its branching
atoms to a stepping sequence derived from relevance distances: bucket m holds
the atoms whose closest clause sits at distance m+1 from the support set, and
the solver always splits on an atom from the first bucket that still has
occurrences (the leading literal).  When no stepping atom occurs in the
remaining clauses the branch is done as far as the support set can tell;
``trusted`` mode calls that satisfiable outright, which is sound whenever the
input minus the support clauses is satisfiable on its own, while ``fallback``
mode hands the leftovers to the plain solver and stays unconditionally
correct.

Restricting the splits this way bounds the work.  On an unsatisfiable input
whose non-support part is satisfiable, the number of recursive calls stays
below 2**k, where k counts the distinct atoms of the smallest unsatisfiable
relevance neighborhood of the support set, however many atoms the whole set
has.  The bound needs unit propagation over stepping atoms (the default
policy): once a single stepping atom remains, the neighborhood clauses have
shrunk to units over it, and propagation closes the branch without a split.

Both solvers delete tautological clauses up front.  That is satisfiability
preserving and keeps shrunken clauses two-valued, which the call bound above
relies on; distance computations in the graph module are not affected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from altpath.clauses import Clause, ClauseSet, Literal, literal_key
from altpath.graph import (
    INF,
    PROPOSITIONAL_HUB,
    DistanceMap,
    bfs_from_support,
    build_graph,
)

UNIT_POLICIES = ("off", "relevant_only", "all")
HEURISTICS = ("max_occurrence", "atom_order")
MODES = ("fallback", "trusted")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers.

    unit_policy: "off" disables unit propagation, "all" propagates every
    unit clause, "relevant_only" propagates only units over atoms of the
    restricted stepping sequence (plain ``dpll`` has no stepping sequence
    and treats it like "all").
    heuristic: how to pick among the atoms of the first nonempty bucket.
    positive_first: branch order within a split.
    max_calls: abort with verdict "unknown" past this many recursive calls.
    """

    unit_policy: str = "relevant_only"
    heuristic: str = "max_occurrence"
    positive_first: bool = True
    max_calls: int | None = None

    def __post_init__(self) -> None:
        if self.unit_policy not in UNIT_POLICIES:
            raise ValueError(
                f"unit_policy must be one of {UNIT_POLICIES}, got {self.unit_policy!r}"
            )
        if self.heuristic not in HEURISTICS:
            raise ValueError(
                f"heuristic must be one of {HEURISTICS}, got {self.heuristic!r}"
            )


@dataclass
class SolveStats:
    calls: int = 0           # recursive calls of the primary engine
    splits: int = 0
    unit_props: int = 0
    fallback_calls: int = 0  # calls spent in plain sub-solves under dpll_rel


@dataclass
class SolveResult:
    verdict: str  # "sat" | "unsat" | "unknown"
    model: dict[Literal, bool] = field(default_factory=dict)
    stats: SolveStats = field(default_factory=SolveStats)
    # occurrence / signed-literal / atom counts of the reachable clauses,
    # filled in by dpll_rel so call-bound readings can be compared
    neighborhood: dict[str, int] | None = None

    def satisfies(self, cs: ClauseSet) -> bool:
        """True when every clause has a literal made true by the model.
        Tautologies count as satisfied; a partial model need not touch them."""
        return all(
            c.is_tautology()
            or any(self.model.get(lit.atom) == lit.positive for lit in c.literals)
            for c in cs.clauses
        )


def count_calls(result: SolveResult) -> int:
    """Recursive invocations of the primary engine during the run."""
    return result.stats.calls


class _CallLimit(Exception):
    pass


# ---------------------------------------------------------------------------
# Clause-level assignment, ids kept


def cofactor(cs: ClauseSet, assigned: Literal) -> ClauseSet:
    """The clause set after making one literal true: clauses containing it
    drop out, its complement is deleted elsewhere.  Ids are preserved; a
    clause reduced to nothing stays as the empty clause."""
    complement = assigned.negated()
    clauses: list[Clause] = []
    for c in cs.clauses:
        if assigned in c.literals:
            continue
        if complement in c.literals:
            clauses.append(Clause(c.id, tuple(l for l in c.literals if l != complement)))
        else:
            clauses.append(c)
    keep = {c.id for c in clauses}
    return ClauseSet(
        clauses,
        {i: r for i, r in cs.roles.items() if i in keep},
        {i: n for i, n in cs.names.items() if i in keep},
        dict(cs.predicates),
        dict(cs.functions),
    )


# ---------------------------------------------------------------------------
# Stepping sequences


@dataclass(frozen=True)
class SteppingSequence:
    """Atoms grouped by the distance of their closest clause from the
    support set.  An atom stands for both the literal and its complement
    (their distances agree by definition).  Bucket positions are meaningful
    and survive restriction; atoms of unreachable clauses appear in no
    bucket."""

    buckets: tuple[tuple[Literal, ...], ...]

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.buckets)

    def atoms(self) -> list[Literal]:
        return [a for b in self.buckets for a in b]

    def first_nonempty(self) -> int | None:
        for i, b in enumerate(self.buckets):
            if b:
                return i
        return None

    def restrict(self, remaining: ClauseSet) -> "SteppingSequence":
        """Intersect every bucket with the atoms occurring in the given
        clause set, keeping bucket positions."""
        keep = set(remaining.atoms())
        return SteppingSequence(
            tuple(tuple(a for a in b if a in keep) for b in self.buckets)
        )

    def truncate(self, m: int) -> "SteppingSequence":
        return SteppingSequence(self.buckets[:m])

    def __str__(self) -> str:
        rows = []
        for i, b in enumerate(self.buckets):
            rows.append(f"step {i + 1}: " + (", ".join(str(a) for a in b) if b else "-"))
        return "\n".join(rows) if rows else "(empty stepping sequence)"


def stepping_sequence(cs: ClauseSet, support_ids,
                      dmap: DistanceMap | None = None) -> SteppingSequence:
    """Bucket the atoms of all support-reachable clauses by the distance of
    the closest clause containing the atom in either polarity."""
    if not cs.is_ground():
        raise ValueError("stepping sequences are defined for variable-free sets")
    if dmap is None:
        dmap = bfs_from_support(build_graph(cs, PROPOSITIONAL_HUB), support_ids)
    best: dict[Literal, float] = {}
    for c in cs.clauses:
        d = dmap.clause_distance[c.id]
        if d == INF:
            continue
        for lit in c.literals:
            atom = lit.atom
            if atom not in best or d < best[atom]:
                best[atom] = d
    if not best:
        return SteppingSequence(())
    deepest = int(max(best.values()))
    buckets: list[list[Literal]] = [[] for _ in range(deepest)]
    for atom, d in best.items():
        buckets[int(d) - 1].append(atom)
    return SteppingSequence(tuple(tuple(sorted(b, key=literal_key)) for b in buckets))


def leading_literal(stepr: SteppingSequence, remaining: ClauseSet,
                    heuristic: str = "max_occurrence") -> Literal:
    """An atom from the first nonempty bucket; the heuristic only
    arbitrates inside that bucket.  Callers choose the polarity."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"heuristic must be one of {HEURISTICS}, got {heuristic!r}")
    first = stepr.first_nonempty()
    if first is None:
        raise ValueError("empty stepping sequence has no leading literal")
    bucket = stepr.buckets[first]
    if heuristic == "atom_order":
        return bucket[0]
    counts: dict[Literal, int] = {a: 0 for a in bucket}
    for c in remaining.clauses:
        for lit in c.literals:
            if lit.atom in counts:
                counts[lit.atom] += 1
    return min(bucket, key=lambda a: (-counts[a], literal_key(a)))


# ---------------------------------------------------------------------------
# Support radius and neighborhood


def support_radius(cs: ClauseSet, support_ids,
                   config: SolverConfig | None = None) -> float:
    """The smallest n for which the distance-n clauses around the support
    set are already unsatisfiable; INF when no level is (then everything
    reachable from the support set is satisfiable)."""
    dmap = bfs_from_support(build_graph(cs, PROPOSITIONAL_HUB), support_ids)
    return _radius(cs, dmap, config)


def _radius(cs: ClauseSet, dmap: DistanceMap, config: SolverConfig | None) -> float:
    finite = sorted({int(d) for d in dmap.clause_distance.values() if d < INF})
    cfg = config or SolverConfig(unit_policy="all")
    for n in finite:  # levels between two finite distances add no clauses
        sub = cs.subset(dmap.relevant_ids(n))
        if dpll(sub, cfg).verdict == "unsat":
            return n
    return INF


def support_neighborhood(cs: ClauseSet, support_ids,
                         config: SolverConfig | None = None) -> ClauseSet:
    """Clauses within the support radius; every reachable clause when the
    radius is infinite."""
    dmap = bfs_from_support(build_graph(cs, PROPOSITIONAL_HUB), support_ids)
    radius = _radius(cs, dmap, config)
    cap = dmap.max_finite_distance() if radius == INF else radius
    if cap == INF:  # support set empty of reachable clauses entirely
        return cs.subset([])
    return cs.subset(dmap.relevant_ids(int(cap)))


def neighborhood_counts(neighborhood: ClauseSet) -> dict[str, int]:
    """The three sizes a clause collection can be measured by: literal
    occurrences, distinct signed literals, distinct atoms."""
    occurrences = 0
    signed: set[Literal] = set()
    for c in neighborhood.clauses:
        occurrences += len(c.literals)
        signed.update(c.literals)
    return {
        "occurrences": occurrences,
        "literals": len(signed),
        "atoms": len(neighborhood.atoms()),
    }


# ---------------------------------------------------------------------------
# Integer core shared by both solvers.  Atom i of ClauseSet.atoms() becomes
# index i+1; clauses become tuples of signed indices; tautologies are
# deleted.


def _encode(cs: ClauseSet) -> tuple[list[Literal], list[tuple[int, ...]]]:
    if not cs.is_ground():
        raise ValueError("satisfiability solving requires a variable-free clause set")
    atoms = cs.atoms()
    index = {atom: i + 1 for i, atom in enumerate(atoms)}
    clauses = [
        tuple((1 if lit.positive else -1) * index[lit.atom] for lit in c.literals)
        for c in cs.clauses
        if not c.is_tautology()
    ]
    return atoms, clauses


def _assign(clauses: list[tuple[int, ...]], lit: int) -> list[tuple[int, ...]]:
    out = []
    for cl in clauses:
        if lit in cl:
            continue
        if -lit in cl:
            out.append(tuple(x for x in cl if x != -lit))
        else:
            out.append(cl)
    return out


def _pick(clauses, cfg: SolverConfig, candidates=None) -> int:
    if cfg.heuristic == "atom_order":
        return min(candidates) if candidates is not None else \
            min(abs(l) for cl in clauses for l in cl)
    counts: dict[int, int] = {}
    for cl in clauses:
        for l in cl:
            v = abs(l)
            counts[v] = counts.get(v, 0) + 1
    pool = counts if candidates is None else {v: counts.get(v, 0) for v in candidates}
    # max count, then smallest index, keeps runs reproducible
    return min(pool, key=lambda v: (-pool[v], v))


def _bump(stats: SolveStats, cfg: SolverConfig) -> None:
    stats.calls += 1
    if cfg.max_calls is not None and stats.calls > cfg.max_calls:
        raise _CallLimit


def _dpll_ints(clauses, assignment: dict[int, bool], cfg: SolverConfig,
               stats: SolveStats) -> bool:
    _bump(stats, cfg)
    made: list[int] = []

    def undo() -> None:
        for v in made:
            del assignment[v]

    while True:
        if any(not cl for cl in clauses):
            undo()
            return False
        if not clauses:
            return True
        unit = next((cl[0] for cl in clauses if len(cl) == 1), None) \
            if cfg.unit_policy != "off" else None
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
        made.append(abs(unit))
        stats.unit_props += 1
        clauses = _assign(clauses, unit)

    var = _pick(clauses, cfg)
    stats.splits += 1
    for positive in ((True, False) if cfg.positive_first else (False, True)):
        lit = var if positive else -var
        assignment[var] = positive
        if _dpll_ints(_assign(clauses, lit), assignment, cfg, stats):
            return True
        del assignment[var]
    undo()
    return False


def dpll(cs: ClauseSet, config: SolverConfig | None = None) -> SolveResult:
    """Plain splitting solver, unrestricted branching."""
    cfg = config or SolverConfig()
    atoms, clauses = _encode(cs)
    stats = SolveStats()
    assignment: dict[int, bool] = {}
    try:
        sat = _dpll_ints(clauses, assignment, cfg, stats)
    except _CallLimit:
        return SolveResult("unknown", {}, stats)
    model = {atoms[v - 1]: val for v, val in assignment.items()} if sat else {}
    return SolveResult("sat" if sat else "unsat", model, stats)


# ---------------------------------------------------------------------------
# Relevance-restricted solving


def _rel_rec(clauses, assignment: dict[int, bool], step_order: list[int],
             bucket_of: dict[int, int], trusted: bool, cfg: SolverConfig,
             stats: SolveStats, prev_size: int) -> bool:
    _bump(stats, cfg)
    made: list[int] = []
    seen_size: int | None = None

    def undo() -> None:
        for v in made:
            del assignment[v]

    while True:
        if any(not cl for cl in clauses):
            undo()
            return False
        if not clauses:
            return True
        occurring = {abs(l) for cl in clauses for l in cl}
        stepr = [v for v in step_order if v in occurring]
        if seen_size is None:
            seen_size = len(stepr)
            assert seen_size < prev_size, "restricted sequence must shrink per call"
        unit = None
        if cfg.unit_policy == "all":
            unit = next((cl[0] for cl in clauses if len(cl) == 1), None)
        elif cfg.unit_policy == "relevant_only":
            live = set(stepr)
            unit = next(
                (cl[0] for cl in clauses if len(cl) == 1 and abs(cl[0]) in live),
                None,
            )
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
        made.append(abs(unit))
        stats.unit_props += 1
        clauses = _assign(clauses, unit)

    if not stepr:
        if trusted:
            return True  # partial model: leftovers never touch stepping atoms
        sub = SolveStats()
        sub_cfg = SolverConfig("all" if cfg.unit_policy != "off" else "off",
                               cfg.heuristic, cfg.positive_first, cfg.max_calls)
        ok = _dpll_ints(clauses, assignment, sub_cfg, sub)
        stats.fallback_calls += sub.calls
        stats.splits += sub.splits
        stats.unit_props += sub.unit_props
        if not ok:
            undo()
        return ok

    first = bucket_of[stepr[0]]
    candidates = [v for v in stepr if bucket_of[v] == first]
    var = _pick(clauses, cfg, candidates)
    stats.splits += 1
    for positive in ((True, False) if cfg.positive_first else (False, True)):
        lit = var if positive else -var
        assignment[var] = positive
        if _rel_rec(_assign(clauses, lit), assignment, step_order, bucket_of,
                    trusted, cfg, stats, len(stepr)):
            return True
        del assignment[var]
    undo()
    return False


def dpll_rel(cs: ClauseSet, support_ids=None, config: SolverConfig | None = None,
             mode: str = "fallback",
             step: SteppingSequence | None = None) -> SolveResult:
    """Splitting solver that branches only on stepping-sequence atoms.

    The stepping sequence is computed from ``support_ids`` unless one is
    passed directly.  In "trusted" mode a branch whose remaining clauses
    contain no stepping atom is accepted as satisfiable without inspection;
    the verdict is then only reliable when the input minus the support
    clauses is satisfiable.  The default "fallback" mode sends such
    leftovers through the plain solver and the verdict is unconditional.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    cfg = config or SolverConfig()
    if step is None:
        if support_ids is None:
            raise ValueError("need either support_ids or a stepping sequence")
        support = frozenset(support_ids)
        if not support:
            raise ValueError("dpll_rel needs a nonempty support set")
        dmap = bfs_from_support(build_graph(cs, PROPOSITIONAL_HUB), support)
        step = stepping_sequence(cs, support, dmap)
        reachable = cs.subset([cid for cid, d in dmap.clause_distance.items() if d < INF])
        counts = neighborhood_counts(reachable)
    else:
        counts = None
    atoms, clauses = _encode(cs)
    index = {atom: i + 1 for i, atom in enumerate(atoms)}
    step_order: list[int] = []
    bucket_of: dict[int, int] = {}
    for b, bucket in enumerate(step.buckets):
        for atom in bucket:
            v = index.get(atom)
            if v is None:  # atom only occurs in tautologies, nothing to split
                continue
            step_order.append(v)
            bucket_of[v] = b
    stats = SolveStats()
    assignment: dict[int, bool] = {}
    try:
        sat = _rel_rec(clauses, assignment, step_order, bucket_of,
                       mode == "trusted", cfg, stats, len(step_order) + 1)
    except _CallLimit:
        return SolveResult("unknown", {}, stats, counts)
    model = {atoms[v - 1]: val for v, val in assignment.items()} if sat else {}
    return SolveResult("sat" if sat else "unsat", model, stats, counts)


def partial_model_covers(cs: ClauseSet, result: SolveResult,
                         step: SteppingSequence) -> bool:
    """Contract of a trusted satisfiable verdict: each clause is either made
    true by the (possibly partial) model, or what remains of it unassigned
    lies entirely outside the stepping sequence.  A stepping atom may appear
    in an unsatisfied clause only with an assignment that falsified it there;
    that can happen when the clause touches the reachable part through a
    unit clause, which an alternating path cannot be continued through."""
    stepping = set(step.atoms())
    for c in cs.clauses:
        if c.is_tautology():
            continue
        if any(result.model.get(lit.atom) == lit.positive for lit in c.literals):
            continue
        remnant = [lit for lit in c.literals if lit.atom not in result.model]
        if not remnant or any(lit.atom in stepping for lit in remnant):
            return False
    return True
