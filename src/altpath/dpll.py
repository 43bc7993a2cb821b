"""Propositional satisfiability with relevance-restricted branching.

``dpll`` is a plain splitting solver.  ``dpll_rel`` restricts its branching
atoms to a stepping sequence derived from relevance distances: bucket m holds
the atoms whose closest clause sits at distance m+1 from the support set, and
the solver always splits on an atom from the first bucket that still has
occurrences (the leading literal).  When no stepping atom occurs in the
remaining clauses the branch is done as far as the support set can tell;
``trusted`` mode calls that satisfiable outright, which is sound whenever the
input minus the support clauses is satisfiable on its own, while ``fallback``
mode hands the leftovers to a plain sub-solve and stays unconditionally
correct.

Both solvers, and the fallback sub-solve, run one search engine: a
depth-first splitting search over integer clauses with an explicit stack of
pending branches and a trail of assigned literals, so input size never turns
into Python recursion depth.  Plain solving is the engine with a single
bucket holding every atom.

Restricting the splits this way bounds the work.  On an unsatisfiable input
whose non-support part is satisfiable, the number of search nodes stays
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

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain

from altpath.clauses import ClauseSet, Literal, literal_key
from altpath.graph import (
    INF,
    PROPOSITIONAL_HUB,
    DistanceMap,
    bfs_from_support,
    build_graph,
)

UNIT_POLICIES = ("off", "relevant_only", "all")
MODES = ("fallback", "trusted")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers.

    unit_policy: "off" disables unit propagation, "all" propagates every
    unit clause, "relevant_only" propagates only units over atoms of the
    restricted stepping sequence (plain ``dpll`` has no stepping sequence
    and treats it like "all").
    max_calls: abort with verdict "unknown" past this many search nodes.

    Splits pick the most frequent atom of the first live bucket, the
    smallest index on ties, and try it true first.
    """

    unit_policy: str = "relevant_only"
    max_calls: int | None = None

    def __post_init__(self) -> None:
        if self.unit_policy not in UNIT_POLICIES:
            raise ValueError(
                f"unit_policy must be one of {UNIT_POLICIES}, got {self.unit_policy!r}"
            )


@dataclass
class SolveStats:
    calls: int = 0           # search nodes entered by the primary search
    splits: int = 0
    unit_props: int = 0
    fallback_calls: int = 0  # search nodes of the plain sub-solves under dpll_rel


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


# ---------------------------------------------------------------------------
# Stepping sequences


@dataclass(frozen=True)
class SteppingSequence:
    """Atoms grouped by the distance of their closest clause from the
    support set.  An atom stands for both the literal and its complement
    (their distances agree by definition).  Bucket positions are meaningful
    and survive restriction to the atoms still occurring during search;
    atoms of unreachable clauses appear in no bucket."""

    buckets: tuple[tuple[Literal, ...], ...]

    def atoms(self) -> list[Literal]:
        return [a for b in self.buckets for a in b]

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
# Search engine shared by both solvers.  Atom i of ClauseSet.atoms() becomes
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


def _search(clauses: list[tuple[int, ...]], bucket_of: dict[int, int],
            trusted: bool, cfg: SolverConfig, stats: SolveStats,
            trail: list[int]) -> str:
    """Depth-first splitting search that branches only on atoms of
    ``bucket_of`` (atom index -> stepping bucket).  Each node propagates
    units, then splits on the leading atom: true first, its false branch
    kept on an explicit stack of pending branches.  Literals made true are
    appended to ``trail``, which holds the model on "sat" and is restored
    otherwise.  A node whose clauses hold no bucket atom is accepted when
    ``trusted``, else its leftovers get a plain sub-solve (one bucket of
    all their atoms, which never reaches this case again) with its own
    counters and call budget.  Returns "sat", "unsat" or "unknown"."""
    base = len(trail)
    units_on = cfg.unit_policy != "off"
    all_units = cfg.unit_policy == "all"
    pending: list[tuple[list[tuple[int, ...]], int, int, int]] = []
    prev_size = len(bucket_of) + 1
    node = clauses
    while True:
        stats.calls += 1
        if cfg.max_calls is not None and stats.calls > cfg.max_calls:
            return "unknown"
        ok = None
        while True:
            if () in node:  # an empty clause
                ok = False
                break
            if not node:
                ok = True
                break
            # a unit's atom occurs, so bucket membership is exactly the
            # relevant_only test
            unit = next((cl[0] for cl in node if len(cl) == 1
                         and (all_units or abs(cl[0]) in bucket_of)), None) \
                if units_on else None
            if unit is None:
                break
            trail.append(unit)
            stats.unit_props += 1
            node = _assign(node, unit)
        if ok is None:
            counts = Counter(map(abs, chain.from_iterable(node)))
            live = [v for v in counts if v in bucket_of]
            if live:
                assert len(live) < prev_size, "restricted sequence must shrink per call"
                # first live bucket, then max count, then smallest index
                first = min(map(bucket_of.__getitem__, live))
                lead = [v for v in live if bucket_of[v] == first]
                top = max(map(counts.__getitem__, lead))
                var = min(v for v in lead if counts[v] == top)
                stats.splits += 1
                pending.append((node, -var, len(trail), len(live)))
                prev_size = len(live)
                trail.append(var)
                node = _assign(node, var)
                continue
            if trusted:
                ok = True  # partial model: leftovers never touch stepping atoms
            else:
                sub = SolveStats()
                verdict = _search(node, dict.fromkeys(counts, 0), False,
                                  replace(cfg, unit_policy="all" if units_on else "off"),
                                  sub, trail)
                if verdict == "unknown":
                    return verdict
                stats.fallback_calls += sub.calls
                stats.splits += sub.splits
                stats.unit_props += sub.unit_props
                ok = verdict == "sat"
        if ok:
            return "sat"
        if not pending:
            del trail[base:]
            return "unsat"
        node, lit, mark, prev_size = pending.pop()
        del trail[mark:]
        trail.append(lit)
        node = _assign(node, lit)


def _solve(atoms: list[Literal], clauses: list[tuple[int, ...]],
           bucket_of: dict[int, int], trusted: bool, cfg: SolverConfig,
           counts: dict[str, int] | None = None) -> SolveResult:
    stats = SolveStats()
    trail: list[int] = []
    verdict = _search(clauses, bucket_of, trusted, cfg, stats, trail)
    model = {atoms[abs(l) - 1]: l > 0 for l in trail} if verdict == "sat" else {}
    return SolveResult(verdict, model, stats, counts)


def dpll(cs: ClauseSet, config: SolverConfig | None = None) -> SolveResult:
    """Plain splitting solver, unrestricted branching."""
    atoms, clauses = _encode(cs)
    return _solve(atoms, clauses, dict.fromkeys(range(1, len(atoms) + 1), 0), False,
                  config or SolverConfig())


# ---------------------------------------------------------------------------
# Relevance-restricted solving


def dpll_rel(cs: ClauseSet, support_ids=None, config: SolverConfig | None = None,
             mode: str = "fallback",
             step: SteppingSequence | None = None) -> SolveResult:
    """Splitting solver that branches only on stepping-sequence atoms.

    The stepping sequence is computed from ``support_ids`` unless one is
    passed directly.  In "trusted" mode a branch whose remaining clauses
    contain no stepping atom is accepted as satisfiable without inspection;
    the verdict is then only reliable when the input minus the support
    clauses is satisfiable.  The default "fallback" mode sends such
    leftovers through a plain sub-solve and the verdict is unconditional.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
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
    # atoms that only occur in tautologies have no index: nothing to split
    bucket_of = {index[atom]: b for b, bucket in enumerate(step.buckets)
                 for atom in bucket if atom in index}
    return _solve(atoms, clauses, bucket_of, mode == "trusted", config or SolverConfig(),
                  counts)


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
