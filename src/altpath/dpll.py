"""Propositional satisfiability with relevance-restricted branching.

``dpll`` is a plain splitting solver.  ``dpll_rel`` restricts its branching
atoms to a stepping sequence derived from relevance distances: bucket m holds
the atoms whose closest clause sits at distance m+1 from the support set, and
the solver always splits on an atom from the first bucket that still has
occurrences (the leading literal).  When no stepping atom occurs in the
remaining clauses the branch is done as far as the support set can tell;
``trusted`` mode calls that satisfiable outright, which is sound whenever the
input minus the support clauses is satisfiable on its own, while ``fallback``
mode goes on below that node in one last bucket holding every other atom
and stays unconditionally correct.

Both solvers run one search engine: a depth-first splitting search over
integer clauses with one explicit stack of pending branches, so input size
never turns into Python recursion depth.  Plain solving is the engine with
a single bucket holding every atom.  One ``max_calls`` budget caps every
search node, those below a fallback node included.  The engine builds one
mutable state per solve and never copies clauses: an occurrence list per
signed literal; per clause the literal that satisfied it and its count of
unassigned literals; per atom its count of occurrences in unsatisfied
clauses; and a trail of assigned literals, undone one by one on backtrack
(occurrence-driven propagation as in Chaff, trail-based undo as in
MiniSat).  A node thus costs what its assignments touch.  Splits are read
from per-bucket heaps of atoms by count, units from a heap of clause ids,
so the choices are exactly those of a full rescan: first live bucket, most
frequent atom, smallest index; lowest unit clause first.

Restricting the splits this way bounds the work.  On an unsatisfiable input
whose non-support part is satisfiable, the number of search nodes stays
below 2**k, where k counts the distinct atoms of the smallest unsatisfiable
relevance neighborhood of the support set, however many atoms the whole set
has.  The bound needs unit propagation over stepping atoms: once a single
stepping atom remains, the neighborhood clauses have shrunk to units over
it, and propagation closes the branch without a split.
The ``k`` that ``dpll_rel`` reports, and ``solve --count-calls`` prints,
counts the atoms of every support-reachable clause instead: never fewer, so
its 2**k is a looser but still valid bound.

Both solvers read the set once, as the signed atom numbers of
``ClauseSet.rows``, which number the atoms in canonical order, so no atom
is named to be ordered.  The search runs on these integers alone, and a
``Literal`` is made, through ``ClauseSet.literal``, only for the atoms of
a model that is returned.
Variables are refused before that, by ``ClauseSet.require_ground``.  The
solvers delete tautological clauses up front.  That is
satisfiability preserving and keeps shrunken clauses two-valued, which the
call bound above relies on; distance computations in the graph module are
not affected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from altpath.clauses import ClauseSet, Literal
from altpath.graph import (
    INF,
    DistanceMap,
    RelevanceGraph,
    bfs_from_support,
    build_graph,
)

MODES = ("fallback", "trusted")

# the tasks named when a solver or the radius meets variables, the first
# with the way out of it
_SOLVING = "satisfiability solving (use deepen with an external prover for first-order input)"
_RADIUS = "the support radius"


@dataclass
class SolveStats:
    calls: int = 0           # search nodes entered outside the fallback region
    splits: int = 0
    unit_props: int = 0
    fallback_calls: int = 0  # search nodes entered below a fallback node of dpll_rel


@dataclass
class SolveResult:
    verdict: str  # "sat" | "unsat" | "unknown"
    model: dict[Literal, bool] = field(default_factory=dict)
    stats: SolveStats = field(default_factory=SolveStats)
    # the atoms of every support-reachable clause, set by dpll_rel (plain
    # dpll has no support set); they include those of the smallest
    # unsatisfiable neighborhood, so 2**k still bounds the calls
    k: int | None = None


# ---------------------------------------------------------------------------
# The relevance pass: stepping buckets and support radius


def _relevance(cs: ClauseSet, support_ids, task: str) -> tuple[RelevanceGraph, DistanceMap]:
    """The pass each relevance entry point starts with: the refusal of
    variables (named after ``task``) before the search unifies, the partner
    index, and the 0-1 BFS from the support set."""
    cs.require_ground(task)
    graph = build_graph(cs)
    return graph, bfs_from_support(graph, support_ids)


def _buckets(graph: RelevanceGraph, dmap: DistanceMap) -> dict[int, int]:
    """Atom number -> stepping bucket (the distance of its closest clause,
    minus one) for every atom of a reachable clause."""
    bucket_of: dict[int, int] = {}
    for row, d in zip(graph.clause_set.rows, dmap.distances):
        if d == INF:
            continue
        b = d - 1
        for x in row:
            a = x if x > 0 else -x
            if bucket_of.get(a, INF) > b:
                bucket_of[a] = b
    return bucket_of


def stepping_sequence(cs: ClauseSet, support_ids) -> tuple[tuple[Literal, ...], ...]:
    """The stepping buckets: the atoms of all support-reachable clauses,
    bucket m holding those whose closest clause, in either polarity, sits at
    distance m+1 from the support set, each bucket in canonical order.  An
    atom stands for both the literal and its complement (their distances
    agree by definition).  Bucket positions are meaningful and survive
    restriction to the atoms still occurring during search; atoms of
    unreachable clauses appear in no bucket."""
    bucket_of = _buckets(*_relevance(cs, support_ids, "a stepping sequence"))
    buckets: list[list[Literal]] = [[] for _ in range(max(bucket_of.values(), default=-1) + 1)]
    for a in sorted(bucket_of):  # atom numbers follow the canonical order
        buckets[bucket_of[a]].append(cs.literal(a))
    return tuple(map(tuple, buckets))


def support_radius(cs: ClauseSet, support_ids) -> float:
    """The smallest n for which the distance-n clauses around the support
    set are already unsatisfiable; INF when no level is (then everything
    reachable from the support set is satisfiable)."""
    _, dmap = _relevance(cs, support_ids, _RADIUS)
    # levels between two finite distances add no clauses
    finite = sorted({int(d) for d in dmap.distances if d < INF})

    def unsat(i: int) -> bool:
        return dpll(cs.subset(dmap.relevant_ids(finite[i]))).verdict == "unsat"

    # the levels are nested, so once one is unsatisfiable every deeper one
    # is: solve the deepest, then bisect for the first unsatisfiable one
    if not finite or not unsat(len(finite) - 1):
        return INF
    lo, hi = 0, len(finite) - 1  # level hi is unsatisfiable
    while lo < hi:
        mid = (lo + hi) // 2
        if unsat(mid):
            hi = mid
        else:
            lo = mid + 1
    return finite[hi]


# ---------------------------------------------------------------------------
# Search engine shared by both solvers.  It reads a set's rows
# (ClauseSet.rows): a clause is a tuple of signed atom numbers, in
# canonical order.  The search runs on these numbers alone; a Literal is
# made only for the atoms of a model that is returned.


def _solve(cs: ClauseSet, bucket_of: dict[int, int], trusted: bool,
           max_calls: int | None) -> SolveResult:
    """Depth-first splitting search over the rows of ``cs``, less their
    tautologies, that branches on atoms of ``bucket_of`` (atom number ->
    stepping bucket), over one mutable state
    built here and undone literal by literal on backtrack.  Every other
    atom sits in one last bucket.

    Each node propagates the units over atoms it may split on, lowest
    clause first, then splits on the leading atom: the first bucket with a
    live atom, its most frequent atom, the smallest index on ties, true
    first; the false branch is kept on an explicit stack of pending
    branches.  Plain ``dpll`` puts every atom in bucket 0, so it takes
    every unit.  The last bucket is split on only in the fallback region.
    A node whose unsatisfied clauses hold no stepping atom is accepted
    when ``trusted``; otherwise the search enters that region: the next
    nodes may split on the last bucket and take every unit, and they count
    as ``fallback_calls``.  Each pending branch keeps whether it lies in
    the region, so backtracking out of it leaves it.  Nodes of both kinds
    draw on the one ``max_calls`` budget; past it the verdict is
    "unknown"."""
    clauses = [row for row in cs.rows if len(set(map(abs, row))) == len(row)]
    n, m = cs.atom_count, len(clauses)
    span = n + 1  # an atom a at count k sits in its bucket's heap as a - k * span
    occ: list[list[int]] = [[] for _ in range(2 * n + 1)]  # indexed by signed literal
    for c, cl in enumerate(clauses):
        for x in cl:
            occ[x].append(c)
    cats = [tuple(map(abs, cl)) for cl in clauses]
    sat = [0] * m                   # the literal that satisfied a clause, or 0
    free = list(map(len, clauses))  # unassigned literals, kept for unsatisfied clauses
    # occurrences of each unassigned atom in the unsatisfied clauses
    cnt = [len(occ[a]) + len(occ[-a]) for a in range(n + 1)]
    assigned = [False] * (2 * n + 1)  # indexed by signed literal
    trail: list[int] = []
    unsat_left, empty = m, free.count(0)
    # lazy min-heap of clause ids that may be unit; units over atoms a node
    # may not split on are parked until the fallback region takes every unit
    units = [c for c in range(m) if free[c] == 1]
    parked: set[int] = set()
    # per bucket, a lazy heap of its atoms by count and the number of them
    # still occurring; atoms whose count moved wait in touched until a split
    last = max(bucket_of.values(), default=-1) + 1
    bkt = [last] * (n + 1)
    for a, b in bucket_of.items():
        bkt[a] = b
    heaps: list[list[int]] = [[] for _ in range(last + 1)]
    live = [0] * (last + 1)
    touched: list[int] = []
    for a in range(1, n + 1):
        if cnt[a]:
            heaps[bkt[a]].append(a - cnt[a] * span)
            live[bkt[a]] += 1
    for h in heaps:
        heapify(h)

    def assign(lit: int) -> None:
        nonlocal unsat_left, empty
        v = lit if lit > 0 else -lit
        assigned[lit] = assigned[-lit] = True
        trail.append(lit)
        if cnt[v]:
            cnt[v] = 0
            live[bkt[v]] -= 1
        for c in occ[lit]:
            if not sat[c]:
                sat[c] = lit
                unsat_left -= 1
                for a in cats[c]:
                    if not assigned[a]:
                        k = cnt[a] - 1
                        cnt[a] = k
                        if k:
                            touched.append(a)
                        else:
                            live[bkt[a]] -= 1
        for c in occ[-lit]:
            if not sat[c]:
                f = free[c] - 1
                free[c] = f
                if not f:
                    empty += 1
                elif f == 1:
                    heappush(units, c)

    def undo(mark: int) -> None:
        nonlocal unsat_left, empty
        while len(trail) > mark:
            lit = trail.pop()
            v = lit if lit > 0 else -lit
            kv = 0
            for c in occ[-lit]:
                if not sat[c]:
                    kv += 1
                    f = free[c] + 1
                    free[c] = f
                    if f == 1:
                        empty -= 1
                        heappush(units, c)
            for c in occ[lit]:
                if sat[c] == lit:
                    sat[c] = 0
                    unsat_left += 1
                    kv += 1
                    f = 1
                    for a in cats[c]:
                        if not assigned[a]:
                            f += 1
                            k = cnt[a] + 1
                            cnt[a] = k
                            touched.append(a)
                            if k == 1:
                                live[bkt[a]] += 1
                    free[c] = f
                    if f == 1:
                        heappush(units, c)
            assigned[lit] = assigned[-lit] = False
            cnt[v] = kv
            if kv:
                touched.append(v)
                live[bkt[v]] += 1

    def flush() -> None:
        for a in set(touched):
            if cnt[a]:
                heappush(heaps[bkt[a]], a - cnt[a] * span)
        touched.clear()
        for b, h in enumerate(heaps):
            if len(h) > 4 * live[b] + 64:  # mostly stale: rebuild from its atoms
                h[:] = [a - cnt[a] * span for a in {e % span for e in h} if cnt[a]]
                heapify(h)

    stats = SolveStats()
    fallback = False
    reach = last  # splits and units take the atoms of buckets below this
    pending: list[tuple[int, int, int, bool]] = []
    prev_size = len(bucket_of) + 1
    while True:
        if fallback:
            stats.fallback_calls += 1
        else:
            stats.calls += 1
        if max_calls is not None and stats.calls + stats.fallback_calls > max_calls:
            return SolveResult("unknown", {}, stats)
        ok = None
        while True:
            if empty:
                ok = False
                break
            if not unsat_left:
                ok = True
                break
            unit = 0
            while units:
                c = heappop(units)
                if sat[c] or free[c] != 1:
                    continue
                for unit in clauses[c]:
                    if not assigned[unit]:
                        break
                if bkt[abs(unit)] < reach:
                    break
                parked.add(c)
                unit = 0
            if not unit:
                break
            stats.unit_props += 1
            assign(unit)
        if ok is None:
            b = 0
            while b < reach and not live[b]:
                b += 1
            if b < reach:
                size = sum(live[b:reach])
                assert size < prev_size, "restricted sequence must shrink per call"
                flush()
                h = heaps[b]
                var = h[0] % span
                while cnt[var] * span != var - h[0]:  # a stale count
                    heappop(h)
                    var = h[0] % span
                stats.splits += 1
                pending.append((-var, len(trail), size, fallback))
                prev_size = size
                assign(var)
                continue
            if trusted:
                ok = True  # partial model: leftovers never touch stepping atoms
            else:  # no stepping atom left: the last bucket opens
                fallback, reach, prev_size = True, last + 1, live[last] + 1
                units.extend(parked)
                parked.clear()
                heapify(units)
                continue
        if ok:
            literal = cs.literal
            model = {literal(abs(l)): l > 0 for l in trail}
            return SolveResult("sat", model, stats)
        if not pending:
            return SolveResult("unsat", {}, stats)
        lit, mark, prev_size, fallback = pending.pop()
        reach = last + 1 if fallback else last
        undo(mark)
        assign(lit)


def dpll(cs: ClauseSet, max_calls: int | None = None) -> SolveResult:
    """Plain splitting solver, unrestricted branching, that takes every
    unit; past ``max_calls`` search nodes the verdict is "unknown"."""
    cs.require_ground(_SOLVING)
    return _solve(cs, dict.fromkeys(range(1, cs.atom_count + 1), 0), False, max_calls)


# ---------------------------------------------------------------------------
# Relevance-restricted solving


def dpll_rel(cs: ClauseSet, support_ids, max_calls: int | None = None,
             mode: str = "fallback") -> SolveResult:
    """Splitting solver that branches only on the atoms of the stepping
    sequence of ``support_ids`` (see ``stepping_sequence``), and reports
    their number as ``k``.

    In "trusted" mode a branch whose remaining clauses contain no stepping
    atom is accepted as satisfiable without inspection; the verdict is then
    only reliable when the input minus the support clauses is satisfiable.
    The default "fallback" mode searches on below such a branch over every
    atom, and the verdict is unconditional.  Past ``max_calls`` search
    nodes, fallback nodes included, the verdict is "unknown".
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    support = frozenset(support_ids)
    if not support:
        raise ValueError("dpll_rel needs a nonempty support set")
    bucket_of = _buckets(*_relevance(cs, support, _SOLVING))
    result = _solve(cs, bucket_of, mode == "trusted", max_calls)
    result.k = len(bucket_of)
    return result
