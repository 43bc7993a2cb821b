"""Relevance distances over clause sets via a literal-occurrence graph.

Two clauses are adjacent when one can be left through a literal that
complement-unifies with a literal of the other; a connection is a clause
sequence C1,...,Cn where each hop uses such a pair and the literal used to
leave a clause differs from the literal used to enter it.  The distance of a
clause from a support set U is the length (number of clauses, endpoints
included) of the shortest such connection starting in U; members of U are at
distance 1.

Distances are those of a 0-1 BFS over a derived graph with one in-node and
one out-node per literal occurrence.  Linking edges join out-nodes to
in-nodes of complementary-unifiable occurrences; switching edges join the
in-node of a literal to the out-nodes of the other literals of its clause,
which is what enforces the leave-differs-from-enter rule.  The search never
materializes that graph, nor visits it node by node: it runs level by
level over distinct literals, expanding each once through the partner
index, and keeps records by literal and by clause only, of which the
first two entries of each clause decide its switches.  Witnesses walk back
on those records; the node view, each node's distance and parent, is
derived from them when read.  The search runs the same in every mode.

The mode only decides how edges are counted, and the counts are read off
the same index without wiring anything.  In ``propositional_hub`` mode
(variable-free sets only) the quadratic bundle of linking edges of an atom
is counted as two shared hub nodes where that saves edges, so the edge
count stays linear in occurrences.  Distances and witnesses do not depend
on the mode.

Partners are found through one index, held by the graph and shared by the
search, the edge counts and purity filtering: purity runs on the graph of
the whole set, and the search over its survivors runs on the same graph
with the purged clauses closed off.  The partner relation depends
only on the two literals, so the index works on distinct literals, named by
the signed atom numbers of ``ClauseSet.rows``: each one's partners
are found once and shared by all its occurrences, and each distinct pair is
decided at most once.  Ground literals complement-unify exactly when their
atoms are equal, so a ground literal x finds its ground partners among the
occurrences of -x; only pairs with a non-ground side reach the unifier.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, repeat

from altpath.clauses import ClauseSet, Literal, complementary_unifiable

INF = float("inf")

FIRST_ORDER = "first_order"
PROPOSITIONAL_HUB = "propositional_hub"

MODES = (FIRST_ORDER, PROPOSITIONAL_HUB)


class RelevanceGraph:
    """The derived search graph for one clause set and one mode, with its
    partner index.

    Node layout: occurrence i owns in-node 2i and out-node 2i+1.
    Occurrences are numbered in the canonical clause/literal order, and
    every reader of the graph uses the one layout of flat lists indexed by
    occurrence, built from the set's numbering (``ClauseSet.rows``) with
    no clause object read: ``lit_of`` gives each occurrence's signed atom
    number, the rows concatenated, and ``clause_of`` its clause index (its
    position in the set).  ``clause_occs`` gives each clause index's range
    of occurrences.  The graph holds no literal objects: witnesses and the
    partner lookups of a set with variables read them off
    ``ClauseSet.literal``.  The mode only decides how ``edge_count`` and
    ``node_count`` count the linking edges; no edge list is ever built.

    ``occs[x]`` lists the occurrences of x in ascending order and
    ``ground[a]``, the set's ``ClauseSet.ground``, says whether atom a is
    variable-free.  Unless the set is ground, literals are listed per
    ``(pred, sign)`` in ``by_key``, the non-ground ones also in ``open``.  A ground literal x's partners are
    ``occs[-x]`` plus the opposite non-ground literals it unifies with; a
    non-ground literal checks every opposite literal of its predicate.
    ``partners_of`` builds the list once per distinct literal, ascending,
    and shares it among its occurrences: do not mutate it.  Each unordered
    pair of distinct literals reaches ``complementary_unifiable`` at most
    once.
    """

    def __init__(self, cs: ClauseSet, mode: str = FIRST_ORDER):
        self.clause_set = cs
        self.mode = mode
        rows = cs.rows
        n = cs.atom_count
        self.lit_of = list(chain.from_iterable(rows))  # by occurrence
        starts = list(accumulate(map(len, rows), initial=0))
        self.clause_occs = list(map(range, starts, starts[1:]))  # by clause index
        # by occurrence: its clause's index
        self.clause_of = list(chain.from_iterable(map(repeat, range(len(rows)), map(len, rows))))
        # indexed by signed number: -x sits at 2n+1-x, past every atom number
        self.occs: list[list[int]] = [[] for _ in range(2 * n + 1)]
        for i, x in enumerate(self.lit_of):
            self.occs[x].append(i)
        self.ground = cs.ground  # by atom number
        self.by_key: dict[tuple[str, bool], list[int]] = {}
        self.open: dict[tuple[str, bool], list[int]] = {}
        if not all(self.ground):  # else each literal x's partners are occs[-x]
            for a, atom in enumerate(cs.atoms(), 1):
                for x in (a, -a):
                    if self.occs[x]:
                        key = (atom.pred, x > 0)
                        self.by_key.setdefault(key, []).append(x)
                        if not self.ground[a]:
                            self.open.setdefault(key, []).append(x)
        self._partners: list[list[int] | None] = [None] * len(self.occs)
        self._unifies: dict[tuple[int, int], bool] = {}

    def partners_of(self, i: int) -> list[int]:
        """The occurrences whose literal complement-unifies with that of
        occurrence i, ascending; shared by all occurrences of the literal."""
        x = self.lit_of[i]
        found = self._partners[x]
        if found is not None:
            return found
        occs, unifies = self.occs, self._unifies
        if self.ground[abs(x)]:
            runs, table = [occs[-x]], self.open
        else:
            runs, table = [], self.by_key
        if table:  # only a set with variables lists literals by predicate
            literal = self.clause_set.literal
            lit = literal(x)
            for y in table.get((lit.pred, x < 0), ()):
                pair = (x, y) if x < y else (y, x)
                hit = unifies.get(pair)
                if hit is None:
                    hit = unifies[pair] = complementary_unifiable(lit, literal(y))
                if hit:
                    runs.append(occs[y])
        runs = [run for run in runs if run]
        if len(runs) == 1:
            found = runs[0]
        else:
            # occurrence lists of distinct literals are disjoint ascending runs
            found = sorted(occ for run in runs for occ in run)
        self._partners[x] = found
        return found

    @property
    def node_count(self) -> int:
        return 2 * len(self.lit_of) + self._linking()[1]

    @property
    def edge_count(self) -> int:
        switching = sum(len(r) * (len(r) - 1) for r in self.clause_occs)
        return switching + self._linking()[0]

    def _linking(self) -> tuple[int, int]:
        """(linking edges, hub nodes) of the mode's wiring, counted from the
        partner index."""
        occs = self.occs
        if self.mode == FIRST_ORDER:
            # all occurrences of a literal share one partner list
            edges = sum(len(self.partners_of(run[0])) * len(run) for run in occs if run)
            return edges, 0
        # ground atoms with m positive and n negative occurrences: a shared
        # hub pair costs 2(m+n) edges against 2mn for direct pairing, so each
        # atom gets whichever wiring is smaller (ties go to direct, which
        # needs no extra nodes)
        edges = hubs = 0
        for a in range(1, len(self.ground)):
            if not self.ground[a]:
                continue
            m, n = len(occs[a]), len(occs[-a])
            if m * n <= m + n:
                edges += 2 * m * n
            else:
                edges += 2 * (m + n)
                hubs += 2
        return edges, hubs


def build_graph(cs: ClauseSet, mode: str = FIRST_ORDER) -> RelevanceGraph:
    """The graph of a clause set: its occurrences and partner index."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == PROPOSITIONAL_HUB:
        cs.require_ground(f"{mode} mode")
    return RelevanceGraph(cs, mode)


# ---------------------------------------------------------------------------
# Connections as first-class values


@dataclass(frozen=True)
class AlternatingPath:
    """A connection: clause ids plus the (leave, enter) literal pair used on
    each hop.  Length counts clauses, so a path entirely inside the support
    set has length 1 and no links."""

    clause_ids: tuple[int, ...]
    links: tuple[tuple[Literal, Literal], ...]

    @property
    def length(self) -> int:
        return len(self.clause_ids)

    def __str__(self) -> str:
        if not self.clause_ids:
            return "(empty path)"
        parts = [f"c{self.clause_ids[0]}"]
        for (exit_lit, entry_lit), cid in zip(self.links, self.clause_ids[1:]):
            parts.append(f" -[{exit_lit} ~ {entry_lit}]-> c{cid}")
        return "".join(parts)


def check_alternating_path(cs: ClauseSet, path: AlternatingPath) -> None:
    """Raise ValueError unless the path is a valid connection in cs.

    Checks, hop by hop: the leave literal belongs to the clause it leaves,
    the enter literal belongs to the clause it enters, the two
    complement-unify, and the leave literal differs from the literal the
    clause was entered through.
    """
    if not path.clause_ids:
        raise ValueError("empty clause sequence")
    if len(path.links) != len(path.clause_ids) - 1:
        raise ValueError(
            f"{len(path.clause_ids)} clauses need {len(path.clause_ids) - 1} links, "
            f"got {len(path.links)}"
        )
    for cid in path.clause_ids:
        if not cs.has_id(cid):
            raise ValueError(f"clause id {cid} not in the set")
    entry: Literal | None = None
    for hop, (exit_lit, entry_lit) in enumerate(path.links):
        here = cs.by_id(path.clause_ids[hop])
        there = cs.by_id(path.clause_ids[hop + 1])
        if exit_lit not in here.literals:
            raise ValueError(f"hop {hop}: leave literal {exit_lit} not in clause c{here.id}")
        if entry_lit not in there.literals:
            raise ValueError(f"hop {hop}: enter literal {entry_lit} not in clause c{there.id}")
        if entry is not None and exit_lit == entry:
            raise ValueError(
                f"hop {hop}: clause c{here.id} left through the literal it was "
                f"entered through ({exit_lit})"
            )
        if not complementary_unifiable(exit_lit, entry_lit):
            raise ValueError(
                f"hop {hop}: {exit_lit} and {entry_lit} do not complement-unify"
            )
        entry = entry_lit


# ---------------------------------------------------------------------------
# Distances


# a node the search has not reached, in the node view's distance list
_UNSET = sys.maxsize
# the switch records of a clause the search never switches from: a support
# clause, or one purged from the searched set
_CLOSED = -2


@dataclass
class DistanceMap:
    """Result of a relevance search from a support set.

    ``distances`` gives each clause of the graph's set, by clause index,
    its distance (INF when unreachable), and ``searched`` says by clause
    index whether the search ran over it: every clause, or the survivors
    the search was given.  ``clause_distance`` maps the id of every
    searched clause to its distance, in clause order; it is derived from
    the two on first read, and ``distance`` and ``relevant_ids`` read the
    list.  ``bound`` is set when the map came from a bounded search or
    from one that stopped at its target, in which case distances beyond
    the bound are reported as INF.

    The rest are the search's records.  By literal: ``expanded`` lists the
    out-occurrences that expanded their literal, in expansion order, and
    ``levels`` where each depth's expansions begin in it.  By clause index:
    ``first`` and ``second`` are the first two in-occurrences the clause
    was entered through, -1 where there is none and ``_CLOSED`` for a
    support or purged clause.  An entry at depth bound-1, which a search
    stopped at its target records in its last level, switches nothing.

    ``witness`` walks back on the records.  ``dist``, ``parent`` and
    ``node_distance`` are the node view of the search, in the graph's node
    layout, derived from the records on first read; only tests and tracing
    read it.  ``dist`` and ``parent`` are lists indexed by node, a reached
    node's number of clause entries and the node it was reached from
    (``_UNSET`` and -1 where there is none), and ``node_distance`` a dict
    of the reached nodes, ascending, with their distances.  A support
    clause's out-nodes are at 0.  An in-node is one entry deeper than the
    first expansion whose partner list holds it, whose out-node is its
    parent.  A clause's out-nodes are at the depth of its first switch,
    which is their parent, but for the first switch's own out-node, which
    the second switch sets.
    """

    graph: RelevanceGraph
    support: frozenset[int]
    distances: list[float]
    searched: bytearray
    bound: int | None
    expanded: list[int]
    levels: list[int]
    first: list[int]
    second: list[int]

    @cached_property
    def clause_distance(self) -> dict[int, float]:
        ids = self.graph.clause_set.ids()
        return dict(compress(zip(ids, self.distances), self.searched))

    @cached_property
    def _rank(self) -> list[int]:
        """By signed literal number: its place in ``expanded``, counted
        from 1, or 0 when it was not expanded."""
        rank = [0] * len(self.graph.occs)
        for r, k in enumerate(self.expanded, 1):
            rank[self.graph.lit_of[k]] = r
        return rank

    @cached_property
    def _node_view(self) -> tuple[list[int], list[int]]:
        graph = self.graph
        lit_of, clause_of, clause_occs = graph.lit_of, graph.clause_of, graph.clause_occs
        searched = self.searched
        dist = [_UNSET] * (2 * len(lit_of))
        parent = [-1] * len(dist)
        for cid in self.support:
            for i in clause_occs[graph.clause_set.position(cid)]:
                dist[2 * i + 1] = 0
        ends = [*self.levels[1:], len(self.expanded)]
        for depth, (begin, end) in enumerate(zip(self.levels, ends), 1):
            for k in self.expanded[begin:end]:
                for j in graph.partners_of(k):
                    if dist[2 * j] == _UNSET and searched[clause_of[j]]:
                        dist[2 * j] = depth
                        parent[2 * j] = 2 * k + 1
        # a search stopped at its target records the entries of its last
        # level, which switch nothing
        deepest = INF if self.bound is None else self.bound - 2
        for occs, f, s in zip(clause_occs, self.first, self.second):
            if f >= 0 and dist[2 * f] <= deepest:
                for i in occs:
                    if i != f:
                        dist[2 * i + 1], parent[2 * i + 1] = dist[2 * f], 2 * f
            if s >= 0 and dist[2 * s] <= deepest:
                dist[2 * f + 1], parent[2 * f + 1] = dist[2 * s], 2 * s
        return dist, parent

    @property
    def dist(self) -> list[int]:
        return self._node_view[0]

    @property
    def parent(self) -> list[int]:
        return self._node_view[1]

    @cached_property
    def node_distance(self) -> dict[int, int]:
        return {node: d for node, d in enumerate(self.dist) if d != _UNSET}

    def distance(self, cid: int) -> float:
        ci = self.graph.clause_set.position(cid)
        if not self.searched[ci]:
            raise KeyError(f"no clause with id {cid}")
        return self.distances[ci]

    def relevant_ids(self, n: int) -> list[int]:
        if n < 1:
            raise ValueError("relevance level must be >= 1")
        if self.bound is not None and n > self.bound:
            raise ValueError(f"bounded search stopped at {self.bound}, cannot answer {n}")
        # a clause the search did not run over is at INF
        return [cid for cid, d in zip(self.graph.clause_set.ids(), self.distances) if d <= n]

    def _entry(self, j: int) -> int:
        """The rank of the first expansion whose partner list holds
        in-occurrence j, or 0 when none does.

        The partner relation is one of literals and symmetric, so only the
        opposite literals of j's predicate can hold it, only the expanded
        ones did, and their partner lists are built: nothing is unified."""
        graph = self.graph
        x = graph.lit_of[j]
        if graph.by_key:
            candidates = graph.by_key.get((graph.clause_set.literal(x).pred, x < 0), ())
        else:  # a ground set: x's partners are the occurrences of -x
            candidates = (-x,)
        best = 0
        for y in candidates:
            r = self._rank[y]
            if r and (not best or r < best):
                held = graph.partners_of(self.expanded[r - 1])
                i = bisect_left(held, j)
                if i < len(held) and held[i] == j:
                    best = r
        return best

    def witness(self, cid: int) -> AlternatingPath:
        """A shortest connection from the support set to the clause: back
        from the first of its in-occurrences at its least depth, through
        the expansion that entered each clause and the switch that set the
        expanded out-occurrence, to a support clause."""
        d = self.distance(cid)
        if d == INF:
            raise ValueError(f"clause c{cid} is unreachable from the support set")
        if cid in self.support:
            return AlternatingPath((cid,), ())
        graph = self.graph
        ids, literal = graph.clause_set.ids(), graph.clause_set.literal
        lit_of, clause_of = graph.lit_of, graph.clause_of
        # the clause's nearest in-occurrences, d - 1 deep, were entered by
        # the expansions of the level before, whose ranks lie in (low, high]
        level = int(d) - 2
        low = self.levels[level]
        high = self.levels[level + 1] if level + 1 < len(self.levels) else len(self.expanded)
        occs = graph.clause_occs[graph.clause_set.position(cid)]
        j, r = next((j, r) for j in occs if low < (r := self._entry(j)) <= high)
        clause_ids = [cid]
        links: list[tuple[Literal, Literal]] = []
        while True:
            k = self.expanded[r - 1]
            links.append((literal(lit_of[k]), literal(lit_of[j])))
            clause_ids.append(ids[clause_of[k]])
            if clause_ids[-1] in self.support:
                break
            # the switch that set out-occurrence k: its clause's first, or
            # the second for the first's own occurrence
            f = self.first[clause_of[k]]
            j = self.second[clause_of[k]] if f == k else f
            r = self._entry(j)
        return AlternatingPath(tuple(reversed(clause_ids)), tuple(reversed(links)))

    def to_csv(self) -> str:
        text = {d: "inf" if d == INF else str(int(d)) for d in {*self.clause_distance.values()}}
        return "".join(["clause_id,distance\n",
                        *[f"{cid},{text[d]}\n" for cid, d in self.clause_distance.items()]])


def bfs_from_support(graph: RelevanceGraph, support_ids, bound: int | None = None,
                     survivors: ClauseSet | None = None, target: int | None = None
                     ) -> DistanceMap:
    """Distances of every clause from the support set, or of those within
    ``bound`` when one is given.

    With ``survivors``, a subset of the graph's set such as
    ``purity_filter(graph)``, the search runs over the survivors alone:
    the support must lie among them, no purged clause is entered, and only
    the survivors get a distance.  The partners of a literal among the
    survivors are its partners in the whole set that the survivors hold,
    so the distances and witnesses are those of a search on
    ``build_graph(survivors)``.

    With a ``target`` clause id, the search ends after the level in which
    the target first gets a distance D, and the map is the one a search
    bounded at D returns.  The whole level runs, since a later expansion
    in it can still enter a lower in-occurrence of the target, and the
    witness starts at the lowest one at the least depth.

    The search is the 0-1 BFS of the graph's nodes, where entering a clause
    costs one and a switch within a clause nothing, so a node's distance is
    the number of clauses entered.  It runs level by level over distinct
    literals, and two pruning rules shape the loop:

    - All occurrences of a literal share one partner list, so a literal is
      expanded once, from the first of its out-occurrences in the order the
      node search pops them; the others could only tie.  So each level is a
      queue of out-occurrences with distinct literals never queued before,
      and every one of them is expanded.
    - Once a clause has been switched from two in-occurrences, each of its
      out-occurrences is as near as it can get: the first switch settles
      all but its own, the second settles that one.  So an in-occurrence an
      expansion reaches only updates its clause's state: the first one
      gives the clause its distance and the first two are recorded, and a
      support clause, whose out-occurrences start at 0, records none.

    Level 0 queues the support clauses' out-occurrences in ascending order.
    An expansion at depth d walks its partners in ascending order; a
    clause's first entry there queues the clause's other out-occurrences
    for depth d + 1 in descending order, and its second entry the first's
    own out-occurrence.  That is the order in which a deque pops the nodes
    (a switch pushes its out-nodes to the front), so the records, and the
    node view derived from them, are the node search's.  With a bound k,
    nothing is expanded from depth k-1 on and no clause is switched from
    an in-occurrence that deep, so the last level sets distances only;
    distances beyond k are reported as INF.

    A purged clause's records start closed, so no expansion enters it.
    """
    lit_of, clause_of, clause_occs = graph.lit_of, graph.clause_of, graph.clause_occs
    partners_of = graph.partners_of
    cs = graph.clause_set
    ids = cs.ids()
    first = [-1] * len(ids)
    if survivors is None:
        support = cs.check_support(support_ids)
        alive = bytearray([1]) * len(ids)
    else:
        support = survivors.check_support(support_ids)
        alive = bytearray(map(survivors.has_id, ids))
        if sum(alive) != len(survivors):
            raise ValueError("the survivors are not a subset of the graph's clause set")
        for ci, live in enumerate(alive):
            if not live:
                first[ci] = _CLOSED
    if bound is not None and bound < 1:
        raise ValueError("relevance level must be >= 1")
    goal = None if target is None else cs.position(target)
    stop = INF if bound is None else bound - 1
    distance: list[float] = [INF] * len(ids)
    second = first.copy()
    # a level's out-occurrences to expand, in the order they pop: each
    # literal is queued once, at its first out-occurrence in that order
    queued = bytearray(len(graph.occs))  # by signed literal number
    queue: list[int] = []
    for ci in sorted(map(cs.position, support)):
        distance[ci] = 1
        first[ci] = second[ci] = _CLOSED
        for k in clause_occs[ci]:
            if not queued[lit_of[k]]:
                queued[lit_of[k]] = 1
                queue.append(k)
    if goal is not None and distance[goal] == 1:
        queue, bound = [], 1
    # read the partner lists the graph holds, by signed literal number, and
    # call partners_of only to build one
    partners = graph._partners
    expanded: list[int] = []
    levels: list[int] = []
    depth = 0
    while queue and depth < stop:
        levels.append(len(expanded))
        expanded += queue
        reach = depth + 2  # the distance of a clause entered from this level
        nxt: list[int] = []
        enter = nxt.append
        if depth + 1 >= stop:  # what this level enters switches nothing
            for k in queue:
                for j in partners[lit_of[k]] or partners_of(k):
                    ci = clause_of[j]
                    if first[ci] == -1:
                        distance[ci] = reach
        else:
            for k in queue:
                for j in partners[lit_of[k]] or partners_of(k):
                    ci = clause_of[j]
                    if second[ci] != -1:
                        continue
                    f = first[ci]
                    if f == -1:  # the first switch: the other occurrences, descending
                        first[ci] = j
                        distance[ci] = reach
                        for i in reversed(clause_occs[ci]):
                            x = lit_of[i]
                            if not queued[x] and i != j:
                                queued[x] = 1
                                enter(i)
                    elif f != j:  # the second: the first's own occurrence
                        second[ci] = j
                        if not queued[lit_of[f]]:
                            queued[lit_of[f]] = 1
                            enter(f)
        if goal is not None and distance[goal] != INF:
            bound = reach
            break
        queue = nxt
        depth += 1
    return DistanceMap(graph, support, distance, alive, bound, expanded, levels, first, second)


# ---------------------------------------------------------------------------
# Purity


def purity_filter(graph: RelevanceGraph) -> ClauseSet:
    """Repeatedly delete clauses of the graph's set containing a literal
    with no complementary-unifiable partner among the remaining clauses.

    Ids of surviving clauses are preserved.  The result is the greatest
    fixpoint: every literal of every surviving clause has a live partner.
    It reads the graph's partner index and occurrence layout and builds no
    index of its own, with clauses named by their index in the set and one
    list saying which are still alive; pass the result to
    ``bfs_from_support`` as ``survivors`` to search it on the same graph.
    """
    cs = graph.clause_set
    clause_of, clause_occs = graph.clause_of, graph.clause_occs
    # the partner relation is symmetric, so partners[i] also lists the
    # occurrences that lose a partner when occurrence i dies
    partners = [graph.partners_of(i) for i in range(len(clause_of))]
    partner_count = [len(p) for p in partners]

    alive = [True] * len(clause_occs)  # by clause index
    worklist = deque(
        ci for ci, occs in enumerate(clause_occs)
        if any(partner_count[i] == 0 for i in occs)
    )
    while worklist:
        ci = worklist.popleft()
        if not alive[ci]:
            continue
        alive[ci] = False
        for i in clause_occs[ci]:
            for watcher in partners[i]:
                partner_count[watcher] -= 1
                if partner_count[watcher] == 0 and alive[clause_of[watcher]]:
                    worklist.append(clause_of[watcher])
    return cs.subset(list(compress(cs.ids(), alive)))

