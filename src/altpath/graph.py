"""Relevance distances over clause sets via a literal-occurrence graph.

Two clauses are adjacent when one can be left through a literal that
complement-unifies with a literal of the other; a connection is a clause
sequence C1,...,Cn where each hop uses such a pair and the literal used to
leave a clause differs from the literal used to enter it.  The distance of a
clause from a support set U is the length (number of clauses, endpoints
included) of the shortest such connection starting in U; members of U are at
distance 1.

The search runs over a derived graph with one in-node and one out-node per
literal occurrence.  Linking edges join out-nodes to in-nodes of
complementary-unifiable occurrences; switching edges join the in-node of a
literal to the out-nodes of the other literals of its clause, which is what
enforces the leave-differs-from-enter rule.  The search reads both kinds of
edge straight from the partner index and the per-clause occurrence lists,
so it never materializes the graph and runs the same in every mode.

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
    of occurrences, and ``occs_by_clause`` the same range by clause id.
    The graph holds no literal objects: witnesses and the partner lookups
    of a set with variables read them off ``ClauseSet.literal``.  The mode
    only decides how ``edge_count`` and ``node_count`` count the linking
    edges; no edge list is ever built.

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

    @cached_property
    def occs_by_clause(self) -> dict[int, range]:
        return dict(zip(self.clause_set.ids(), self.clause_occs))

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


# a node the search has not reached, in its distance list
_UNSET = sys.maxsize


@dataclass
class DistanceMap:
    """Result of a relevance search from a support set.

    ``clause_distance`` maps every clause id of the searched set, the
    graph's set or the survivors the search was given, to its distance
    (INF when unreachable), in clause order.  ``dist`` and ``parent`` are
    the search's lists indexed by node: a reached node's number of clause
    entries and the node it was reached from (``_UNSET`` and -1 where there
    is none).  They are kept for witness extraction, which reads each
    node's clause and signed atom number from the graph's ``clause_of`` and
    ``lit_of``, and makes a ``Literal`` only for the nodes on the witness,
    with ``ClauseSet.literal``; ``node_distance`` is a dict of the reached
    nodes, ascending, with their distances, built on first read.  ``bound``
    is set when the map came from a bounded search, in which case distances
    beyond the bound are reported as INF.
    """

    graph: RelevanceGraph
    support: frozenset[int]
    clause_distance: dict[int, float]
    dist: list[int]
    parent: list[int]
    bound: int | None = None

    @cached_property
    def node_distance(self) -> dict[int, int]:
        return {node: d for node, d in enumerate(self.dist) if d != _UNSET}

    def distance(self, cid: int) -> float:
        try:
            return self.clause_distance[cid]
        except KeyError:
            raise KeyError(f"no clause with id {cid}") from None

    def relevant_ids(self, n: int) -> list[int]:
        if n < 1:
            raise ValueError("relevance level must be >= 1")
        if self.bound is not None and n > self.bound:
            raise ValueError(f"bounded search stopped at {self.bound}, cannot answer {n}")
        return [cid for cid, d in self.clause_distance.items() if d <= n]

    def witness(self, cid: int) -> AlternatingPath:
        """A shortest connection from the support set to the clause."""
        d = self.distance(cid)
        if d == INF:
            raise ValueError(f"clause c{cid} is unreachable from the support set")
        if cid in self.support:
            return AlternatingPath((cid,), ())
        graph, dist, parent = self.graph, self.dist, self.parent
        ids, clause_of, lit_of = graph.clause_set.ids(), graph.clause_of, graph.lit_of
        literal = graph.clause_set.literal
        # the first of the clause's in-nodes at its least distance
        best = min((2 * i for i in graph.occs_by_clause[cid]), key=dist.__getitem__)
        assert dist[best] != _UNSET, "finite distance but no reached in-node"
        chain = [best]
        while parent[chain[-1]] >= 0:
            chain.append(parent[chain[-1]])
        chain.reverse()
        clause_ids: list[int] = []
        links: list[tuple[Literal, Literal]] = []
        pending_exit: Literal | None = None
        for node in chain:
            occ_cid, lit = ids[clause_of[node // 2]], literal(lit_of[node // 2])
            if node % 2 == 1:  # out-node
                if not clause_ids:
                    clause_ids.append(occ_cid)
                pending_exit = lit
            else:  # in-node
                assert pending_exit is not None
                links.append((pending_exit, lit))
                clause_ids.append(occ_cid)
                pending_exit = None
        return AlternatingPath(tuple(clause_ids), tuple(links))

    def to_csv(self) -> str:
        text = {d: "inf" if d == INF else str(int(d)) for d in {*self.clause_distance.values()}}
        return "".join(["clause_id,distance\n",
                        *[f"{cid},{text[d]}\n" for cid, d in self.clause_distance.items()]])


def bfs_from_support(graph: RelevanceGraph, support_ids, bound: int | None = None,
                     survivors: ClauseSet | None = None) -> DistanceMap:
    """Distances of every clause from the support set, or of those within
    ``bound`` when one is given.

    With ``survivors``, a subset of the graph's set such as
    ``purity_filter(graph)``, the search runs over the survivors alone:
    the support must lie among them, no purged clause is entered, and only
    the survivors get a distance.  The partners of a literal among the
    survivors are its partners in the whole set that the survivors hold,
    so the distances and witnesses are those of a search on
    ``build_graph(survivors)``.

    0/1-weighted search from the support clauses' out-nodes: an edge into an
    in-node costs one step (a clause is entered), a switch within a clause
    costs nothing, so a node's distance is the number of clauses entered.
    Successors come from the partner index and the clause's occurrences, so
    no edge is formed outside the part of the graph the search reaches.
    Distances and parents sit in lists indexed by node, the expanded
    literals in one indexed by signed literal number, and the clause state
    in lists indexed by clause.

    Nodes are popped in nondecreasing distance.  In-nodes are only reached
    at cost one and out-nodes at cost zero, so the first distance a node
    gets is final and each node is queued once.  That prunes twice:

    - All occurrences of a literal share one partner list, so only the
      first out-node popped per distinct literal is expanded: the others
      could only tie.
    - Once a clause has been switched from two of its in-nodes, each of its
      out-nodes is as near as it can get: the first switch settles all but
      the first in-node's own out-node, the second settles that one.  So no
      later in-node of the clause is expanded, and a support clause, whose
      out-nodes start at 0, counts as switched twice.

    A clause's distance is fixed at the first pop of one of its in-nodes,
    which is at its least in-node distance.  With a bound k, nothing is
    expanded past nodes k-1 clause entries deep, and distances beyond k are
    reported as INF.

    A purged clause's nodes start at distance -1, below any the search
    gives, so no edge enters them and the loop needs no test of its own.
    They are unset again before the map is returned.
    """
    lit_of, clause_of, clause_occs = graph.lit_of, graph.clause_of, graph.clause_occs
    ids = graph.clause_set.ids()
    purged: list[range] = []  # the occurrences of each clause not searched
    if survivors is None:
        support = graph.clause_set.check_support(support_ids)
        alive = bytearray([1]) * len(ids)
    else:
        support = survivors.check_support(support_ids)
        alive = bytearray(map(survivors.has_id, ids))
        if sum(alive) != len(survivors):
            raise ValueError("the survivors are not a subset of the graph's clause set")
        purged = [occs for occs, live in zip(clause_occs, alive) if not live]
    if bound is not None and bound < 1:
        raise ValueError("relevance level must be >= 1")
    stop = INF if bound is None else bound - 1
    dist = [_UNSET] * (2 * len(lit_of))
    for occs in purged:
        dist[2 * occs.start:2 * occs.stop] = [-1] * (2 * len(occs))
    parent = [-1] * len(dist)
    expanded = bytearray(len(graph.occs))  # by signed literal number
    clause_distance: list[float] = [INF] * len(ids)
    switches = bytearray(len(ids))  # in-nodes each clause was switched from
    queue: deque[int] = deque()
    for ci, cid in enumerate(ids):
        if cid in support:
            clause_distance[ci] = 1
            switches[ci] = 2
            for i in clause_occs[ci]:
                dist[2 * i + 1] = 0
                queue.append(2 * i + 1)
    while queue:
        node = queue.popleft()
        d = dist[node]
        occ = node >> 1
        if node & 1:  # out-node: enter the clauses of the literal's partners
            x = lit_of[occ]
            if d >= stop or expanded[x]:
                continue
            expanded[x] = 1
            d += 1
            for j in graph.partners_of(occ):
                succ = 2 * j
                if d < dist[succ]:
                    dist[succ] = d
                    parent[succ] = node
                    queue.append(succ)
        else:  # in-node: switch to the clause's other literals
            ci = clause_of[occ]
            if clause_distance[ci] == INF:
                # the in-node level counts clauses entered after the support
                # clause, so the connection holds one more clause than that
                clause_distance[ci] = d + 1
            # in-nodes this deep belong to level-k clauses and anything
            # reached from here would lie beyond the bound
            if d >= stop or switches[ci] == 2:
                continue
            switches[ci] += 1
            for j in clause_occs[ci]:
                succ = 2 * j + 1
                if j != occ and d < dist[succ]:
                    dist[succ] = d
                    parent[succ] = node
                    queue.appendleft(succ)
    for occs in purged:
        dist[2 * occs.start:2 * occs.stop] = [_UNSET] * (2 * len(occs))
    return DistanceMap(graph, support, dict(compress(zip(ids, clause_distance), alive)),
                       dist, parent, bound=bound)


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

