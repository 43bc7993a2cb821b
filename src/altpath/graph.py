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
enforces the leave-differs-from-enter rule.  In ``propositional_hub`` mode
(variable-free sets only) the quadratic bundle of linking edges per atom is
replaced by two shared hub nodes, so edge count stays linear in occurrences.

Partners are found through one index shared by the full build, the bounded
search and purity filtering.  The partner relation depends only on the two
literals, so the index works on distinct literals: each one's partners are
found once and shared by all its occurrences, and each distinct pair is
decided at most once.  Ground literals complement-unify exactly when their
atoms are equal, so two ground literals are matched by that equality alone;
only pairs with a non-ground side reach the unifier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from altpath.clauses import ClauseSet, Literal, complementary_unifiable

INF = float("inf")

FIRST_ORDER = "first_order"
PROPOSITIONAL_HUB = "propositional_hub"

MODES = (FIRST_ORDER, PROPOSITIONAL_HUB)


@dataclass
class RelevanceGraph:
    """The derived search graph for one clause set and one mode.

    Node layout: occurrence i owns in-node 2i and out-node 2i+1; hub nodes
    (hub mode only) follow.  Adjacency lists are in construction order, which
    is the canonical clause/literal order, so traversals are deterministic.
    """

    clause_set: ClauseSet
    mode: str
    occurrences: list[tuple[int, Literal]]
    adjacency: list[list[int]]
    hub_ids: dict[Literal, int] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(out) for out in self.adjacency)

    def in_node(self, occ: int) -> int:
        return 2 * occ

    def out_node(self, occ: int) -> int:
        return 2 * occ + 1

    def clause_occs(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, (cid, _) in enumerate(self.occurrences):
            out.setdefault(cid, []).append(i)
        return out


def _occurrence_list(cs: ClauseSet) -> list[tuple[int, Literal]]:
    return [(c.id, lit) for c in cs.clauses for lit in c.literals]


class _Partners:
    """Complementary partners of each literal occurrence.

    Distinct literals are numbered in order of first occurrence, and
    ``occs_of[l]`` lists the occurrences of literal ``l`` in ascending order.
    Ground literals sit in atom buckets, ``atoms[(pred, sign)][args]``, which
    are their occurrence lists.  Every literal is also listed per
    ``(pred, sign)`` in ``lits_by_key``, and the non-ground ones in ``open``.
    A ground literal's partners are the opposite bucket of its atom plus the
    occurrences of the opposite non-ground literals it unifies with; a
    non-ground literal checks every opposite literal of its predicate.  The
    list is built once per distinct literal, in ascending occurrence id, and
    shared by all its occurrences: do not mutate it.  Each unordered pair of
    distinct literals reaches ``complementary_unifiable`` at most once.
    """

    def __init__(self, occurrences: list[tuple[int, Literal]]):
        self.lits: list[Literal] = []
        self.lit_of: list[int] = []
        self.occs_of: list[list[int]] = []
        self.ground: list[bool] = []
        self.atoms: dict[tuple[str, bool], dict[tuple, list[int]]] = {}
        self.open: dict[tuple[str, bool], list[int]] = {}
        self.lits_by_key: dict[tuple[str, bool], list[int]] = {}
        ids: dict[Literal, int] = {}
        for i, (_, lit) in enumerate(occurrences):
            lid = ids.get(lit)
            if lid is None:
                lid = ids[lit] = len(self.lits)
                key = (lit.pred, lit.positive)
                ground = lit.is_ground()
                self.lits.append(lit)
                self.occs_of.append([])
                self.ground.append(ground)
                if ground:
                    self.atoms.setdefault(key, {})[lit.args] = self.occs_of[lid]
                else:
                    self.open.setdefault(key, []).append(lid)
                self.lits_by_key.setdefault(key, []).append(lid)
            self.lit_of.append(lid)
            self.occs_of[lid].append(i)
        self.partners: list[list[int] | None] = [None] * len(self.lits)
        self.unifies: dict[tuple[int, int], bool] = {}

    def bucket(self, lit: Literal) -> list[int]:
        """Ground occurrences of the complement of a ground literal."""
        return self.atoms.get((lit.pred, not lit.positive), {}).get(lit.args, [])

    def of(self, i: int) -> list[int]:
        lid = self.lit_of[i]
        found = self.partners[lid]
        if found is not None:
            return found
        lit = self.lits[lid]
        key = (lit.pred, not lit.positive)
        if self.ground[lid]:
            runs = [self.bucket(lit)]
            candidates = self.open.get(key, ())
        else:
            runs = []
            candidates = self.lits_by_key.get(key, ())
        lits, unifies = self.lits, self.unifies
        for m in candidates:
            pair = (lid, m) if lid < m else (m, lid)
            hit = unifies.get(pair)
            if hit is None:
                hit = unifies[pair] = complementary_unifiable(lits[pair[0]], lits[pair[1]])
            if hit:
                runs.append(self.occs_of[m])
        runs = [run for run in runs if run]
        if len(runs) == 1:
            found = runs[0]
        else:
            # occurrence lists of distinct literals are disjoint ascending runs
            found = sorted(occ for run in runs for occ in run)
        self.partners[lid] = found
        return found


def build_graph(cs: ClauseSet, mode: str = FIRST_ORDER) -> RelevanceGraph:
    """Materialize the full graph for a clause set."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == PROPOSITIONAL_HUB and not cs.is_ground():
        raise ValueError("propositional_hub mode requires a variable-free clause set")
    occs = _occurrence_list(cs)
    adjacency: list[list[int]] = [[] for _ in range(2 * len(occs))]
    graph = RelevanceGraph(cs, mode, occs, adjacency)
    partners = _Partners(occs)

    if mode == FIRST_ORDER:
        for i in range(len(occs)):
            adjacency[2 * i + 1] = [2 * j for j in partners.of(i)]
    else:
        # ground atoms with m positive and n negative occurrences: a shared
        # hub pair costs 2(m+n) edges against 2mn for direct pairing, so each
        # atom gets whichever wiring is smaller (ties go to direct, which
        # needs no extra nodes)
        for (pred, positive), pos_atoms in partners.atoms.items():
            if not positive:
                continue
            neg_atoms = partners.atoms.get((pred, False))
            if not neg_atoms:
                continue
            for args, pos in pos_atoms.items():
                neg = neg_atoms.get(args)
                if not neg:
                    continue
                if len(pos) * len(neg) <= len(pos) + len(neg):
                    for i in pos:
                        for j in neg:
                            adjacency[graph.out_node(i)].append(graph.in_node(j))
                            adjacency[graph.out_node(j)].append(graph.in_node(i))
                    continue
                pos_lit = Literal(True, pred, args)
                neg_lit = Literal(False, pred, args)
                hub_pos = len(adjacency)
                adjacency.append([])
                hub_neg = len(adjacency)
                adjacency.append([])
                graph.hub_ids[pos_lit] = hub_pos
                graph.hub_ids[neg_lit] = hub_neg
                for i in pos:
                    adjacency[graph.out_node(i)].append(hub_pos)
                    adjacency[hub_neg].append(graph.in_node(i))
                for j in neg:
                    adjacency[hub_pos].append(graph.in_node(j))
                    adjacency[graph.out_node(j)].append(hub_neg)
    # the index is done with; free it before the switching edges add to the peak
    del partners

    for occ_ids in graph.clause_occs().values():
        for i in occ_ids:
            for j in occ_ids:
                if i != j:
                    adjacency[graph.in_node(i)].append(graph.out_node(j))
    return graph


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


def is_alternating_path(cs: ClauseSet, path: AlternatingPath) -> bool:
    try:
        check_alternating_path(cs, path)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Distances


@dataclass
class DistanceMap:
    """Result of a relevance search from a support set.

    ``clause_distance`` maps every clause id to its distance (INF when
    unreachable).  Node-level distances/predecessors are kept for witness
    extraction.  ``bound`` is set when the map came from a bounded search, in
    which case distances beyond the bound are reported as INF.
    """

    graph: RelevanceGraph
    support: frozenset[int]
    clause_distance: dict[int, float]
    node_distance: dict[int, int]
    node_parent: dict[int, int]
    bound: int | None = None
    nodes_materialized: int | None = None

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

    def max_finite_distance(self) -> float:
        finite = [d for d in self.clause_distance.values() if d < INF]
        return max(finite) if finite else INF

    def witness(self, cid: int) -> AlternatingPath:
        """A shortest connection from the support set to the clause."""
        d = self.distance(cid)
        if d == INF:
            raise ValueError(f"clause c{cid} is unreachable from the support set")
        if cid in self.support:
            return AlternatingPath((cid,), ())
        graph = self.graph
        best: int | None = None
        for i, (occ_cid, _) in enumerate(graph.occurrences):
            if occ_cid != cid:
                continue
            node = graph.in_node(i)
            if node in self.node_distance:
                if best is None or self.node_distance[node] < self.node_distance[best]:
                    best = node
        assert best is not None, "finite distance but no reached in-node"
        chain = [best]
        while chain[-1] in self.node_parent:
            chain.append(self.node_parent[chain[-1]])
        chain.reverse()
        clause_ids: list[int] = []
        links: list[tuple[Literal, Literal]] = []
        pending_exit: Literal | None = None
        for node in chain:
            if node >= 2 * len(graph.occurrences):
                continue  # hub node
            occ_cid, lit = graph.occurrences[node // 2]
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
        lines = ["clause_id,distance"]
        for c in self.graph.clause_set.clauses:
            d = self.clause_distance[c.id]
            lines.append(f"{c.id},{'inf' if d == INF else int(d)}")
        return "\n".join(lines) + "\n"


def _check_support(cs: ClauseSet, support_ids) -> frozenset[int]:
    support = frozenset(support_ids)
    unknown = [cid for cid in support if not cs.has_id(cid)]
    if unknown:
        raise KeyError(f"support ids not in the clause set: {sorted(unknown)}")
    return support


def _clause_distances(graph: RelevanceGraph, support: frozenset[int],
                      node_distance: dict[int, int]) -> dict[int, float]:
    best_in: dict[int, int] = {}
    for i, (cid, _) in enumerate(graph.occurrences):
        node = graph.in_node(i)
        if node in node_distance:
            d = node_distance[node]
            if cid not in best_in or d < best_in[cid]:
                best_in[cid] = d
    out: dict[int, float] = {}
    for c in graph.clause_set.clauses:
        if c.id in support:
            out[c.id] = 1
        elif c.id in best_in:
            # the in-node level counts clauses entered after the support
            # clause, so the connection contains one more clause than that
            out[c.id] = 1 + best_in[c.id]
        else:
            out[c.id] = INF
    return out


def bfs_from_support(graph: RelevanceGraph, support_ids) -> DistanceMap:
    """Distances of every clause from the support set.

    0/1-weighted search from the support clauses' out-nodes: an edge into an
    in-node costs one step (a clause is entered), edges within a clause or
    through a hub cost nothing.  A node's distance is therefore the number of
    clauses entered, independent of how each hop happens to be wired.
    """
    support = _check_support(graph.clause_set, support_ids)
    occ_nodes = 2 * len(graph.occurrences)
    node_distance: dict[int, int] = {}
    node_parent: dict[int, int] = {}
    queue: deque[int] = deque()
    for i, (cid, _) in enumerate(graph.occurrences):
        if cid in support:
            node = graph.out_node(i)
            node_distance[node] = 0
            queue.append(node)
    while queue:
        node = queue.popleft()
        d = node_distance[node]
        for succ in graph.adjacency[node]:
            w = 1 if succ < occ_nodes and succ % 2 == 0 else 0
            if succ not in node_distance or d + w < node_distance[succ]:
                node_distance[succ] = d + w
                node_parent[succ] = node
                if w:
                    queue.append(succ)
                else:
                    queue.appendleft(succ)
    return DistanceMap(
        graph,
        support,
        _clause_distances(graph, support, node_distance),
        node_distance,
        node_parent,
    )


def relevance_distance(cs: ClauseSet, from_id: int, to_id: int,
                       mode: str = FIRST_ORDER) -> float:
    """Shortest connection length between two clauses (1 when identical)."""
    graph = build_graph(cs, mode)
    return bfs_from_support(graph, [from_id]).distance(to_id)


def relevant_set(cs: ClauseSet, support_ids, n: int, mode: str = FIRST_ORDER,
                 dmap: DistanceMap | None = None) -> ClauseSet:
    """The sub-collection of clauses within relevance distance n of the
    support set (ids preserved)."""
    if n < 1:
        raise ValueError("relevance level must be >= 1")
    if dmap is None:
        dmap = bfs_from_support(build_graph(cs, mode), support_ids)
    return cs.subset(dmap.relevant_ids(n))


# ---------------------------------------------------------------------------
# Bounded construction


def bounded_build_and_search(cs: ClauseSet, support_ids, k: int,
                             mode: str = FIRST_ORDER) -> DistanceMap:
    """Distances up to level k without materializing the whole graph.

    Unification tests run lazily as the frontier expands, and nothing is
    expanded past nodes that already sit k-1 clause entries deep, so the
    cost scales with the size of the neighborhood rather than the clause
    set.  Distances beyond k are reported as INF.  The returned map records
    how many nodes were touched in ``nodes_materialized``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == PROPOSITIONAL_HUB and not cs.is_ground():
        raise ValueError("propositional_hub mode requires a variable-free clause set")
    support = _check_support(cs, support_ids)
    if k < 1:
        raise ValueError("relevance level must be >= 1")
    occs = _occurrence_list(cs)
    graph = RelevanceGraph(cs, mode, occs, [])  # adjacency left empty: lazy
    partners = _Partners(occs)
    occs_by_clause: dict[int, list[int]] = {}
    for i, (cid, _) in enumerate(occs):
        occs_by_clause.setdefault(cid, []).append(i)

    hub_base = 2 * len(occs)
    hub_of: dict[Literal, int] = graph.hub_ids
    hub_lits: list[Literal] = []

    def successors(node: int):
        if node >= hub_base:  # hub for a signed literal: feed complements
            for j in partners.bucket(hub_lits[node - hub_base]):
                yield graph.in_node(j)
            return
        occ = node // 2
        cid, lit = occs[occ]
        if node % 2 == 1:  # out-node
            if mode == PROPOSITIONAL_HUB:
                if partners.bucket(lit):
                    if lit not in hub_of:
                        hub_of[lit] = hub_base + len(hub_of)
                        hub_lits.append(lit)
                    yield hub_of[lit]
            else:
                for j in partners.of(occ):
                    yield graph.in_node(j)
        else:  # in-node: switch to the clause's other literals
            for j in occs_by_clause[cid]:
                if j != occ:
                    yield graph.out_node(j)

    node_distance: dict[int, int] = {}
    node_parent: dict[int, int] = {}
    queue: deque[int] = deque()
    for i, (cid, _) in enumerate(occs):
        if cid in support:
            node = graph.out_node(i)
            node_distance[node] = 0
            queue.append(node)
    while queue:
        node = queue.popleft()
        d = node_distance[node]
        if d >= k - 1:
            # in-nodes this deep belong to level-k clauses and anything
            # reached from here would lie beyond the bound
            continue
        for succ in successors(node):
            w = 1 if succ < hub_base and succ % 2 == 0 else 0
            if succ not in node_distance or d + w < node_distance[succ]:
                node_distance[succ] = d + w
                node_parent[succ] = node
                if w:
                    queue.append(succ)
                else:
                    queue.appendleft(succ)
    dmap = DistanceMap(
        graph,
        support,
        _clause_distances(graph, support, node_distance),
        node_distance,
        node_parent,
        bound=k,
        nodes_materialized=len(node_distance),
    )
    return dmap


# ---------------------------------------------------------------------------
# Purity


def purity_filter(cs: ClauseSet) -> ClauseSet:
    """Repeatedly delete clauses containing a literal with no
    complementary-unifiable partner among the remaining clauses.

    Ids of surviving clauses are preserved.  The result is the greatest
    fixpoint: every literal of every surviving clause has a live partner.
    """
    occs = _occurrence_list(cs)
    index = _Partners(occs)
    # the partner relation is symmetric, so partners[i] also lists the
    # occurrences that lose a partner when occurrence i dies
    partners = [index.of(i) for i in range(len(occs))]
    partner_count = [len(p) for p in partners]
    occs_by_clause: dict[int, list[int]] = {}
    for i, (cid, _) in enumerate(occs):
        occs_by_clause.setdefault(cid, []).append(i)

    alive = {c.id for c in cs.clauses}
    worklist = deque(
        cid
        for cid in alive
        if any(partner_count[i] == 0 for i in occs_by_clause.get(cid, []))
    )
    dead: set[int] = set()
    while worklist:
        cid = worklist.popleft()
        if cid in dead:
            continue
        dead.add(cid)
        alive.discard(cid)
        for i in occs_by_clause.get(cid, []):
            for watcher in partners[i]:
                partner_count[watcher] -= 1
                wcid = occs[watcher][0]
                if (
                    wcid in alive
                    and partner_count[watcher] == 0
                ):
                    worklist.append(wcid)
    return cs.subset([c.id for c in cs.clauses if c.id in alive])


# ---------------------------------------------------------------------------
# Several support sets at once


def multi_support_intersection(cs: ClauseSet, supports, n: int,
                               mode: str = FIRST_ORDER) -> ClauseSet:
    """Clauses within distance n of every one of several support sets."""
    supports = list(supports)
    if not supports:
        raise ValueError("need at least one support set")
    if n < 1:
        raise ValueError("relevance level must be >= 1")
    graph = build_graph(cs, mode)
    keep: set[int] | None = None
    for support in supports:
        support = _check_support(cs, support)
        if not support:
            raise ValueError("each support set must be nonempty")
        ids = set(bfs_from_support(graph, support).relevant_ids(n))
        keep = ids if keep is None else (keep & ids)
    assert keep is not None
    return cs.subset([c.id for c in cs.clauses if c.id in keep])
