import hashlib
import random

import pytest

import altpath.graph
from altpath.cli import resolve_support
from altpath.clauses import App, ClauseSet, Literal, Var, complementary_unifiable
from altpath.generators import (
    bounded_occurrence,
    fan_fixture,
    random_3sat,
    random_first_order,
    random_ground,
)
from altpath.graph import (
    FIRST_ORDER,
    INF,
    PROPOSITIONAL_HUB,
    AlternatingPath,
    bfs_from_support,
    build_graph,
    check_alternating_path,
    purity_filter,
)
from altpath.parsing import parse_dimacs, parse_tptp, print_dimacs, print_tptp
from altpath.splitting import binary_split_plan, split_clause

from oracles import brute_distances, reference_adjacency, reference_bfs, reference_witness


def lit(s: str) -> Literal:
    if s.startswith("~"):
        return Literal(False, s[1:])
    return Literal(True, s)


def ground_set(*rows: str) -> ClauseSet:
    groups = [[lit(tok) for tok in row.split()] for row in rows]
    return ClauseSet.from_groups(groups)


# four clauses over p/q/r atoms, used by the path checker tests
WORKED = ground_set(
    "p1 p2 p3",
    "~p1 q1 q2",
    "~q1 ~r1 ~r2",
    "p1 ~r1 ~r2",
)


def test_valid_path_accepted():
    path = AlternatingPath(
        (1, 2, 3),
        ((lit("p1"), lit("~p1")), (lit("q1"), lit("~q1"))),
    )
    check_alternating_path(WORKED, path)
    assert path.length == 3
    assert str(path) == "c1 -[p1 ~ ~p1]-> c2 -[q1 ~ ~q1]-> c3"


def test_path_rejected_when_exit_equals_entry():
    # enters clause 2 through ~p1 and tries to leave through it again
    path = AlternatingPath(
        (1, 2, 4),
        ((lit("p1"), lit("~p1")), (lit("~p1"), lit("p1"))),
    )
    with pytest.raises(ValueError, match="entered through"):
        check_alternating_path(WORKED, path)


def test_path_rejected_on_non_complementary_link():
    path = AlternatingPath((1, 2), ((lit("p1"), lit("q1")),))
    with pytest.raises(ValueError, match="complement"):
        check_alternating_path(WORKED, path)


def test_path_rejected_on_foreign_literal():
    path = AlternatingPath((1, 2), ((lit("p9"), lit("~p1")),))
    with pytest.raises(ValueError, match="not in clause"):
        check_alternating_path(WORKED, path)


def test_single_clause_path():
    check_alternating_path(WORKED, AlternatingPath((4,), ()))
    with pytest.raises(ValueError):
        check_alternating_path(WORKED, AlternatingPath((), ()))


def test_distance_chain():
    cs = ground_set("p", "~p q", "~q", "s")
    dmap = bfs_from_support(build_graph(cs), [1])
    assert [dmap.distance(i) for i in (1, 2, 3, 4)] == [1, 2, 3, INF]


def test_unit_clause_blocks_continuation():
    # entering a unit clause uses up its only literal, so nothing lies beyond
    cs = ground_set("p", "~p", "~p")
    dmap = bfs_from_support(build_graph(cs), [2])
    assert dmap.distance(2) == 1
    assert dmap.distance(1) == 2
    assert dmap.distance(3) == INF


def test_first_order_chain():
    x = Var("X")
    cs = ClauseSet.from_groups([
        [Literal(True, "p", (App("a"),))],
        [Literal(False, "p", (x,)), Literal(True, "p", (App("f", (x,)),))],
        [Literal(False, "p", (App("f", (App("f", (x,)),)),))],
    ])
    dmap = bfs_from_support(build_graph(cs), [1])
    assert [dmap.distance(i) for i in (1, 2, 3)] == [1, 2, 3]


def test_support_pinned_to_one():
    cs = ground_set("p", "~p q", "p ~q")
    dmap = bfs_from_support(build_graph(cs), [1, 3])
    assert dmap.distance(3) == 1


@pytest.mark.parametrize("seed", range(12))
def test_matches_oracle_on_random_ground_sets(seed):
    rng = random.Random(seed)
    cs = random_ground(rng, n_atoms=6, n_clauses=14, max_width=3)
    support = [cs.clauses[0].id, cs.clauses[1].id]
    expected = brute_distances(cs, support)
    graph = build_graph(cs)
    dmap = bfs_from_support(graph, support)
    assert dmap.clause_distance == expected


@pytest.mark.parametrize("seed", range(8))
def test_matches_oracle_on_random_first_order_sets(seed):
    rng = random.Random(100 + seed)
    cs = random_first_order(rng, n_clauses=10)
    support = [cs.clauses[0].id]
    expected = brute_distances(cs, support)
    dmap = bfs_from_support(build_graph(cs), support)
    assert dmap.clause_distance == expected


@pytest.mark.parametrize("seed", range(8))
def test_hub_mode_agrees_with_pairwise_mode(seed):
    rng = random.Random(200 + seed)
    cs = random_ground(rng, n_atoms=5, n_clauses=16, max_width=3)
    support = [cs.clauses[0].id]
    a = bfs_from_support(build_graph(cs, FIRST_ORDER), support)
    b = bfs_from_support(build_graph(cs, PROPOSITIONAL_HUB), support)
    assert a.clause_distance == b.clause_distance


def test_unknown_support_ids_raise_value_error():
    cs = ground_set("p", "~p")
    with pytest.raises(ValueError, match="support id 9 not in the clause set"):
        bfs_from_support(build_graph(cs), [1, 9])


def test_hub_mode_refuses_variables():
    cs = ClauseSet.from_groups([[Literal(True, "p", (Var("X"),))]])
    with pytest.raises(ValueError, match="variable-free"):
        build_graph(cs, PROPOSITIONAL_HUB)


def test_hub_mode_edge_budget_on_fan():
    # m positive and p negative copies of one atom: pairwise linking costs
    # 2 m p edges where shared hubs cost 2 (m + p)
    cs = fan_fixture(3, 4)
    assert build_graph(cs, FIRST_ORDER).edge_count == 2 * 3 * 4
    assert build_graph(cs, PROPOSITIONAL_HUB).edge_count == 2 * (3 + 4)


def test_hubs_created_only_where_they_save_edges():
    # p: 2 positive and 3 negative occurrences, the hub pair saves edges;
    # q: one occurrence per sign, direct pairing is cheaper; r: single
    # polarity, nothing to link at all
    cs = ground_set("p q", "p ~q", "~p", "~p", "~p r")
    hub = build_graph(cs, PROPOSITIONAL_HUB)
    assert hub.node_count - 2 * sum(map(len, cs.clauses)) == 2  # one hub pair, for p
    assert hub.edge_count == 6 + 2 * (2 + 3) + 2
    assert hub.edge_count <= build_graph(cs, FIRST_ORDER).edge_count


def test_sparse_sets_fall_back_to_direct_wiring():
    # every atom has one occurrence per sign: hubs would cost twice as much
    cs = ground_set("p q", "~p", "~q r", "~r")
    hub = build_graph(cs, PROPOSITIONAL_HUB)
    assert hub.node_count - 2 * sum(map(len, cs.clauses)) == 0
    assert hub.edge_count == build_graph(cs, FIRST_ORDER).edge_count


@pytest.mark.parametrize("seed", range(6))
def test_distance_is_symmetric(seed):
    rng = random.Random(300 + seed)
    cs = random_ground(rng, n_atoms=4, n_clauses=8, max_width=2)
    ids = cs.ids()
    c, d = rng.sample(ids, 2)
    graph = build_graph(cs)
    assert bfs_from_support(graph, [c]).distance(d) == bfs_from_support(graph, [d]).distance(c)


def test_witness_paths_are_valid_shortest_connections():
    for seed in range(10):
        rng = random.Random(400 + seed)
        cs = random_ground(rng, n_atoms=6, n_clauses=12, max_width=3)
        support = [cs.clauses[0].id]
        for mode in (FIRST_ORDER, PROPOSITIONAL_HUB):
            dmap = bfs_from_support(build_graph(cs, mode), support)
            for cid in cs.ids():
                d = dmap.distance(cid)
                if d == INF:
                    with pytest.raises(ValueError, match="unreachable"):
                        dmap.witness(cid)
                    continue
                path = dmap.witness(cid)
                check_alternating_path(cs, path)
                assert path.length == d
                assert path.clause_ids[0] in dmap.support
                assert path.clause_ids[-1] == cid


def test_relevant_set_levels():
    cs = ground_set("p", "~p q", "~q r", "~r")
    dmap = bfs_from_support(build_graph(cs), [1])
    assert dmap.relevant_ids(1) == [1]
    assert dmap.relevant_ids(2) == [1, 2]
    sub = cs.subset(dmap.relevant_ids(3))
    assert sub.ids() == [1, 2, 3]
    assert sub.by_id(2) == cs.by_id(2)
    with pytest.raises(ValueError):
        dmap.relevant_ids(0)


def test_bounded_search_matches_truncated_full_search():
    for seed in range(8):
        rng = random.Random(500 + seed)
        cs = random_ground(rng, n_atoms=6, n_clauses=14, max_width=3)
        support = [cs.clauses[0].id]
        full = bfs_from_support(build_graph(cs), support)
        for k in (1, 2, 3, 5):
            part = bfs_from_support(build_graph(cs), support, bound=k)
            for cid in cs.ids():
                want = full.distance(cid)
                assert part.distance(cid) == (want if want <= k else INF)
            assert part.relevant_ids(k) == full.relevant_ids(k)
            with pytest.raises(ValueError, match="bounded"):
                part.relevant_ids(k + 1)


def test_bounded_search_hub_mode():
    cs = ground_set("p", "~p q", "~q r", "~r s", "~s")
    part = bfs_from_support(build_graph(cs, PROPOSITIONAL_HUB), [1], bound=3)
    assert part.relevant_ids(3) == [1, 2, 3]
    assert part.distance(4) == INF


def test_bounded_search_touches_a_sliver_of_a_long_chain():
    n = 10_000
    groups = [[Literal(True, "x1")]]
    for i in range(1, n):
        groups.append([Literal(False, f"x{i}"), Literal(True, f"x{i + 1}")])
    cs = ClauseSet.from_groups(groups)
    part = bfs_from_support(build_graph(cs), [1], bound=4)
    assert part.relevant_ids(4) == [1, 2, 3, 4]
    assert len(part.node_distance) < 20


def test_level_one_is_support_only():
    cs = ground_set("p", "~p q", "~q")
    part = bfs_from_support(build_graph(cs), [1], bound=1)
    assert part.relevant_ids(1) == [1]
    assert part.distance(2) == INF
    assert len(part.node_distance) == 1


def test_purity_filter_cascades_to_empty():
    cs = ground_set("p q", "~p", "r")
    assert purity_filter(build_graph(cs)).ids() == []


def test_purity_filter_keeps_matched_core():
    cs = ground_set("p q", "~p r", "~q", "~r", "s")
    out = purity_filter(build_graph(cs))
    assert out.ids() == [1, 2, 3, 4]
    assert out.by_id(1) == cs.by_id(1)


def test_purity_filter_counts_partners_across_occurrences():
    # ~p in clause 2 keeps p alive even though clause 2 also dies last round
    cs = ground_set("p", "~p z")
    assert purity_filter(build_graph(cs)).ids() == []


def test_purity_filter_first_order():
    x = Var("X")
    cs = ClauseSet.from_groups([
        [Literal(True, "p", (App("a"),))],
        [Literal(False, "p", (x,)), Literal(True, "q", (x,))],
        [Literal(False, "q", (App("b"),))],
        [Literal(True, "r", (x,))],
    ])
    assert purity_filter(build_graph(cs)).ids() == [1, 2, 3]


def _purity_sets():
    """Seeded ground, 3-SAT and first-order sets, some with clauses whose
    every literal has a partner in the whole set and still goes when
    purity cascades; a few clauses in each get a role."""
    rng = random.Random(2100)
    for i in range(36):
        kind = i % 3
        if kind == 0:
            cs = random_ground(rng, n_atoms=rng.randint(3, 7), n_clauses=rng.randint(4, 14))
        elif kind == 1:
            cs = random_3sat(rng, rng.randint(8, 20), rng.randint(6, 24))
        else:
            cs = random_first_order(rng, n_clauses=rng.randint(4, 12))
        roles = {cid: "negated_conjecture" for cid in cs.ids() if rng.random() < 0.3}
        yield ClauseSet.from_clauses(cs.clauses, roles=roles)


def test_search_over_survivors_matches_a_graph_of_the_survivors():
    cascades = 0
    for cs in _purity_sets():
        graph = build_graph(cs)
        survivors = purity_filter(graph)
        assert survivors.ids() == reference_purity(cs)
        live = set(survivors.ids())
        cascades += any(
            c.id not in live and all(graph.partners_of(i) for i in occs)
            for c, occs in zip(cs.clauses, graph.clause_occs))
        if not survivors.clauses:
            continue
        own = build_graph(survivors)
        supports = []
        for spec in ("role:negated_conjecture", "pos", "neg", f"ids:{survivors.ids()[-1]}"):
            try:
                supports.append((resolve_support(survivors, spec, "tptp"), None))
            except ValueError:  # the spec selects no survivor
                pass
        # two --support specs bound each search at the filter's -n
        supports += [(s, 3) for s, _ in supports[:2]]
        for support, bound in supports:
            shared = bfs_from_support(graph, support, bound=bound, survivors=survivors)
            alone = bfs_from_support(own, support, bound=bound)
            assert list(shared.clause_distance.items()) == list(alone.clause_distance.items())
            assert len(shared.node_distance) == len(alone.node_distance)
            for cid, d in alone.clause_distance.items():
                if d < INF:
                    assert shared.witness(cid) == alone.witness(cid)
    assert cascades >= 3


def test_search_over_survivors_refuses_purged_supports():
    # c3 goes for r, yet the whole set's search reaches it through q
    cs = ground_set("p ~q", "~p q", "q r", "~s")
    graph = build_graph(cs)
    survivors = purity_filter(graph)
    assert survivors.ids() == [1, 2]
    with pytest.raises(ValueError, match="support id 3 not in the clause set"):
        bfs_from_support(graph, [3], survivors=survivors)
    assert bfs_from_support(graph, [1]).distance(3) == 2
    dmap = bfs_from_support(graph, [1], survivors=survivors)
    assert dmap.clause_distance == {1: 1, 2: 2}
    assert dmap.to_csv() == "clause_id,distance\n1,1\n2,2\n"
    # the purged clause's nodes were closed off, not reached
    assert {graph.clause_of[node // 2] for node in dmap.node_distance} == {0, 1}
    with pytest.raises(KeyError, match="no clause with id 3"):
        dmap.witness(3)
    with pytest.raises(ValueError, match="not a subset"):
        bfs_from_support(graph, [1], survivors=ground_set("p ~q", "~p q", "q r", "~s", "t"))


def test_distance_csv_format():
    cs = ground_set("p", "~p q", "s")
    dmap = bfs_from_support(build_graph(cs), [1])
    assert dmap.to_csv() == "clause_id,distance\n1,1\n2,2\n3,inf\n"


# ---------------------------------------------------------------------------
# Partner index against a pairwise reference


def assert_counts_match_reference(graph, wired: list[list[int]]) -> None:
    """Edge and node counts against ``wired``, the reference wiring of the
    graph's mode, and in first-order mode each partner list against its
    out-node's edges.  The partner index does not depend on the mode."""
    if graph.mode == FIRST_ORDER:
        for i in range(sum(map(len, graph.clause_set.clauses))):
            assert [2 * j for j in graph.partners_of(i)] == wired[2 * i + 1], f"occurrence {i}"
    assert graph.edge_count == sum(len(out) for out in wired), graph.mode
    assert graph.node_count == len(wired), graph.mode


def reference_purity(cs: ClauseSet) -> list[int]:
    alive = cs.ids()
    while True:
        lits = [l for cid in alive for l in cs.by_id(cid).literals]
        keep = [
            cid for cid in alive
            if all(any(complementary_unifiable(l, m) for m in lits)
                   for l in cs.by_id(cid).literals)
        ]
        if keep == alive:
            return alive
        alive = keep


def _ground_term(rng: random.Random, depth: int) -> App:
    if depth <= 0 or rng.random() < 0.4:
        return App(rng.choice(("a", "b")))
    if rng.random() < 0.7:
        return App("f", (_ground_term(rng, depth - 1),))
    return App("g", (_ground_term(rng, depth - 1), _ground_term(rng, depth - 1)))


def ground_tptp_set(rng: random.Random, n_clauses: int) -> ClauseSet:
    groups = []
    for _ in range(n_clauses):
        lits = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(("p", "q", "r"))
            arity = 2 if pred == "r" else 1
            args = tuple(_ground_term(rng, rng.randint(0, 1)) for _ in range(arity))
            lits.append(Literal(rng.random() < 0.5, pred, args))
        groups.append(lits)
    return ClauseSet.from_groups(groups)


def mixed_set(rng: random.Random, n_clauses: int) -> ClauseSet:
    """Ground TPTP clauses with first-order ones mixed in, among them
    p(a) against ~p(X) and variables restricted to a top symbol."""
    ground = ground_tptp_set(rng, n_clauses).clauses
    loose = random_first_order(rng, n_clauses // 2).clauses
    x = Var("X")
    fixed = [
        [Literal(True, "p", (App("a"),))],
        [Literal(False, "p", (x,)), Literal(True, "q", (x,))],
        [Literal(False, "q", (Var("Y", frozenset({"f"})),))],
        [Literal(True, "q", (App("f", (App("b"),)),)), Literal(False, "p", (App("a"),))],
    ]
    groups = [c.literals for c in ground + loose] + fixed
    rng.shuffle(groups)
    return ClauseSet.from_groups(groups)


def fixed_set() -> ClauseSet:
    """An empty clause, and q(Y) next to q(Y{f}): one variable name, two
    atoms.  ~q(b) and ~q(Y{g}) are partners of q(Y) only, ~q(f(a)) and
    ~q(Y) of both."""
    y, yf, yg = Var("Y"), Var("Y", frozenset({"f"})), Var("Y", frozenset({"g"}))
    return ClauseSet.from_groups([
        [Literal(True, "q", (y,)), Literal(True, "q", (yf,))],
        [Literal(False, "q", (App("b"),)), Literal(True, "r")],
        [],
        [Literal(False, "q", (App("f", (App("a"),)),))],
        [Literal(False, "q", (yg,)), Literal(False, "r")],
        [Literal(False, "q", (y,)), Literal(True, "s")],
    ])


def _families():
    for seed in range(4):
        rng = random.Random(700 + seed)
        yield f"3sat{seed}", random_3sat(rng, 12, 40), True
        yield f"ground{seed}", random_ground(rng, n_atoms=5, n_clauses=18), True
        yield f"tptp{seed}", ground_tptp_set(rng, 40), True
        yield f"fo{seed}", random_first_order(rng, n_clauses=14), False
        yield f"mixed{seed}", mixed_set(rng, 12), False
    yield "fixed", fixed_set(), False


FAMILIES = list(_families())


@pytest.mark.parametrize("name,cs,ground", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_partner_index_matches_pairwise_reference(name, cs, ground):
    assert cs.is_ground() == ground
    modes = (FIRST_ORDER, PROPOSITIONAL_HUB) if ground else (FIRST_ORDER,)
    for mode in modes:
        graph = build_graph(cs, mode)
        assert_counts_match_reference(graph, reference_adjacency(cs, mode))
        support = cs.ids()[:2]
        full = bfs_from_support(graph, support)
        far = int(max(d for d in full.clause_distance.values() if d < INF))
        for k in range(1, far + 2):
            part = bfs_from_support(graph, support, bound=k)
            assert part.clause_distance == {
                cid: d if d <= k else INF for cid, d in full.clause_distance.items()
            }
    assert purity_filter(build_graph(cs)).ids() == reference_purity(cs)


def test_ground_sets_never_call_the_unifier(monkeypatch):
    def boom(l1, l2):
        raise AssertionError(f"unifier called on {l1} and {l2}")

    monkeypatch.setattr(altpath.graph, "complementary_unifiable", boom)
    for _, cs, ground in FAMILIES:
        if not ground:
            continue
        support = cs.ids()[:1]
        for mode in (FIRST_ORDER, PROPOSITIONAL_HUB):
            graph = build_graph(cs, mode)
            graph.edge_count
            bfs_from_support(graph, support)
            bfs_from_support(build_graph(cs, mode), support, bound=4)
        purity_filter(build_graph(cs))
    mixed = next(cs for name, cs, _ in FAMILIES if name.startswith("mixed"))
    with pytest.raises(AssertionError, match="unifier called"):
        build_graph(mixed).edge_count


def test_one_unifier_call_per_distinct_pair(monkeypatch):
    calls = []

    def counted(l1, l2):
        calls.append((l1, l2))
        return complementary_unifiable(l1, l2)

    monkeypatch.setattr(altpath.graph, "complementary_unifiable", counted)
    cs = _one_predicate_pool_set(random.Random(5), 40)
    distinct = list(dict.fromkeys(l for c in cs.clauses for l in c.literals))
    occurrences = sum(len(c) for c in cs.clauses)
    assert len(distinct) < occurrences  # literals do repeat across clauses
    pairs = [
        (l, m)
        for i, l in enumerate(distinct)
        for m in distinct[i + 1:]
        if l.pred == m.pred and l.positive != m.positive
        and not (l.is_ground() and m.is_ground())
    ]
    graph = build_graph(cs)
    assert calls == []  # nothing is unified before the edges are counted
    graph.edge_count
    assert len(calls) == len(pairs)
    assert {frozenset(p) for p in calls} == {frozenset(p) for p in pairs}
    assert_counts_match_reference(graph, reference_adjacency(cs, FIRST_ORDER))


# ---------------------------------------------------------------------------
# Golden first-order graphs


def _one_predicate_pool_set(rng: random.Random, n_clauses: int) -> ClauseSet:
    """Clauses drawn from a small pool of ground and non-ground p/1 and
    r/2 literals, so one literal recurs across clauses; two restricted
    variables with overlapping and disjoint symbol sets are in the pool."""
    x, y = Var("X"), Var("Y")
    a, b = App("a"), App("b")
    pool = [
        Literal(s, "p", (t,))
        for s in (True, False)
        for t in (a, b, App("f", (a,)), x, App("f", (x,)), App("g", (x, y)),
                  App("g", (x, x)), Var("X", frozenset({"a", "f"})),
                  Var("Y", frozenset({"f", "g"})), Var("Z", frozenset({"b"})))
    ]
    pool += [
        Literal(s, "r", args)
        for s in (True, False)
        for args in ((x, x), (a, y), (App("f", (y,)), y), (a, b))
    ]
    groups = [rng.sample(pool, rng.randint(1, 3)) for _ in range(n_clauses)]
    return ClauseSet.from_groups(groups)


def _split_set(rng: random.Random) -> ClauseSet:
    """A random first-order set with two clauses split in binary, which
    leaves restricted variables in the replacement clauses."""
    cs = random_first_order(rng, n_clauses=24)
    for _ in range(2):
        open_ids = [c.id for c in cs.clauses if c.variables()]
        cid = rng.choice(open_ids)
        var = cs.by_id(cid).variables()[0]
        cs = split_clause(cs, binary_split_plan(cs, cid, var))
    return cs


def _golden_families():
    for seed in range(3):
        rng = random.Random(900 + seed)
        yield f"fo{seed}", random_first_order(rng, n_clauses=30)
        yield f"bounded{seed}", bounded_occurrence(rng, 4, 3, 4, 30, first_order=True)
        yield f"pool{seed}", _one_predicate_pool_set(rng, 30)
        yield f"split{seed}", _split_set(rng)


def _golden_digest(cs: ClauseSet, rng: random.Random) -> str:
    graph = build_graph(cs)
    support = rng.sample(cs.ids(), 2)
    full = bfs_from_support(graph, support)
    finite = [cid for cid in cs.ids() if full.distance(cid) < INF]
    far = max(finite, key=full.distance)
    payload = (
        reference_adjacency(cs, FIRST_ORDER),
        support,
        list(full.clause_distance.items()),
        [list(bfs_from_support(graph, support, bound=k).clause_distance.items())
         for k in (2, 3, 4)],
        purity_filter(build_graph(cs)).ids(),
        str(full.witness(far)),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


GOLDEN_FIRST_ORDER = {
    "fo0": "de1098162d00a981f34208a8bd6708df6eaf6e1067ae05cfef3a5f3a78db64e9",
    "fo1": "8aadfdad0d171f6ec42fdfaf99fa945ac4769558867807df283080839fae2c13",
    "fo2": "539fc8d5950cab6a2c639fa0f999b32a4bc61e1ef3e8d302b3804b069f1144f5",
    "bounded0": "066f679d33b1d420aae2bf6aa02f374befa50df6690abe75c65e25f429fceb30",
    "bounded1": "444a24cca748a5692d9e768c4600fbcf48bc96b3feebfaff74d6fa2f766183ad",
    "bounded2": "791659cd81ec67aa24815e8ee7d012e7e4bd5eec95b4836248831e62a21f07aa",
    "pool0": "eb1993323a7a5ae3603a8f6a51d92ad981a8368a227999a6a300f6a77cf722a0",
    "pool1": "5a45af9645ea0694dd9e8657f062ff001783b78768c34c09976d287961f7bbcf",
    "pool2": "1c1fb8b7163f5b2c8b4fd4169035b40a11743d81c9f1293253a543f0278546ad",
    "split0": "3bde355694c8c343e4ee1d0cf7c93d93f015b5ac99c8afa35a5f0aa4a125b2a3",
    "split1": "f8bd3afe9779772e23043ff62ae79b36cab071657ae9535d3c96db88bfe2ee59",
    "split2": "a3d00ed11d73405f9aa7a6ab948a5bc4e54254c31b231d4f00801fb50a9b9f31",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIRST_ORDER))
def test_golden_first_order_graph(name):
    """Adjacency, full and bounded distances, purity and a witness path on
    seeded first-order families, pinned as one digest per set."""
    families = dict(_golden_families())
    rng = random.Random(name)
    assert _golden_digest(families[name], rng) == GOLDEN_FIRST_ORDER[name]


# ---------------------------------------------------------------------------
# The search against the 0-1 BFS over the wired graph


def _differential_sets():
    for name, cs, _ in FAMILIES:
        yield name, cs
    golden = dict(_golden_families())
    for name, cs in golden.items():
        yield f"golden-{name}", cs
    sat = [random_3sat(random.Random(1000 + seed), 40, 170) for seed in range(3)]
    for seed, cs in enumerate(sat):
        yield f"3sat170-{seed}", cs
    # the same sets read back from print: DIMACS ones are born from rows,
    # and a subset of a numbered set reads its rows and literals off its
    # parent, so the search and every witness go through ``literal``
    read = [(f"dimacs-3sat170-{seed}", parse_dimacs(print_dimacs(cs)))
            for seed, cs in enumerate(sat)]
    read += [(f"tptp-{name}", parse_tptp(print_tptp(golden[name]))) for name in ("fo0", "bounded0")]
    for name, cs in read:
        yield name, cs
        cs.rows  # numbered, so the subset is born from its parent's rows
        yield f"{name}-subset", cs.subset(random.Random(name).sample(cs.ids(), 2 * len(cs) // 3))


DIFFERENTIAL = list(_differential_sets())


@pytest.mark.parametrize("name,cs", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_search_matches_reference_bfs(name, cs):
    """Node distances and parents (first-order wiring), clause distances and
    every witness (both wirings), for the full search and for each bound up
    to one past the farthest level.  The node maps match as mappings: their
    order is not part of the result."""
    support = random.Random(name).sample(cs.ids(), 2)
    modes = (FIRST_ORDER, PROPOSITIONAL_HUB) if cs.is_ground() else (FIRST_ORDER,)
    for mode in modes:
        graph = build_graph(cs, mode)
        wired = reference_adjacency(cs, mode)
        assert_counts_match_reference(graph, wired)
        full = bfs_from_support(graph, support).clause_distance
        far = int(max(d for d in full.values() if d < INF))
        for bound in (None, *range(1, far + 2)):
            got = bfs_from_support(graph, support, bound=bound)
            want, nodes, parents = reference_bfs(graph, wired, support, bound)
            assert got.clause_distance == want, (mode, bound)
            if mode == FIRST_ORDER:
                assert got.node_distance == nodes, bound
                assert {n: p for n, p in enumerate(got.parent) if p >= 0} == parents, bound
                # the node distance map holds the reached nodes only
                assert len(got.node_distance) == len(nodes), bound
                occ_nodes = 2 * sum(map(len, cs.clauses))
                unreached = [n for n in range(occ_nodes) if n not in nodes]
                for node in (-1, occ_nodes, "0", *unreached):
                    with pytest.raises(KeyError):
                        got.node_distance[node]
                    assert node not in got.node_distance
            for cid, d in want.items():
                if d < INF:
                    ref = reference_witness(graph, support, nodes, parents, cid)
                    assert str(got.witness(cid)) == str(ref), (mode, bound, cid)


@pytest.mark.parametrize("name,cs", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_search_stopped_at_its_target_gives_the_full_witness(name, cs):
    """Stopped after the level that reaches the target, the search is the
    one bounded at the target's distance: same distances, node view and
    refusals, and the full search's witness."""
    support = random.Random(name).sample(cs.ids(), 2)
    modes = (FIRST_ORDER, PROPOSITIONAL_HUB) if cs.is_ground() else (FIRST_ORDER,)
    for mode in modes:
        graph = build_graph(cs, mode)
        full = bfs_from_support(graph, support)
        for cid, d in full.clause_distance.items():
            if d == INF:
                continue
            early = bfs_from_support(graph, support, target=cid)
            assert early.bound == d, (mode, cid)
            assert early.witness(cid) == full.witness(cid), (mode, cid)
            bounded = bfs_from_support(graph, support, bound=d)
            assert early.clause_distance == bounded.clause_distance, (mode, cid)
            if mode == FIRST_ORDER:
                assert early.node_distance == bounded.node_distance, cid
                assert early.parent == bounded.parent, cid
            with pytest.raises(ValueError, match="bounded search stopped"):
                early.relevant_ids(int(d) + 1)


def test_search_for_an_unreachable_target_runs_to_the_end():
    cs = ground_set("p", "~p q", "~q", "s ~t")
    graph = build_graph(cs)
    dmap = bfs_from_support(graph, [1], target=4)
    assert dmap.bound is None
    assert dmap.clause_distance == bfs_from_support(graph, [1]).clause_distance
    with pytest.raises(ValueError, match="unreachable"):
        dmap.witness(4)
    with pytest.raises(KeyError, match="no clause with id 9"):
        bfs_from_support(graph, [1], target=9)
    # a support clause is its own answer: nothing is expanded
    at_support = bfs_from_support(graph, [1], target=1)
    assert at_support.bound == 1 and at_support.expanded == []
    assert at_support.witness(1) == AlternatingPath((1,), ())


# ---------------------------------------------------------------------------
# Hand-made cases of the search against the 0-1 BFS over the wired graph


def _assert_search_matches_reference(cs, support, survivors=None):
    """Clause distances, node distances, parents and every witness of the
    search over ``cs`` (or its survivors) against ``reference_bfs``, at
    each bound up to one past the farthest level and with none.  A purged
    clause's nodes are cut out of the reference wiring."""
    graph = build_graph(cs)
    wired = reference_adjacency(cs, FIRST_ORDER)
    searched = set(cs.ids() if survivors is None else survivors.ids())
    cut = {node for cid, occs in zip(cs.ids(), graph.clause_occs) if cid not in searched
           for i in occs for node in (2 * i, 2 * i + 1)}
    wired = [[succ for succ in succs if succ not in cut] for succs in wired]
    full = bfs_from_support(graph, support, survivors=survivors).clause_distance
    far = int(max(d for d in full.values() if d < INF))
    for bound in (None, *range(1, far + 2)):
        got = bfs_from_support(graph, support, bound=bound, survivors=survivors)
        want, nodes, parents = reference_bfs(graph, wired, support, bound)
        assert got.clause_distance == {c: d for c, d in want.items() if c in searched}, bound
        assert got.node_distance == nodes, bound
        assert {n: p for n, p in enumerate(got.parent) if p >= 0} == parents, bound
        for cid, d in got.clause_distance.items():
            if d < INF:
                ref = reference_witness(graph, support, nodes, parents, cid)
                assert str(got.witness(cid)) == str(ref), (bound, cid)


def _occurrence(graph, cid, text):
    """The occurrence of the literal written ``text`` in clause cid."""
    literal = graph.clause_set.literal
    return next(i for i in graph.occs_by_clause[cid] if str(literal(graph.lit_of[i])) == text)


def test_second_entry_at_the_bound_switches_nothing():
    # c2 is entered through ~p at depth 1 and through ~q at depth 2, from
    # the q that c3's first switch sets; only that second switch reaches
    # c2's own ~p out-node, so a search bounded at 3 leaves it unreached
    cs = ground_set("p", "~p ~q r", "~p q", "~r")
    graph = build_graph(cs)
    out = 2 * _occurrence(graph, 2, "~p") + 1
    second = 2 * _occurrence(graph, 2, "~q")
    assert bfs_from_support(graph, [1], bound=3).node_distance.get(second) == 2
    assert out not in bfs_from_support(graph, [1], bound=3).node_distance
    deeper = bfs_from_support(graph, [1], bound=4)
    assert (deeper.node_distance[out], deeper.parent[out]) == (2, second)
    for support in cs.ids():
        _assert_search_matches_reference(cs, [support])


def test_first_order_entry_reached_by_two_literals_takes_the_earlier_expansion():
    # p(a) and p(b) both unify with ~p(X) and are expanded at depth 1; c3
    # is switched first, as c1's q1 is expanded before its q2, so p(b) of
    # c3 enters c4 though c2 comes first in clause order
    cs = parse_tptp(
        "cnf(c1, negated_conjecture, (q1 | q2)).\n"
        "cnf(c2, axiom, (~q2 | p(a))).\n"
        "cnf(c3, axiom, (~q1 | p(b))).\n"
        "cnf(c4, axiom, (~p(X) | r)).\n"
        "cnf(c5, axiom, (~r)).\n")
    graph = build_graph(cs)
    dmap = bfs_from_support(graph, [1])
    entry = 2 * _occurrence(graph, 4, "~p(X)")
    assert dmap.node_distance[entry] == 2
    assert dmap.parent[entry] == 2 * _occurrence(graph, 3, "p(b)") + 1
    assert dmap.witness(5).clause_ids == (1, 3, 4, 5)
    for support in cs.ids():
        _assert_search_matches_reference(cs, [support])


def test_clause_holding_a_literal_and_its_complement():
    # c2 holds p and ~p: it is entered through ~p from c1 and through p
    # from c4's ~p, and each switch may leave through the other one
    cs = ground_set("p", "~p p q", "~q", "~p r", "~r s", "~s")
    for support in cs.ids():
        _assert_search_matches_reference(cs, [support])
    for support in ([1, 3], [3, 6]):
        _assert_search_matches_reference(cs, support)


def test_survivors_search_beside_a_purged_shortcut():
    # c2 would take c5 at distance 3, but its z has no partner: among the
    # survivors c5 is reached the long way, through c3 and c4
    cs = ground_set("p", "~p q z", "~p r", "~r q", "~q")
    graph = build_graph(cs)
    survivors = purity_filter(graph)
    assert survivors.ids() == [1, 3, 4, 5]
    assert bfs_from_support(graph, [1]).distance(5) == 3
    dmap = bfs_from_support(graph, [1], survivors=survivors)
    assert dmap.distance(5) == 4
    assert dmap.witness(5).clause_ids == (1, 3, 4, 5)
    for support in survivors.ids():
        _assert_search_matches_reference(cs, [support], survivors)
