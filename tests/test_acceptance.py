"""Acceptance gate for the whole toolkit.

Twelve end-to-end checks, one test each, covering the path checker, the
distance search against brute-force oracles, the structural bounds, both
graph modes, the relevance-restricted solver, the set-of-support prover,
clause splitting and the purity/intersection reductions.  Every random
stream is seeded, so a run always examines the same instances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test additionally prints a one-line summary with measured
numbers (visible under ``-s`` or in failure reports).
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from altpath.clauses import App, Clause, ClauseSet, Literal, Var
from altpath.dpll import (
    dpll,
    dpll_rel,
    support_radius,
)
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
from altpath.resolution import (
    hyper_resolution_levels,
    linear_sequence_from_path,
    sos_refute,
    validate_sequence,
    verify_support_path_property,
)
from altpath.splitting import (
    descendants,
    full_split_plan,
    split_clause,
)
from altpath.cli import main as cli_main
from altpath.parsing import parse_dimacs, print_dimacs

from tests.test_graph import WORKED, ground_set, lit
from tests.test_resolution import goal_tree_11
from tests.test_cli import TREE

from oracles import (
    brute_distances,
    clause_set_sat,
    ground_instances,
    herbrand_terms,
    minimal_unsat_subsets,
    reference_atom_count,
)


def _ok(num: int, msg: str) -> None:
    print(f"[criterion {num:02d}] PASS - {msg}")


# ---------------------------------------------------------------------------
# 1. The path checker on the two hand-worked connections


def test_criterion_01_path_checker_on_worked_connections():
    t0 = time.perf_counter()
    good = AlternatingPath(
        (1, 2, 3),
        ((lit("p1"), lit("~p1")), (lit("q1"), lit("~q1"))),
    )
    # same start, but clause 2 is left through the literal it was entered by
    bad = AlternatingPath(
        (1, 2, 4),
        ((lit("p1"), lit("~p1")), (lit("~p1"), lit("p1"))),
    )
    check_alternating_path(WORKED, good)
    assert good.length == 3
    with pytest.raises(ValueError, match="entered through"):
        check_alternating_path(WORKED, bad)
    # every hop of the rejected variant is locally fine: the failure is the
    # alternation condition alone, so a reversed two-hop prefix still passes
    prefix = AlternatingPath((1, 2), ((lit("p1"), lit("~p1")),))
    check_alternating_path(WORKED, prefix)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"worked connection accepted, entry-literal reuse rejected ({elapsed * 1000:.1f} ms)")


# ---------------------------------------------------------------------------
# 2. Graph search distances == brute-force path enumeration


def test_criterion_02_distances_match_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(201)
    ground_checked = 0
    for _ in range(1000):
        cs = random_ground(
            rng,
            n_atoms=rng.randint(2, 5),
            n_clauses=rng.randint(2, 8),
            max_width=3,
        )
        ids = cs.ids()
        support = rng.sample(ids, rng.randint(1, min(2, len(ids))))
        dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), support)
        assert dmap.clause_distance == brute_distances(cs, support)
        ground_checked += 1
    fo_checked = 0
    for _ in range(200):
        cs = random_first_order(rng, n_clauses=rng.randint(2, 6))
        ids = cs.ids()
        support = rng.sample(ids, rng.randint(1, min(2, len(ids))))
        dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), support)
        assert dmap.clause_distance == brute_distances(cs, support)
        fo_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(2, f"{ground_checked} ground + {fo_checked} first-order sets match the oracle ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 3. Connected sets: every pair within distance 2n-2


def test_criterion_03_pair_distance_bound_on_connected_sets():
    rng = random.Random(301)
    trials = 1000
    connected = 0
    worst = 0
    for _ in range(trials):
        cs = random_ground(
            rng,
            n_atoms=rng.randint(2, 4),
            n_clauses=rng.randint(2, 8),
            max_width=3,
        )
        n = len(cs.clauses)
        ids = cs.ids()
        graph = build_graph(cs, FIRST_ORDER)
        maps = {cid: bfs_from_support(graph, [cid]) for cid in ids}
        if any(maps[s].distance(t) == INF for s in ids for t in ids):
            continue
        connected += 1
        top = max(int(maps[s].distance(t)) for s in ids for t in ids if s != t)
        assert top <= 2 * n - 2, f"pair distance {top} in a {n}-clause set beats {2 * n - 2}"
        worst = max(worst, top)
    assert connected >= 200  # the bound must not pass vacuously
    _ok(3, f"{connected}/{trials} sets connected, worst pair distance {worst}, zero violations")


# ---------------------------------------------------------------------------
# 4. Minimal unsatisfiable cores are relevance connected


def test_criterion_04_minimal_unsat_cores_connected():
    rng = random.Random(401)
    sets_checked = 0
    cores_checked = 0
    largest = 0
    while sets_checked < 300:
        cs = random_ground(
            rng,
            n_atoms=rng.randint(2, 3),
            n_clauses=rng.randint(4, 7),
            max_width=3,
            allow_tautologies=False,
        )
        if clause_set_sat(cs):
            continue
        sets_checked += 1
        for core in minimal_unsat_subsets(cs):
            sub = cs.subset(core)
            graph = build_graph(sub, FIRST_ORDER)
            for cid in core:
                dmap = bfs_from_support(graph, [cid])
                assert all(dmap.distance(other) < INF for other in core)
            cores_checked += 1
            largest = max(largest, len(core))
    assert cores_checked >= 300
    _ok(4, f"{cores_checked} minimal cores from {sets_checked} unsat sets all connected (largest core {largest})")


# ---------------------------------------------------------------------------
# 5. Shared-atom-node graph: same distances, never more edges


def test_criterion_05_hub_graph_distances_and_edge_savings():
    rng = random.Random(501)
    for _ in range(500):
        cs = random_ground(rng, n_atoms=rng.randint(1, 6), n_clauses=rng.randint(2, 12))
        ids = cs.ids()
        support = rng.sample(ids, rng.randint(1, 2))
        direct = build_graph(cs, FIRST_ORDER)
        hub = build_graph(cs, PROPOSITIONAL_HUB)
        assert (
            bfs_from_support(hub, support).clause_distance
            == bfs_from_support(direct, support).clause_distance
        )
        assert hub.edge_count <= direct.edge_count
    fan = fan_fixture(50, 50)
    direct_edges = build_graph(fan, FIRST_ORDER).edge_count
    hub_edges = build_graph(fan, PROPOSITIONAL_HUB).edge_count
    ratio = direct_edges / hub_edges
    assert ratio >= 10.0
    _ok(5, f"500 sets agree in both modes; 50x50 fan: {direct_edges} vs {hub_edges} edges ({ratio:.0f}x)")


# ---------------------------------------------------------------------------
# 6. Neighborhood growth bound for occurrence/width-capped sets


def test_criterion_06_neighborhood_growth_bound():
    rng = random.Random(601)
    cases = 0
    tightest = 0.0
    for b in (2, 3):
        for k in (2, 3):
            done = 0
            while done < 25:
                cs = bounded_occurrence(
                    rng,
                    b=b,
                    k=k,
                    n_preds=rng.randint(6, 14),
                    n_clauses=rng.randint(8, 30),
                )
                if len(cs.clauses) < 2:
                    continue
                ids = cs.ids()
                support = rng.sample(ids, rng.randint(1, 2))
                m = len(support)
                dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), support)
                for n in (2, 3, 4):
                    cap = 2 * m * (b ** (n - 1)) * k * ((k - 1) ** (n - 2))
                    size = len(dmap.relevant_ids(n))
                    assert size <= cap, f"|R_{n}| = {size} beats {cap} at b={b} k={k} m={m}"
                    tightest = max(tightest, size / cap)
                done += 1
                cases += 1
    assert cases == 100
    _ok(6, f"{cases} capped instances, levels 2..4 within budget (tightest fill {tightest:.0%})")


# ---------------------------------------------------------------------------
# 7. Relevance-restricted solving agrees with plain DPLL


def _two_atom_clause_space() -> list[list[Literal]]:
    space = []
    for s1 in (True, False, None):
        for s2 in (True, False, None):
            lits = []
            if s1 is not None:
                lits.append(Literal(s1, "1"))
            if s2 is not None:
                lits.append(Literal(s2, "2"))
            if lits:
                space.append(lits)
    return space


def test_criterion_07_fallback_solver_matches_plain_dpll():
    t0 = time.perf_counter()
    space = _two_atom_clause_space()
    assert len(space) == 8
    exhaustive_pairs = 0
    trusted_pairs = 0
    # every nonempty subset of the tautology-free two-atom clause space,
    # under every single-clause support
    for mask in range(1, 1 << 8):
        groups = [space[i] for i in range(8) if mask >> i & 1]
        cs = ClauseSet.from_groups(groups)
        plain = dpll(cs).verdict
        assert plain == ("sat" if clause_set_sat(cs) else "unsat")
        for c in cs.clauses:
            assert dpll_rel(cs, [c.id], mode="fallback").verdict == plain
            exhaustive_pairs += 1
            rest = cs.subset([o.id for o in cs.clauses if o.id != c.id])
            if not rest.clauses or clause_set_sat(rest):
                assert dpll_rel(cs, [c.id], mode="trusted").verdict == plain
                trusted_pairs += 1
    # sampled subsets of the three- and four-atom clause spaces
    rng = random.Random(701)
    sampled = 0
    for _ in range(300):
        cs = random_ground(
            rng,
            n_atoms=rng.choice((3, 4)),
            n_clauses=rng.randint(2, 12),
            max_width=4,
        )
        support = [rng.choice(cs.ids())]
        plain = dpll(cs).verdict
        assert plain == ("sat" if clause_set_sat(cs) else "unsat")
        assert dpll_rel(cs, support, mode="fallback").verdict == plain
        rest = cs.subset([o for o in cs.ids() if o != support[0]])
        if not rest.clauses or clause_set_sat(rest):
            assert dpll_rel(cs, support, mode="trusted").verdict == plain
            trusted_pairs += 1
        sampled += 1
    # random 3-SAT at 30 variables; the plain solver doubles as the oracle
    # for the rest-satisfiable premise of the trusted mode
    threesat = 0
    threesat_trusted = 0
    for _ in range(2000):
        cs = random_3sat(rng, 30, 120)
        support = [rng.choice(cs.ids())]
        plain = dpll(cs).verdict
        assert dpll_rel(cs, support, mode="fallback").verdict == plain
        rest = cs.subset([o for o in cs.ids() if o != support[0]])
        if dpll(rest).verdict == "sat":
            assert dpll_rel(cs, support, mode="trusted").verdict == plain
            threesat_trusted += 1
        threesat += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(
        7,
        f"{exhaustive_pairs} exhaustive + {sampled} sampled + {threesat} 3-SAT agreements, "
        f"{trusted_pairs + threesat_trusted} trusted checks ({elapsed:.1f} s)",
    )


# ---------------------------------------------------------------------------
# 8. Call budget: 2^(atoms of the support neighborhood)


def _unsat_with_valid_support(rng: random.Random, n_atoms: int, n_clauses: int):
    """An unsat set whose first clause is a support such that the rest is
    satisfiable, i.e. every unsat subset meets the support."""
    while True:
        cs = random_ground(
            rng,
            n_atoms=n_atoms,
            n_clauses=n_clauses,
            max_width=3,
            allow_tautologies=False,
        )
        if clause_set_sat(cs):
            continue
        sid = cs.ids()[0]
        if clause_set_sat(cs.subset(cs.ids()[1:])):
            return cs, sid


def _neighborhood_atoms(cs: ClauseSet, sid: int) -> int:
    """Atoms of the clauses within the support radius of [sid], which must
    be finite."""
    radius = support_radius(cs, [sid])
    assert radius < INF
    dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), [sid])
    return reference_atom_count(cs.subset(dmap.relevant_ids(int(radius))))


def test_criterion_08_call_budget_in_neighborhood_atoms():
    rng = random.Random(801)
    worst_fill = 0.0
    for _ in range(200):
        cs, sid = _unsat_with_valid_support(
            rng, n_atoms=rng.randint(3, 5), n_clauses=rng.randint(6, 16)
        )
        k = _neighborhood_atoms(cs, sid)
        res = dpll_rel(cs, [sid], mode="fallback")
        assert res.verdict == "unsat"
        assert res.stats.calls <= 2 ** k
        assert res.stats.fallback_calls == 0
        worst_fill = max(worst_fill, res.stats.calls / 2 ** k)
    # crafted instance: 10 atoms reachable from the support, 40 atoms in a
    # satisfiable implication chain sharing nothing with them.  A plain
    # exhaustive split over all 50 atoms has a 2^50 worst case; the
    # restricted solver must stay within 2^10.
    # crafted instance: the support clause forces its way down a y-chain to
    # x1, where all eight sign patterns over x2..x4 wait; the contradiction
    # only closes at the deepest level, so the neighborhood spans all ten
    # x/y atoms, while a 40-atom implication chain shares nothing with them
    groups = [[Literal(False, "y1")]]
    for i in range(2, 7):
        groups.append([Literal(True, f"y{i - 1}"), Literal(False, f"y{i}")])
    groups.append([Literal(True, "y6"), Literal(True, "x1")])
    for bits in itertools.product((True, False), repeat=3):
        groups.append(
            [Literal(False, "x1")] + [Literal(s, f"x{i + 2}") for i, s in enumerate(bits)]
        )
    groups.append([Literal(True, "t1")])
    for i in range(1, 40):
        groups.append([Literal(False, f"t{i}"), Literal(True, f"t{i + 1}")])
    combined = ClauseSet.from_groups(groups)
    sid = combined.ids()[0]
    assert dpll(combined.subset(combined.ids()[1:])).verdict == "sat"  # valid support
    assert reference_atom_count(combined) == 50
    assert _neighborhood_atoms(combined, sid) == 10
    res = dpll_rel(combined, [sid], mode="fallback")
    assert res.verdict == "unsat"
    assert 4 <= res.stats.calls <= 2 ** 10  # real branching, but confined
    assert res.stats.fallback_calls == 0
    _ok(
        8,
        f"200 instances within 2^k (worst fill {worst_fill:.0%}); 50-atom crafted set "
        f"decided in {res.stats.calls} calls <= 1024 against a 2^50 exhaustive budget",
    )


# ---------------------------------------------------------------------------
# 9. Refutations respect distances; paths yield linear sequences


def test_criterion_09_refutations_and_path_sequences():
    rng = random.Random(901)
    refuted = 0
    while refuted < 300:
        cs = random_ground(
            rng,
            n_atoms=rng.randint(2, 4),
            n_clauses=rng.randint(3, 9),
            max_width=3,
            allow_tautologies=False,
        )
        if clause_set_sat(cs):
            continue
        # all-negative clauses are a valid support for any tautology-free
        # unsat set: the all-true interpretation falsifies one of them
        support = [c.id for c in cs.clauses if all(not l.positive for l in c.literals)]
        assert support
        res = sos_refute(cs, support)
        assert res.status == "refuted"
        assert verify_support_path_property(res.sequence, cs, support)
        refuted += 1
    # converse direction: a connection of length n unrolls into a linear
    # sequence of exactly 2n-1 entries ending in the connected clause
    rng2 = random.Random(902)
    paths_checked = 0
    for _ in range(100):
        cs = random_ground(
            rng2,
            n_atoms=rng2.randint(2, 4),
            n_clauses=rng2.randint(2, 6),
            max_width=3,
        )
        support = [rng2.choice(cs.ids())]
        dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), support)
        for cid in cs.ids():
            n = dmap.distance(cid)
            if n == INF:
                continue
            seq = linear_sequence_from_path(cs, dmap.witness(cid), support)
            validate_sequence(seq, cs, support)
            assert len(seq) == 2 * int(n) - 1
            inputs = [e.clause.id for e in seq.entries if e.is_input]
            assert inputs[-1] == cid
            paths_checked += 1
    assert paths_checked >= 100
    _ok(9, f"{refuted} refutations pass the distance check; {paths_checked} witnesses unroll to 2n-1 entries")


# ---------------------------------------------------------------------------
# 10. The eleven-clause goal tree: prover, forward chaining, staged deepening


def test_criterion_10_goal_tree_benchmarks(tmp_path, capsys):
    cs = goal_tree_11()
    res = sos_refute(cs, [1])
    assert res.status == "refuted"
    count = res.sequence.resolution_count
    assert count <= 10
    assert res.sequence.entries[-1].clause.is_empty
    assert hyper_resolution_levels(cs) == 3
    tree_file = tmp_path / "tree.p"
    tree_file.write_text(TREE)
    code = cli_main(["deepen", str(tree_file)])
    out = capsys.readouterr().out
    assert code == 20
    assert "c unsat at level 4" in out
    assert "support clauses sit at level 1" in out
    assert "s UNSATISFIABLE" in out
    _ok(10, f"refutation with {count} resolution steps, 3 forward-chaining levels, staged run decides at level 4")


# ---------------------------------------------------------------------------
# 11. Splitting: instance sets preserved, satisfiability preserved


def _vocab_clause(rng: random.Random, functions: dict[str, int], var_names: tuple[str, ...]):
    consts = sorted(f for f, arity in functions.items() if arity == 0)
    funcs = sorted((f, arity) for f, arity in functions.items() if arity > 0)

    def term(depth: int):
        roll = rng.random()
        if roll < 0.4:
            return Var(rng.choice(var_names))
        if depth <= 0 or roll < 0.7:
            return App(rng.choice(consts))
        name, arity = rng.choice(funcs)
        return App(name, tuple(term(depth - 1) for _ in range(arity)))

    lits = []
    for _ in range(rng.randint(1, 3)):
        pred, arity = rng.choice((("p", 1), ("q", 2)))
        args = tuple(term(rng.randint(0, 2)) for _ in range(arity))
        lits.append(Literal(rng.random() < 0.5, pred, args))
    return lits


def _tiny_fo(rng: random.Random) -> ClauseSet:
    base = (App("a"), App("b"), Var("X"), Var("Y"))
    terms = list(base) + [App("f", (t,)) for t in base]
    groups = []
    for _ in range(rng.randint(3, 5)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(("p", "q", "r"))
            arity = 2 if pred == "r" else 1
            args = tuple(rng.choice(terms) for _ in range(arity))
            lits.append(Literal(rng.random() < 0.5, pred, args))
        groups.append(lits)
    return ClauseSet.from_groups(groups)


def _grounded_verdict(cs: ClauseSet, universe, depth: int) -> str:
    seen = set()
    clauses = []
    for c in cs.clauses:
        for lits in ground_instances(c, universe, max_depth=depth):
            if lits not in seen:
                seen.add(lits)
                clauses.append(Clause(len(clauses) + 1, tuple(lits)))
    if not clauses:
        return "sat"
    return dpll(ClauseSet.from_clauses(clauses)).verdict


def test_criterion_11_splitting_preserves_instances_and_verdicts():
    rng = random.Random(1101)
    streams = (
        ({"a": 0, "f": 1}, ("X", "Y", "Z"), 120),
        ({"a": 0, "b": 0, "f": 1}, ("X", "Y"), 60),
        ({"a": 0, "f": 1, "g": 2}, ("X",), 20),
    )
    identities = 0
    for functions, var_names, want in streams:
        done = 0
        while done < want:
            cs = ClauseSet.from_groups([_vocab_clause(rng, functions, var_names)])
            target = cs.by_id(1)
            if not target.variables():
                continue
            var = target.variables()[0]
            plan = full_split_plan(cs, 1, var=var.name, extra_constant="a")
            after = split_clause(cs, plan)
            syms = dict(cs.functions)
            syms.setdefault("a", 0)
            universe = herbrand_terms(syms, 3)
            before_set = ground_instances(target, universe, max_depth=3)
            after_set = set()
            for did in descendants(cs, after):
                after_set |= ground_instances(after.by_id(did), universe, max_depth=3)
            assert before_set == after_set
            done += 1
            identities += 1
    assert identities == 200
    preserved = 0
    while preserved < 100:
        cs = _tiny_fo(rng)
        target = next((c for c in cs.clauses if c.variables()), None)
        if target is None:
            continue
        plan = full_split_plan(cs, target.id, var=target.variables()[0].name, extra_constant="a")
        after = split_clause(cs, plan)
        syms = dict(cs.functions)
        syms.setdefault("a", 0)
        universe = herbrand_terms(syms, 2)
        assert _grounded_verdict(cs, universe, 2) == _grounded_verdict(after, universe, 2)
        preserved += 1
    _ok(11, f"{identities} depth-3 instance identities, {preserved} depth-2 grounded verdicts preserved")


# ---------------------------------------------------------------------------
# 12. Purity filtering and two-sided support intersection


def test_criterion_12_purity_and_joint_supports(tmp_path, capsys):
    rng = random.Random(1201)
    removed_any = 0
    for _ in range(500):
        cs = random_ground(rng, n_atoms=rng.randint(1, 5), n_clauses=rng.randint(1, 9))
        filtered = purity_filter(build_graph(cs))
        assert clause_set_sat(filtered) == clause_set_sat(cs)
        if len(filtered.clauses) < len(cs.clauses):
            removed_any += 1
    done = 0
    deepest = 0
    while done < 100:
        cs = random_ground(
            rng,
            n_atoms=rng.randint(2, 4),
            n_clauses=rng.randint(3, 8),
            max_width=3,
            allow_tautologies=False,
        )
        if clause_set_sat(cs):
            continue
        # an unsat tautology-free set always holds an all-positive and an
        # all-negative clause (falsified by all-false resp. all-true), so
        # both polarity supports are nonempty and every unsat subset meets
        # each of them
        pos = [c.id for c in cs.clauses if all(l.positive for l in c.literals)]
        neg = [c.id for c in cs.clauses if all(not l.positive for l in c.literals)]
        assert pos and neg
        graph = build_graph(cs, FIRST_ORDER)
        dpos = bfs_from_support(graph, pos)
        dneg = bfs_from_support(graph, neg)
        cap = max(d for d in (*dpos.clause_distance.values(),
                              *dneg.clause_distance.values()) if d < INF)
        hit = None
        for n in range(1, int(cap) + 1):
            ids = [
                cid
                for cid in cs.ids()
                if dpos.distance(cid) <= n and dneg.distance(cid) <= n
            ]
            if ids and not clause_set_sat(cs.subset(ids)):
                # the program's joint filter keeps exactly these clauses
                path, out = tmp_path / "in.cnf", tmp_path / "out.cnf"
                path.write_text(print_dimacs(cs))
                code = cli_main(["filter", str(path), "-n", str(n),
                                 "--support", "ids:" + ",".join(map(str, pos)),
                                 "--support", "ids:" + ",".join(map(str, neg)),
                                 "-o", str(out)])
                assert code == 0
                capsys.readouterr()
                joint = parse_dimacs(out.read_text())
                assert [str(c) for c in joint] == [str(cs.by_id(cid)) for cid in ids]
                hit = n
                break
        assert hit is not None, "no joint relevance level became unsatisfiable"
        deepest = max(deepest, hit)
        done += 1
    assert removed_any >= 50  # the filter must actually fire on this stream
    _ok(12, f"500 purity-filtered sets keep their verdict ({removed_any} shrank); "
            f"{done} unsat sets go unsat at a joint level <= {deepest}")
