"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exhaustive enumeration and direct
definitions, no shared data structures with the code under test beyond the
basic term/literal types, the solver's config and result records, the
resolution result records, and the graph's occurrence numbering.  The
oracle orders atoms, tells tautologies apart and checks models by its own
definitions, not by the program's sort keys, encoding or result methods.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, replace

from altpath.clauses import (
    App,
    Clause,
    ClauseSet,
    Literal,
    Substitution,
    Term,
    Var,
    complementary_unifiable,
)
from altpath.dpll import SolveResult, SolverConfig, SolveStats
from altpath.graph import FIRST_ORDER, AlternatingPath, RelevanceGraph
from altpath.resolution import (
    LIMIT,
    MAX_KEPT_CLAUSES,
    MAX_LEVELS,
    REFUTED,
    SATURATED,
    ResolutionSequence,
    SequenceEntry,
    SosResult,
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


def is_tautology(clause) -> bool:
    """True when the clause holds some atom with both signs."""
    signs: dict[tuple, set[bool]] = {}
    for lit in clause:
        signs.setdefault((lit.pred, lit.args), set()).add(lit.positive)
    return any(len(s) == 2 for s in signs.values())


def model_satisfies(cs: ClauseSet, model: dict[Literal, bool]) -> bool:
    """True when each clause has a literal the model makes true.  A model
    maps atoms (positive literals) to values and may be partial, so a
    tautology counts as satisfied even when the model leaves its atom out."""
    return all(
        is_tautology(c) or any(model.get(Literal(True, lit.pred, lit.args)) == lit.positive
                               for lit in c)
        for c in cs.clauses
    )


# ---------------------------------------------------------------------------
# Canonical atom order


def _atom_order(atom: Literal):
    # numeric (DIMACS) names by value ahead of all others, other names
    # alphabetically, then the printed arguments
    numeric = atom.pred.isdigit()
    return (not numeric, int(atom.pred) if numeric else 0,
            "" if numeric else atom.pred, [str(a) for a in atom.args])


def reference_atoms(cs: ClauseSet) -> list[Literal]:
    """The atoms of the set, as positive literals, in canonical order; atoms
    the order cannot tell apart keep their order of first occurrence."""
    seen = dict.fromkeys(Literal(True, lit.pred, lit.args) for c in cs.clauses for lit in c)
    return sorted(seen, key=_atom_order)


def reference_rows(cs: ClauseSet, atoms: list[Literal]) -> list[tuple[int, ...]]:
    """Each clause as signed atom numbers, atom i of ``atoms`` being number
    i+1, negated for a negative literal."""
    number = {(atom.pred, atom.args): i for i, atom in enumerate(atoms, 1)}
    return [tuple(number[lit.pred, lit.args] * (1 if lit.positive else -1) for lit in c)
            for c in cs.clauses]


def reference_print_dimacs(cs: ClauseSet) -> str:
    """DIMACS text of a propositional set, read off its clause objects:
    one line per clause, its literals in clause order, then 0."""
    if not all(lit.is_ground() for c in cs.clauses for lit in c):
        raise ValueError("DIMACS output requires a variable-free clause set")
    indices: list[int] = []
    for name, arity in cs.predicates.items():
        if arity != 0 or not name.isdigit():
            raise ValueError(
                f"DIMACS output requires integer-named propositional atoms, got {name!r}"
            )
        indices.append(int(name))
    lines = [f"p cnf {max(indices, default=0)} {len(cs.clauses)}"]
    for clause in cs.clauses:
        ints = [int(l.pred) if l.positive else -int(l.pred) for l in clause.literals]
        lines.append(" ".join(str(i) for i in ints + [0]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Symbol tables


class SymbolConflict(Exception):
    """A symbol used at a second arity, first in the clause with id
    ``clause``."""

    def __init__(self, clause: int):
        super().__init__(f"clause {clause}")
        self.clause = clause


def reference_symbol_tables(clauses, predicates=None, functions=None
                            ) -> tuple[dict[str, int], dict[str, int]]:
    """The predicate and function arity tables, extending copies of the
    given ones: every symbol registered at its first use in a walk over the
    clause objects in clause order, each clause's literals in canonical
    order and each term in pre-order.  SymbolConflict at the first use of
    a symbol at a second arity."""
    predicates, functions = dict(predicates or {}), dict(functions or {})

    def register(table: dict[str, int], name: str, arity: int, cid: int) -> None:
        if table.setdefault(name, arity) != arity:
            raise SymbolConflict(cid)

    def walk(t: Term, cid: int) -> None:
        if isinstance(t, App):
            register(functions, t.functor, len(t.args), cid)
            for a in t.args:
                walk(a, cid)

    for c in clauses:
        for lit in sorted(c.literals, key=lambda l: (not l.positive, _atom_order(l))):
            register(predicates, lit.pred, len(lit.args), c.id)
            for a in lit.args:
                walk(a, c.id)
    return predicates, functions


# ---------------------------------------------------------------------------
# Terms walked from their definition
#
# The program's terms carry their ground flag, text and variables; these
# recursive walks read only the functor, arguments, name and restriction.


def reference_text(t: Term) -> str:
    """A term printed as TPTP does, with a restriction as ``X{a,b}``."""
    if isinstance(t, Var):
        if t.allowed is None:
            return t.name
        return t.name + "{" + ",".join(sorted(t.allowed)) + "}"
    if not t.args:
        return t.functor
    return t.functor + "(" + ",".join(reference_text(a) for a in t.args) + ")"


def reference_vars(terms, acc: list[Var] | None = None) -> list[Var]:
    """The variables of the terms, left to right, the first of each name."""
    acc = [] if acc is None else acc
    for t in terms:
        if isinstance(t, Var):
            if all(v.name != t.name for v in acc):
                acc.append(t)
        else:
            reference_vars(t.args, acc)
    return acc


def substitute(t: Term, subst: Substitution) -> Term:
    if isinstance(t, Var):
        return subst.get(t.name, t)
    return App(t.functor, tuple(substitute(a, subst) for a in t.args))


def substitute_literal(lit: Literal, subst: Substitution) -> Literal:
    return Literal(lit.positive, lit.pred, tuple(substitute(a, subst) for a in lit.args))


# ---------------------------------------------------------------------------
# Complementary unifiability by renaming apart


def _rename_term(t: Term, suffix: str) -> Term:
    if isinstance(t, Var):
        return Var(t.name + suffix, t.allowed)
    return App(t.functor, tuple(_rename_term(a, suffix) for a in t.args))


def _occurs_in(name: str, t: Term) -> bool:
    if isinstance(t, Var):
        return t.name == name
    return any(_occurs_in(name, a) for a in t.args)


def naive_unifier(ts1: tuple[Term, ...], ts2: tuple[Term, ...]) -> Substitution | None:
    """A unifier of two equal-length term tuples, or None.

    Eager substitution: each binding is applied at once to every pending
    pair and every earlier image, so no binding chain is ever followed and
    the result is idempotent.  Binding a variable to an application needs an
    occurs check, and for a restricted variable a top symbol it allows; two
    restricted variables meet in a fresh variable restricted to the
    intersection of their sets, which fails when empty.  Variables are told
    apart by name only, so the caller renames the two sides apart.
    """
    subst: Substitution = {}
    pending = list(zip(ts1, ts2))
    fresh = itertools.count()

    def bind(name: str, image: Term) -> None:
        one = {name: image}
        for k in subst:
            subst[k] = substitute(subst[k], one)
        pending[:] = [(substitute(l, one), substitute(r, one)) for l, r in pending]
        subst[name] = image

    while pending:
        s, t = pending.pop()
        if isinstance(t, Var) and not isinstance(s, Var):
            s, t = t, s
        if isinstance(s, App):
            if s.functor != t.functor or len(s.args) != len(t.args):
                return None
            pending.extend(zip(s.args, t.args))
        elif isinstance(t, App):
            if s.allowed is not None and t.functor not in s.allowed:
                return None
            if _occurs_in(s.name, t):
                return None
            bind(s.name, t)
        elif s.name == t.name:
            continue
        elif s.allowed is None:
            bind(s.name, t)
        elif t.allowed is None:
            bind(t.name, s)
        else:
            common = s.allowed & t.allowed
            if not common:
                return None
            meet = Var(f"_meet{next(fresh)}", common)
            bind(s.name, meet)
            bind(t.name, meet)
    return subst


def rename_apart(l1: Literal, l2: Literal) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """The two literals' arguments, the variables of each suffixed by side."""
    return (tuple(_rename_term(a, "#1") for a in l1.args),
            tuple(_rename_term(a, "#2") for a in l2.args))


def renamed_apart_unifiable(l1: Literal, l2: Literal) -> bool:
    """True iff the literals have opposite signs and their atoms unify after
    copying each with its variables renamed apart."""
    if l1.positive == l2.positive:
        return False
    if l1.pred != l2.pred or len(l1.args) != len(l2.args):
        return False
    return naive_unifier(*rename_apart(l1, l2)) is not None


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
# The wired graph and a 0-1 BFS over it
#
# The search as it ran before it read the partner index directly: every
# node's successors come from ``reference_adjacency``, hub nodes included,
# and every pop re-expands.


def reference_occurrences(cs: ClauseSet) -> list[tuple[int, Literal]]:
    """(clause id, literal) of each occurrence, in clause/literal order:
    occurrence i owns in-node 2i and out-node 2i+1."""
    return [(c.id, l) for c in cs.clauses for l in c.literals]


def reference_adjacency(cs: ClauseSet, mode: str) -> list[list[int]]:
    """The wiring built from complementary_unifiable on every opposite-sign
    pair: linking edges in ascending occurrence order, hub pairs allocated
    per predicate (in order of its first positive occurrence) and per atom
    (in order of the atom's first positive occurrence), then switching edges."""
    occs = reference_occurrences(cs)
    link = [
        [j for j, (_, m) in enumerate(occs) if m.positive != l.positive
         and complementary_unifiable(l, m)]
        for _, l in occs
    ]
    adj: list[list[int]] = [[] for _ in range(2 * len(occs))]
    if mode == FIRST_ORDER:
        for i, js in enumerate(link):
            adj[2 * i + 1] = [2 * j for j in js]
    else:
        first_positive: dict[str, dict[tuple, None]] = {}
        for _, l in occs:
            if l.positive:
                first_positive.setdefault(l.pred, {}).setdefault(l.args, None)
        for pred, atoms in first_positive.items():
            for args in atoms:
                pos = [i for i, (_, l) in enumerate(occs) if l == Literal(True, pred, args)]
                neg = link[pos[0]]
                if not neg:
                    continue
                if len(pos) * len(neg) <= len(pos) + len(neg):
                    for i in pos:
                        for j in neg:
                            adj[2 * i + 1].append(2 * j)
                            adj[2 * j + 1].append(2 * i)
                    continue
                hub_pos, hub_neg = len(adj), len(adj) + 1
                adj += [[], []]
                for i in pos:
                    adj[2 * i + 1].append(hub_pos)
                    adj[hub_neg].append(2 * i)
                for j in neg:
                    adj[hub_pos].append(2 * j)
                    adj[2 * j + 1].append(hub_neg)
    for c in cs.clauses:
        mine = [i for i, (cid, _) in enumerate(occs) if cid == c.id]
        for i in mine:
            adj[2 * i] += [2 * j + 1 for j in mine if j != i]
    return adj


def reference_bfs(graph: RelevanceGraph, adjacency: list[list[int]], support_ids,
                  bound: int | None = None
                  ) -> tuple[dict[int, float], dict[int, int], dict[int, int]]:
    """(clause distances, node distances, node parents) from the support
    set over ``adjacency``, the graph's ``reference_adjacency``, with nothing
    expanded past depth bound-1 when a bound is given."""
    support = frozenset(support_ids)
    occs = reference_occurrences(graph.clause_set)
    occ_nodes = 2 * len(occs)
    node_distance: dict[int, int] = {}
    node_parent: dict[int, int] = {}
    queue: deque[int] = deque()
    for i, (cid, _) in enumerate(occs):
        if cid in support:
            node_distance[2 * i + 1] = 0
            queue.append(2 * i + 1)
    while queue:
        node = queue.popleft()
        d = node_distance[node]
        if bound is not None and d >= bound - 1:
            continue
        for succ in adjacency[node]:
            w = 1 if succ < occ_nodes and succ % 2 == 0 else 0
            if succ not in node_distance or d + w < node_distance[succ]:
                node_distance[succ] = d + w
                node_parent[succ] = node
                if w:
                    queue.append(succ)
                else:
                    queue.appendleft(succ)
    best_in: dict[int, int] = {}
    for i, (cid, _) in enumerate(occs):
        if 2 * i in node_distance:
            d = node_distance[2 * i]
            if cid not in best_in or d < best_in[cid]:
                best_in[cid] = d
    clause_distance: dict[int, float] = {}
    for c in graph.clause_set.clauses:
        if c.id in support:
            clause_distance[c.id] = 1
        elif c.id in best_in:
            clause_distance[c.id] = 1 + best_in[c.id]
        else:
            clause_distance[c.id] = INF
    return clause_distance, node_distance, node_parent


def reference_witness(graph: RelevanceGraph, support_ids, node_distance: dict[int, int],
                      node_parent: dict[int, int], cid: int) -> AlternatingPath:
    """The connection read off ``reference_bfs``'s parents for a reached
    clause: back from its closest in-node, skipping hub nodes."""
    if cid in support_ids:
        return AlternatingPath((cid,), ())
    occs = reference_occurrences(graph.clause_set)
    best: int | None = None
    for i, (occ_cid, _) in enumerate(occs):
        node = 2 * i
        if occ_cid == cid and node in node_distance:
            if best is None or node_distance[node] < node_distance[best]:
                best = node
    chain = [best]
    while chain[-1] in node_parent:
        chain.append(node_parent[chain[-1]])
    chain.reverse()
    clause_ids: list[int] = []
    links: list[tuple[Literal, Literal]] = []
    pending_exit: Literal | None = None
    for node in chain:
        if node >= 2 * len(occs):
            continue  # hub node
        occ_cid, lit = occs[node // 2]
        if node % 2 == 1:
            if not clause_ids:
                clause_ids.append(occ_cid)
            pending_exit = lit
        else:
            links.append((pending_exit, lit))
            clause_ids.append(occ_cid)
            pending_exit = None
    return AlternatingPath(tuple(clause_ids), tuple(links))


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
    names = [v.name for v in reference_vars((t1,), reference_vars((t2,)))]
    out = []
    for combo in itertools.product(universe, repeat=len(names)):
        sub = dict(zip(names, combo))
        if substitute(t1, sub) == substitute(t2, sub):
            out.append(sub)
    return out


def ground_instances(
    clause: Clause, universe: list[Term], max_depth: int | None = None
) -> set[frozenset[Literal]]:
    """Ground instances of a clause, as literal sets, over the universe.

    Variable restrictions narrow the candidate terms by top symbol.  With
    max_depth set, instances containing any deeper argument term are
    dropped; applying the same cutoff to a clause and to its split
    replacements makes the two instance sets directly comparable.
    """
    variables = reference_vars(a for lit in clause.literals for a in lit.args)
    candidates = [
        [t for t in universe
         if v.allowed is None or (isinstance(t, App) and t.functor in v.allowed)]
        for v in variables
    ]
    out: set[frozenset[Literal]] = set()
    for combo in itertools.product(*candidates):
        subst = {v.name: t for v, t in zip(variables, combo)}
        lits = frozenset(substitute_literal(l, subst) for l in clause.literals)
        if max_depth is not None and any(
            term_depth_of(a) > max_depth for lit in lits for a in lit.args
        ):
            continue
        out.add(lits)
    return out


def instance_sets(
    cs: ClauseSet, ids, universe: list[Term], max_depth: int | None = None
) -> set[frozenset[Literal]]:
    """Union of the clauses' ground instances; the comparison side of the
    same-instances invariant."""
    out: set[frozenset[Literal]] = set()
    for cid in ids:
        out |= ground_instances(cs.by_id(cid), universe, max_depth)
    return out


# ---------------------------------------------------------------------------
# Copy-based splitting search
#
# The solver engine before occurrence lists and an undo trail: every node
# copies the remaining clause list, recounts every literal and scans for
# units.  Its verdict, counters and trail order are the reference for the
# incremental engine of altpath.dpll.  The fallback stays a nested plain
# solve here, apart from the engine's single loop: it draws on what is left
# of the one max_calls budget, and its nodes count even when it runs out.


def _reference_encode(cs: ClauseSet) -> tuple[list[Literal], list[tuple[int, ...]]]:
    atoms = reference_atoms(cs)
    rows = reference_rows(cs, atoms)
    return atoms, [row for c, row in zip(cs.clauses, rows) if not is_tautology(c)]


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
    base = len(trail)
    units_on = cfg.unit_policy != "off"
    all_units = cfg.unit_policy == "all"
    pending: list[tuple[list[tuple[int, ...]], int, int, int]] = []
    prev_size = len(bucket_of) + 1
    node = clauses
    while True:
        stats.calls += 1
        if cfg.max_calls is not None and stats.calls + stats.fallback_calls > cfg.max_calls:
            return "unknown"
        ok = None
        while True:
            if () in node:
                ok = False
                break
            if not node:
                ok = True
                break
            unit = next((cl[0] for cl in node if len(cl) == 1
                         and (all_units or abs(cl[0]) in bucket_of)), None) \
                if units_on else None
            if unit is None:
                break
            trail.append(unit)
            stats.unit_props += 1
            node = _assign(node, unit)
        if ok is None:
            counts = Counter(map(abs, itertools.chain.from_iterable(node)))
            live = [v for v in counts if v in bucket_of]
            if live:
                assert len(live) < prev_size, "restricted sequence must shrink per call"
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
                ok = True
            else:
                # a nested plain solve on what is left of the budget
                sub = SolveStats()
                left = None if cfg.max_calls is None else \
                    cfg.max_calls - stats.calls - stats.fallback_calls
                verdict = _search(node, dict.fromkeys(counts, 0), False,
                                  replace(cfg, unit_policy="all" if units_on else "off",
                                          max_calls=left),
                                  sub, trail)
                stats.fallback_calls += sub.calls
                stats.splits += sub.splits
                stats.unit_props += sub.unit_props
                if verdict == "unknown":
                    return verdict
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


def reference_solve(cs: ClauseSet, config: SolverConfig | None = None,
                    step: tuple[tuple[Literal, ...], ...] | None = None,
                    trusted: bool = False) -> SolveResult:
    """``dpll(cs, config)`` when ``step`` is None, else ``dpll_rel(cs,
    step=step, config=config)`` in trusted or fallback mode, by the
    copy-based search.  The model lists atoms in trail order."""
    atoms, clauses = _reference_encode(cs)
    if step is None:
        bucket_of = dict.fromkeys(range(1, len(atoms) + 1), 0)
    else:
        index = {atom: i + 1 for i, atom in enumerate(atoms)}
        bucket_of = {index[atom]: b for b, bucket in enumerate(step)
                     for atom in bucket if atom in index}
    stats = SolveStats()
    trail: list[int] = []
    verdict = _search(clauses, bucket_of, trusted, config or SolverConfig(), stats, trail)
    model = {atoms[abs(l) - 1]: l > 0 for l in trail} if verdict == "sat" else {}
    return SolveResult(verdict, model, stats)


def reference_support_radius(cs: ClauseSet, clause_distance: dict[int, float]) -> float:
    """The support radius by a linear walk of the levels: the first finite
    distance whose clauses the copy-based search finds unsatisfiable, INF
    when no level is."""
    for n in sorted({d for d in clause_distance.values() if d < INF}):
        level = [c for c in cs.clauses if clause_distance[c.id] <= n]
        if reference_solve(ClauseSet.from_clauses(level)).verdict == "unsat":
            return n
    return INF


# ---------------------------------------------------------------------------
# Stepping sequences and the reachable atom count, literal by literal
#
# The Literal-level versions that altpath.dpll had before it read the
# integer rows of ClauseSet.rows.


def reference_stepping_sequence(cs: ClauseSet,
                                clause_distance: dict[int, float]
                                ) -> tuple[tuple[Literal, ...], ...]:
    """Atoms of the reachable clauses bucketed by the distance of their
    closest clause, each bucket in canonical order."""
    best: dict[Literal, float] = {}
    for c in cs.clauses:
        d = clause_distance[c.id]
        if d == INF:
            continue
        for lit in c.literals:
            atom = lit.atom
            if atom not in best or d < best[atom]:
                best[atom] = d
    if not best:
        return ()
    buckets: list[list[Literal]] = [[] for _ in range(int(max(best.values())))]
    for atom, d in best.items():
        buckets[int(d) - 1].append(atom)
    return tuple(tuple(sorted(b, key=_atom_order)) for b in buckets)


def reference_atom_count(cs: ClauseSet) -> int:
    """Distinct atoms of the clauses: the ``k`` of ``dpll_rel`` when ``cs``
    is the set of support-reachable clauses."""
    return len({lit.atom for c in cs.clauses for lit in c.literals})


# ---------------------------------------------------------------------------
# Trusted verdicts


def partial_model_covers(cs: ClauseSet, result: SolveResult,
                         step: tuple[tuple[Literal, ...], ...]) -> bool:
    """Contract of a trusted satisfiable verdict: each clause is either made
    true by the (possibly partial) model, or what remains of it unassigned
    lies entirely outside the stepping sequence.  A stepping atom may appear
    in an unsatisfied clause only with an assignment that falsified it there;
    that can happen when the clause touches the reachable part through a
    unit clause, which an alternating path cannot be continued through."""
    stepping = {atom for bucket in step for atom in bucket}
    for c in cs.clauses:
        if is_tautology(c):
            continue
        if any(result.model.get(lit.atom) == lit.positive for lit in c.literals):
            continue
        remnant = [lit for lit in c.literals if lit.atom not in result.model]
        if not remnant or any(lit.atom in stepping for lit in remnant):
            return False
    return True


# ---------------------------------------------------------------------------
# Set-of-support saturation over frozensets
#
# The saturation loop of altpath.resolution before it kept one literal bit
# mask per clause: each kept clause is a frozenset of signed atom numbers,
# and every partner pair builds the frozensets of both remainders and their
# union.  Its status, levels, per-level counts and emitted sequences are the
# reference for the mask loop.


# One kept clause of the search: its literals as signed atom indexes, the
# input id or the parent record indexes, the atom resolved on, and whether
# it is supported.
@dataclass
class _Rec:
    fs: frozenset[int]
    cid: int | None
    parents: tuple[int, int] | None
    atom: int | None
    supported: bool


def reference_sos_refute(
    cs: ClauseSet,
    support_ids,
    max_clauses: int = MAX_KEPT_CLAUSES,
    max_levels: int = MAX_LEVELS,
) -> SosResult:
    """``sos_refute`` by the set-based loop: every partner pair builds the
    frozensets of both remainders and of the resolvent."""
    support = cs.check_support(support_ids)
    if not support:
        raise ValueError("sos_refute needs a nonempty support set")
    if not cs.is_ground():
        raise ValueError("resolution search is defined for variable-free clause sets only")
    atoms = reference_atoms(cs)
    rows = reference_rows(cs, atoms)

    records: list[_Rec] = []
    # signed literal -> ascending ids of the records holding it
    occurs: dict[int, list[int]] = {}
    seen: dict[frozenset[int], int] = {}
    frontier: list[int] = []

    def keep(rec: _Rec) -> int:
        idx = len(records)
        records.append(rec)
        for v in rec.fs:
            occurs.setdefault(v, []).append(idx)
        return idx

    for c, row in zip(cs.clauses, rows):
        if len(set(map(abs, row))) < len(row):
            continue  # a tautology, as the solvers drop them
        fs = frozenset(row)
        idx = keep(_Rec(fs, c.id, None, None, c.id in support))
        if records[idx].supported:
            frontier.append(idx)
            seen.setdefault(fs, idx)
        if not fs:
            return SosResult(
                REFUTED, _reference_emit_sequence(cs, atoms, records, idx, support), 0, 0, ()
            )

    if not frontier:  # every support clause is a tautology
        return SosResult(SATURATED, None, 0, 0, ())
    n_inputs = len(records)
    derived = 0
    per_level: list[int] = []
    while frontier and len(per_level) < max_levels:
        per_level.append(0)
        level = len(per_level)
        new_frontier: list[int] = []
        for f_idx in frontier:
            f = records[f_idx]
            # complementary partners below f_idx, and at level 1 the
            # unsupported inputs after it (inputs are not ordered
            # supported-first), visited by record id and then by the
            # position of the literal in f
            pairs: list[tuple[int, int, int]] = []
            for pos, v in enumerate(f.fs):
                ids = occurs.get(-v)
                if not ids:
                    continue
                cut = bisect_left(ids, f_idx)
                pairs += [(g_idx, pos, v) for g_idx in ids[:cut]]
                if level == 1:
                    pairs += [
                        (g_idx, pos, v)
                        for g_idx in ids[cut : bisect_left(ids, n_inputs)]
                        if not records[g_idx].supported
                    ]
            pairs.sort()
            for g_idx, _, v in pairs:
                rest = f.fs - {v}
                other = records[g_idx].fs - {-v}
                # kept records are never tautologies, so a clash can only
                # pair a literal of one parent with one of the other
                if any(-u in rest for u in other):
                    continue  # tautology
                fs_r = rest | other
                if fs_r in seen:
                    continue
                idx = keep(_Rec(fs_r, None, (f_idx, g_idx), abs(v), True))
                seen[fs_r] = idx
                derived += 1
                per_level[-1] += 1
                if not fs_r:
                    return SosResult(
                        REFUTED,
                        _reference_emit_sequence(cs, atoms, records, idx, support),
                        level,
                        derived,
                        tuple(per_level),
                    )
                new_frontier.append(idx)
                if derived >= max_clauses:
                    return SosResult(LIMIT, None, level, derived, tuple(per_level))
        if not new_frontier:
            per_level.pop()
            return SosResult(SATURATED, None, level - 1, derived, tuple(per_level))
        frontier = new_frontier
    return SosResult(LIMIT, None, len(per_level), derived, tuple(per_level))


def _reference_emit_sequence(
    cs: ClauseSet,
    atoms: list[Literal],
    records: list[_Rec],
    root: int,
    support: frozenset[int],
) -> ResolutionSequence:
    """Turn the derivation DAG under records[root] into an explicit
    sequence: used support inputs first by id, every other input right
    before its first use, derived clauses bottom-up."""
    used_inputs: set[int] = set()
    stack = [root]
    visited: set[int] = set()
    while stack:
        idx = stack.pop()
        if idx in visited:
            continue
        visited.add(idx)
        rec = records[idx]
        if rec.parents is None:
            used_inputs.add(idx)
        else:
            stack.extend(rec.parents)

    sprime = {frozenset(cs.by_id(cid).literals) for cid in support}
    entries: list[SequenceEntry] = []
    pos: dict[int, int] = {}

    def add_input(idx: int) -> None:
        rec = records[idx]
        clause = cs.by_id(rec.cid)
        supported = rec.cid in support or frozenset(clause.literals) in sprime
        entries.append(SequenceEntry(clause, None, None, supported))
        pos[idx] = len(entries)

    for idx in sorted(used_inputs, key=lambda i: records[i].cid):
        if records[idx].cid in support:
            add_input(idx)

    # post-order over the derivation DAG with an explicit stack: a frame
    # (idx, step) looks at parent `step` of records[idx] for steps 0 and 1
    # and emits the clause itself at step 2
    stack = [] if records[root].parents is None else [(root, 0)]
    while stack:
        idx, step = stack.pop()
        rec = records[idx]
        if step < 2:
            stack.append((idx, step + 1))
            p = rec.parents[step]
            if records[p].parents is not None and p not in pos:
                stack.append((p, 0))
            continue
        a, b = rec.parents
        for p in (a, b):
            if p not in pos:
                add_input(p)
        atom = atoms[rec.atom - 1]
        lits = tuple(
            atoms[v - 1] if v > 0 else atoms[-v - 1].negated() for v in rec.fs
        )
        supported = entries[pos[a] - 1].supported or entries[pos[b] - 1].supported
        entries.append(
            SequenceEntry(Clause(len(entries) + 1, lits), (pos[a], pos[b]), atom, supported)
        )
        pos[idx] = len(entries)

    if root not in pos and records[root].parents is None:
        add_input(root)
    return ResolutionSequence(tuple(entries))
