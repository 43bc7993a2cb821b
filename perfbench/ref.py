"""Reference answers computed without the code under test.

Clause sets are plain tuples here: a term is a variable name (a string that
starts with an upper-case letter or ``_``) or a tuple ``(functor, *args)``;
a literal is ``(positive, pred, args)``; a clause set is a dict from clause
id to a tuple of distinct literals.  Everything below works on that form
only: writers for DIMACS and TPTP, a unifier, an indexed clause-level
breadth-first search for relevance distances, a satisfiability solver, a
purity fixpoint, a resolution-step checker, Horn forward chaining, a split
chooser and a reader for the TPTP the program prints.
"""

from __future__ import annotations

import re
from collections import deque

INF = float("inf")


# ---------------------------------------------------------------------------
# Conversion and text forms


def from_program(cs) -> dict[int, tuple]:
    """Plain form of a program ClauseSet (used on generator output only)."""

    def term(t):
        if hasattr(t, "functor"):
            return (t.functor, *(term(a) for a in t.args))
        return t.name

    return {
        c.id: canonical([(l.positive, l.pred, tuple(term(a) for a in l.args)) for l in c.literals])
        for c in cs.clauses
    }


def from_groups(groups) -> dict[int, tuple]:
    """Ids 1..n for a list of literal lists, as the readers number clauses."""
    return {i + 1: canonical(g) for i, g in enumerate(groups)}


def is_var(t) -> bool:
    return isinstance(t, str)


def term_str(t) -> str:
    if is_var(t):
        return t
    if len(t) == 1:
        return t[0]
    return "%s(%s)" % (t[0], ",".join(term_str(a) for a in t[1:]))


def lit_str(lit) -> str:
    positive, pred, args = lit
    body = pred if not args else "%s(%s)" % (pred, ",".join(term_str(a) for a in args))
    return body if positive else "~" + body


def _symbol_key(name: str):
    return (0, int(name), "") if name.isdigit() else (1, 0, name)


def canonical(lits) -> tuple:
    """Distinct literals in the documented output order: positive first,
    then predicate (numeric names numerically), then argument text."""
    return tuple(
        sorted(set(lits), key=lambda l: (0 if l[0] else 1, _symbol_key(l[1]), tuple(term_str(a) for a in l[2])))
    )


def write_dimacs(clauses: dict[int, tuple]) -> str:
    n_vars = max((int(l[1]) for lits in clauses.values() for l in lits), default=0)
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    for cid in sorted(clauses):
        lines.append(" ".join([(l[1] if l[0] else "-" + l[1]) for l in clauses[cid]] + ["0"]))
    return "\n".join(lines) + "\n"


def write_tptp(clauses: dict[int, tuple], roles: dict[int, str]) -> str:
    lines = []
    for cid in sorted(clauses):
        body = " | ".join(lit_str(l) for l in clauses[cid]) or "$false"
        lines.append(f"cnf(c{cid}, {roles.get(cid, 'axiom')}, ({body})).")
    return "\n".join(lines) + "\n"


_TOKEN = re.compile(r"\s*([A-Za-z0-9_$]+|[(),~|])")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"unreadable text at {text[pos:pos + 20]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def read_tptp(text: str) -> list[tuple[str, str, tuple]]:
    """(name, role, literals) per ``cnf(...)`` line of printed TPTP."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        m = re.fullmatch(r"cnf\((\w+), (\w+), \((.*)\)\)\.", line)
        if m is None:
            raise ValueError(f"not a cnf line: {line!r}")
        toks = _tokens(m.group(3))
        pos = 0

        def term():
            nonlocal pos
            name = toks[pos]
            pos += 1
            if name[0].isupper() or name[0] == "_":
                return name
            if pos < len(toks) and toks[pos] == "(":
                pos += 1
                args = [term()]
                while toks[pos] == ",":
                    pos += 1
                    args.append(term())
                pos += 1  # ")"
                return (name, *args)
            return (name,)

        lits = []
        if toks != ["$false"]:
            while pos < len(toks):
                positive = toks[pos] != "~"
                pos += 0 if positive else 1
                atom = term()
                lits.append((positive, atom[0], tuple(atom[1:])))
                pos += 1  # "|" or end
        out.append((m.group(1), m.group(2), tuple(lits)))
    return out


# ---------------------------------------------------------------------------
# Unification


def _walk(t, s):
    while is_var(t) and t in s:
        t = s[t]
    return t


def _occurs(v, t, s) -> bool:
    t = _walk(t, s)
    if is_var(t):
        return t == v
    return any(_occurs(v, a, s) for a in t[1:])


def unify(a, b, s: dict) -> dict | None:
    a, b = _walk(a, s), _walk(b, s)
    if a == b:
        return s
    if is_var(a):
        if _occurs(a, b, s):
            return None
        s[a] = b
        return s
    if is_var(b):
        return unify(b, a, s)
    if a[0] != b[0] or len(a) != len(b):
        return None
    for x, y in zip(a[1:], b[1:]):
        if unify(x, y, s) is None:
            return None
    return s


def _rename(t, tag: str):
    if is_var(t):
        return t + tag
    return (t[0], *(_rename(a, tag) for a in t[1:]))


def complementary(l1, l2) -> bool:
    """Opposite signs and unifiable atoms once the two sides are renamed apart."""
    if l1[0] == l2[0] or l1[1] != l2[1] or len(l1[2]) != len(l2[2]):
        return False
    s: dict | None = {}
    for a, b in zip(l1[2], l2[2]):
        s = unify(_rename(a, "#1"), _rename(b, "#2"), s)
        if s is None:
            return False
    return True


def _ground(lit) -> bool:
    def g(t):
        return not is_var(t) and all(g(a) for a in t[1:])

    return all(g(a) for a in lit[2])


def apply(t, s: dict):
    t = _walk(t, s)
    if is_var(t):
        return t
    return (t[0], *(apply(a, s) for a in t[1:]))


def variables(lits) -> list[str]:
    """Variables in first-occurrence order over the given literal order."""
    out: list[str] = []

    def visit(t):
        if is_var(t):
            if t not in out:
                out.append(t)
        else:
            for a in t[1:]:
                visit(a)

    for lit in lits:
        for a in lit[2]:
            visit(a)
    return out


def functions(clauses: dict[int, tuple]) -> dict[str, int]:
    out: dict[str, int] = {}

    def visit(t):
        if not is_var(t):
            out[t[0]] = len(t) - 1
            for a in t[1:]:
                visit(a)

    for lits in clauses.values():
        for lit in lits:
            for a in lit[2]:
                visit(a)
    return out


class Partners:
    """Complementary partners of each literal occurrence, found through a
    (predicate, sign) index and memoised per literal pair."""

    def __init__(self, clauses: dict[int, tuple]):
        self.clauses = clauses
        self.by_sign: dict[tuple, list[tuple[int, tuple]]] = {}
        for cid, lits in clauses.items():
            for lit in lits:
                self.by_sign.setdefault((lit[1], lit[0]), []).append((cid, lit))
        self.ground = all(_ground(l) for lits in clauses.values() for l in lits)
        self._memo: dict[tuple, list[tuple[int, tuple]]] = {}

    def of(self, lit) -> list[tuple[int, tuple]]:
        hit = self._memo.get(lit)
        if hit is None:
            cands = self.by_sign.get((lit[1], not lit[0]), ())
            if self.ground:
                hit = [(d, m) for d, m in cands if m[2] == lit[2]]
            else:
                hit = [(d, m) for d, m in cands if complementary(lit, m)]
            self._memo[lit] = hit
        return hit


# ---------------------------------------------------------------------------
# Relevance distances


def distances(clauses: dict[int, tuple], support, partners: Partners | None = None) -> dict[int, float]:
    """Shortest connection length from the support set to every clause.

    Breadth-first over (clause, entry literal) states: a state may be left
    through any literal but the one it was entered by, and every hop enters
    one more clause.  Support clauses are at 1.
    """
    partners = partners or Partners(clauses)
    best = {cid: INF for cid in clauses}
    seen: set = set()
    queue: deque = deque()
    for cid in support:
        best[cid] = 1
        seen.add((cid, None))
        queue.append((cid, None, 1))
    while queue:
        cid, entry, d = queue.popleft()
        for exit_lit in clauses[cid]:
            if exit_lit == entry:
                continue
            for did, target in partners.of(exit_lit):
                state = (did, target)
                if state in seen:
                    continue
                seen.add(state)
                if d + 1 < best[did]:
                    best[did] = d + 1
                queue.append((did, target, d + 1))
    return best


def check_path(clauses, support, clause_ids, links, want_length) -> str | None:
    """None when the printed connection is valid and as short as the
    reference distance, else the reason it is not."""
    if not clause_ids or clause_ids[0] not in support:
        return "path does not start in the support set"
    if len(clause_ids) != want_length:
        return f"path length {len(clause_ids)}, reference distance {want_length}"
    if len(links) != len(clause_ids) - 1:
        return "link count does not match clause count"
    by_text = {cid: {lit_str(l): l for l in clauses[cid]} for cid in set(clause_ids)}
    entry = None
    for hop, (exit_text, enter_text) in enumerate(links):
        exit_lit = by_text[clause_ids[hop]].get(exit_text)
        enter_lit = by_text[clause_ids[hop + 1]].get(enter_text)
        if exit_lit is None or enter_lit is None:
            return f"hop {hop}: literal not in its clause"
        if exit_lit == entry:
            return f"hop {hop}: left through the entry literal"
        if not complementary(exit_lit, enter_lit):
            return f"hop {hop}: literals do not complement-unify"
        entry = enter_lit
    return None


def purity(clauses: dict[int, tuple]) -> dict[int, tuple]:
    """Greatest subset in which every literal has a live complementary partner."""
    partners = Partners(clauses)
    alive = dict(clauses)
    changed = True
    while changed:
        changed = False
        for cid in list(alive):
            if any(all(d not in alive for d, _ in partners.of(l)) for l in alive[cid]):
                del alive[cid]
                changed = True
    return alive


def occurrence_bound(clauses: dict[int, tuple]) -> int:
    counts: dict = {}
    for lits in clauses.values():
        for key in {(l[1], l[0]) for l in lits}:
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


def growth_budget(n_support: int, b: int, k: int, n: int) -> int:
    """Worst-case level-n neighborhood size for occurrence bound b and width k."""
    if n <= 1:
        return n_support
    return 2 * n_support * b ** (n - 1) * k * (k - 1) ** (n - 2)


# ---------------------------------------------------------------------------
# Satisfiability


def to_ints(clauses) -> tuple[list[tuple], list[list[int]]]:
    """Atoms and integer clauses of a ground clause collection."""
    atoms: dict[tuple, int] = {}
    out = []
    for lits in clauses:
        out.append([
            (1 if l[0] else -1) * atoms.setdefault((l[1], l[2]), len(atoms) + 1) for l in lits
        ])
    return list(atoms), out


def sat(clauses) -> dict[tuple, bool] | None:
    """A model (atom -> value) of a ground clause collection, or None.

    Iterative DPLL with two watched literals and chronological backtracking.
    """
    atoms, ints = to_ints(clauses)
    n = len(atoms)
    value: list[int] = [0] * (n + 1)  # 0 unassigned, 1 true, -1 false
    watches: dict[int, list[list[int]]] = {}
    trail: list[int] = []
    units: list[int] = []
    for cl in ints:
        cl = list(dict.fromkeys(cl))
        if any(-x in cl for x in cl):
            continue
        if not cl:
            return None
        if len(cl) == 1:
            units.append(cl[0])
            continue
        watches.setdefault(cl[0], []).append(cl)
        watches.setdefault(cl[1], []).append(cl)

    def val(x: int) -> int:
        v = value[abs(x)]
        return v if x > 0 else -v

    def assign(x: int) -> bool:
        v = val(x)
        if v:
            return v > 0
        value[abs(x)] = 1 if x > 0 else -1
        trail.append(x)
        return True

    def propagate(start: int) -> bool:
        i = start
        while i < len(trail):
            false_lit = -trail[i]
            i += 1
            watching = watches.get(false_lit, [])
            keep = []
            for j, cl in enumerate(watching):
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if val(cl[0]) > 0:
                    keep.append(cl)
                    continue
                for k in range(2, len(cl)):
                    if val(cl[k]) >= 0:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches.setdefault(cl[1], []).append(cl)
                        break
                else:
                    keep.append(cl)
                    if val(cl[0]) < 0 or not assign(cl[0]):
                        keep.extend(watching[j + 1:])
                        watches[false_lit] = keep
                        return False
            watches[false_lit] = keep
        return True

    for u in units:
        if not assign(u):
            return None
    if not propagate(0):
        return None
    counts = [0] * (n + 1)
    for cl in ints:
        for x in cl:
            counts[abs(x)] += 1
    order = sorted(range(1, n + 1), key=lambda v: -counts[v])
    decisions: list[tuple[int, int, bool]] = []  # (trail length before, literal, flipped)
    while True:
        var = next((v for v in order if not value[v]), None)
        if var is None:
            return {atoms[v - 1]: value[v] > 0 for v in range(1, n + 1)}
        decisions.append((len(trail), var, False))
        assign(var)
        ok = propagate(len(trail) - 1)
        while not ok:
            while decisions and decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return None
            mark, lit, _ = decisions.pop()
            for x in trail[mark:]:
                value[abs(x)] = 0
            del trail[mark:]
            decisions.append((mark, -lit, True))
            assign(-lit)
            ok = propagate(len(trail) - 1)


def satisfies(clauses, model: dict) -> bool:
    """Every non-tautological clause has a literal the model makes true."""
    for lits in clauses:
        if any((not l[0], l[1], l[2]) in lits for l in lits):
            continue
        if not any(model.get((l[1], l[2])) == l[0] for l in lits):
            return False
    return True


def levels_radius(clauses, dist) -> tuple[float, dict[int, bool]]:
    """Smallest level whose neighborhood is unsatisfiable, and the
    satisfiability of every finite level."""
    levels = sorted({int(d) for d in dist.values() if d < INF})
    verdicts: dict[int, bool] = {}
    radius = INF
    for n in levels:
        verdicts[n] = sat([clauses[c] for c, d in dist.items() if d <= n]) is not None
        if not verdicts[n] and radius == INF:
            radius = n
    return radius, verdicts


# ---------------------------------------------------------------------------
# Resolution


def resolvent(p1, p2, atom):
    """Ground resolvent of two literal sets on an atom (either parent may
    hold it positively), or None when the atom does not clash."""
    pos = (True, atom[1], atom[2])
    neg = (False, atom[1], atom[2])
    if pos in p1 and neg in p2:
        return (p1 - {pos}) | (p2 - {neg})
    if pos in p2 and neg in p1:
        return (p1 - {neg}) | (p2 - {pos})
    return None


def check_sequence(entries, clauses, support, want_refutation: bool) -> str | None:
    """Re-derive a resolution sequence step by step.

    ``entries`` holds (input id or None, literal set, parents, atom,
    supported flag).  Inputs must equal their clause; each resolvent must be
    recomputed from earlier parents; a derived clause needs a supported
    parent or must repeat a support clause.  None when valid.
    """
    sprime = {frozenset(clauses[c]) for c in support}
    flags: list[bool] = []
    for i, (cid, lits, parents, atom, flag) in enumerate(entries, start=1):
        if parents is None:
            if cid not in clauses or frozenset(clauses[cid]) != lits:
                return f"entry {i}: input does not match clause {cid}"
            supported = cid in support or lits in sprime
        else:
            j, k = parents
            if not (1 <= j < i and 1 <= k < i) or atom is None:
                return f"entry {i}: bad parents {parents}"
            if resolvent(entries[j - 1][1], entries[k - 1][1], atom) != lits:
                return f"entry {i}: not the resolvent of {j} and {k}"
            supported = lits in sprime or flags[j - 1] or flags[k - 1]
            if not supported:
                return f"entry {i}: no supported parent"
        if flag != supported:
            return f"entry {i}: supported flag {flag}, should be {supported}"
        flags.append(supported)
    if not entries:
        return "empty sequence"
    if want_refutation and entries[-1][1]:
        return "last clause is not empty"
    return None


def hyper_levels(clauses: dict[int, tuple]) -> int | None:
    """Positive hyper-resolution levels of a ground Horn set until the
    empty clause, or None at a fixpoint."""
    facts: set = set()
    rules = []
    for lits in clauses.values():
        if not lits:
            return 0
        head = next(((l[1], l[2]) for l in lits if l[0]), None)
        body = frozenset((l[1], l[2]) for l in lits if not l[0])
        if body:
            rules.append((body, head))
        else:
            facts.add(head)
    level = 0
    while True:
        level += 1
        new = set()
        for body, head in rules:
            if body <= facts:
                if head is None:
                    return level
                if head not in facts:
                    new.add(head)
        if not new:
            return None
        facts |= new


# ---------------------------------------------------------------------------
# Splitting


def substitute(lits, var: str, image) -> tuple:
    return canonical([(l[0], l[1], tuple(apply(a, {var: image}) for a in l[2])) for l in lits])


def choose_split(clauses: dict[int, tuple]) -> tuple[int, str] | None:
    """First clause, in id order, with a variable whose full split leaves
    some instance literal without a partner; among its variables the one
    whose breaks drop the most partner links, the first on ties."""
    syms = functions(clauses)
    if not syms:
        return None
    for cid in sorted(clauses):
        lits = clauses[cid]
        names = variables(lits)
        if not names:
            continue
        others = [m for d, ls in clauses.items() if d != cid for m in ls]
        partners = [[m for m in others if complementary(l, m)] for l in lits]
        best, best_score = None, 0
        for v in names:
            score = 0
            for f in sorted(syms):
                image = (f, *(f"_Q{i}" for i in range(syms[f])))
                for l, cands in zip(lits, partners):
                    if not cands:
                        continue
                    inst = (l[0], l[1], tuple(apply(a, {v: image}) for a in l[2]))
                    if not any(complementary(inst, m) for m in cands):
                        score += len(cands)
            if score > best_score:
                best, best_score = v, score
        if best is not None:
            return cid, best
    return None


def check_split(clauses, names_of, cid: int, var: str, printed: list) -> str | None:
    """The printed set must keep every other clause as it was and replace
    clause ``cid`` by one instance per function symbol f, with ``var``
    mapped to f applied to fresh variables."""
    syms = functions(clauses)
    original = clauses[cid]
    kept = {names_of[c]: frozenset(l) for c, l in clauses.items() if c != cid}
    fresh = []
    for name, _role, lits in printed:
        if name in kept:
            if frozenset(lits) != kept.pop(name):
                return f"clause {name} changed"
        else:
            fresh.append(lits)
    if kept:
        return f"{len(kept)} clauses missing from the output"
    if len(fresh) != len(syms):
        return f"{len(fresh)} instances for {len(syms)} symbols"
    old_vars = set(variables(original)) - {var}
    wanted = dict(syms)
    for lits in fresh:
        new_vars = [v for v in variables(lits) if v not in old_vars]
        matched = None
        for f, ar in wanted.items():
            if len(new_vars) != ar:
                continue
            if frozenset(substitute(original, var, (f, *new_vars))) == frozenset(lits):
                matched = f
                break
        if matched is None:
            return "an instance matches no function symbol"
        del wanted[matched]
    return None
