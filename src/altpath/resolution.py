"""Ground resolution under the set-of-support discipline.

The search is breadth-first level saturation: level k resolvents take at
least one parent from level k-1 and at least one supported parent, so the
level at which the empty clause appears equals the minimum derivation depth
of any refutation obeying the discipline.  Deduplication is exact-duplicate
only, and only against supported clauses: a resolvent that repeats an
unsupported input clause is kept, because unlike the input it may act as the
supported parent of later steps.  Tautology resolvents are discarded and
tautology inputs never enter the search; both are sound for refutation
finding.  Partners come from an index of the kept clauses by signed
literal and are visited in kept order, as a scan of every kept clause
would meet them, so which duplicate is kept first never depends on the
index.

Each kept clause is one integer bit mask, literal x at bit 2x and -x at
bit 2x+1 over the signed atom numbers of ClauseSet.rows, beside
its tuple of literals.  The resolvent on atom a is the or of the parents'
masks with the two bits of a cleared, and duplicates are looked up by that
mask.  Literals are made only for the clauses of a refutation.
Kept clauses are never tautologies, so a resolvent is one exactly when the
parents clash on a second atom, that is when some atom has both bits set:
m & (m >> 1) has an even bit set.  The literal tuple of a resolvent is
built from its parents' tuples only when it is kept.

Refutations are emitted as explicit resolution sequences: the supported
input clauses first in id order, then the derivation DAG bottom-up with
every other input clause placed immediately before its first use.  That
ordering keeps each input clause's relevance distance from the support set
within its sequence position, which verify_support_path_property checks.
The converse construction, linear_sequence_from_path, turns a shortest
alternating path into a sequence of 2n-1 entries whose last input is the
path's final clause.

For Horn sets with an all-negative support set the module also provides
positive hyper-resolution by forward chaining, used to contrast derivation
depth against the set-of-support search on goal-tree shaped problems.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from altpath.clauses import Clause, ClauseSet, Literal
from altpath.graph import (
    FIRST_ORDER,
    AlternatingPath,
    bfs_from_support,
    build_graph,
)

REFUTED = "refuted"
SATURATED = "saturated"
LIMIT = "limit"

MAX_KEPT_CLAUSES = 100_000
MAX_LEVELS = 50


# ---------------------------------------------------------------------------
# The resolution rule


def resolve(c1: Clause, c2: Clause, atom: Literal) -> Clause:
    """Resolvent of two clauses on an atom, with set semantics.

    The atom must occur positively in one parent and negatively in the
    other; a literal of either sign selects its atom.  Matching is by
    literal identity, so this is the ground rule.
    """
    pos = atom.atom
    neg = pos.negated()
    if pos in c1.literals and neg in c2.literals:
        keep = [l for l in c1.literals if l != pos]
        keep += [l for l in c2.literals if l != neg]
    elif pos in c2.literals and neg in c1.literals:
        keep = [l for l in c1.literals if l != neg]
        keep += [l for l in c2.literals if l != pos]
    else:
        raise ValueError(
            f"atom {pos} does not occur with opposite signs in the two parents"
        )
    return Clause(0, tuple(keep))


# ---------------------------------------------------------------------------
# Resolution sequences


@dataclass(frozen=True)
class SequenceEntry:
    """One line of a resolution sequence.

    Input entries carry the clause under its original id and have no
    parents.  Derived entries name the 1-based positions of their parents
    and the atom resolved on.
    """

    clause: Clause
    parents: tuple[int, int] | None = None
    atom: Literal | None = None
    supported: bool = False

    @property
    def is_input(self) -> bool:
        return self.parents is None


@dataclass(frozen=True)
class ResolutionSequence:
    entries: tuple[SequenceEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def resolution_count(self) -> int:
        return sum(1 for e in self.entries if not e.is_input)

    def __str__(self) -> str:
        return format_sequence(self)


def format_sequence(seq: ResolutionSequence) -> str:
    lines = []
    for i, e in enumerate(seq.entries, start=1):
        if e.is_input:
            src = "input"
        else:
            j, k = e.parents
            src = f"resolve({j},{k}) on {e.atom}"
        lines.append(f"{i}. {e.clause}  [{src}]  supported={e.supported}")
    return "\n".join(lines)


def _support_literal_sets(cs: ClauseSet, support: frozenset[int]) -> set[frozenset[Literal]]:
    return {frozenset(cs.by_id(cid).literals) for cid in support}


def _input_entry(cs: ClauseSet, cid: int, support: frozenset[int],
                 sprime: set[frozenset[Literal]]) -> SequenceEntry:
    """Input clause cid as a sequence entry, supported when its id is in
    the support set or its literals equal a support clause's."""
    clause = cs.by_id(cid)
    supported = cid in support or frozenset(clause.literals) in sprime
    return SequenceEntry(clause, None, None, supported)


def validate_sequence(seq: ResolutionSequence, cs: ClauseSet, support_ids) -> None:
    """Raise ValueError unless seq is a valid set-of-support sequence from cs.

    Checks that inputs match the clause set by id, that every derived entry
    is the recomputed resolvent of two earlier entries, that supported flags
    follow the definition (clauses equal to a support clause count as
    supported), and that every derived entry has a supported ancestor chain.
    """
    support = cs.check_support(support_ids)
    if not seq.entries:
        raise ValueError("empty sequence")
    sprime = _support_literal_sets(cs, support)
    flags: list[bool] = []
    for i, e in enumerate(seq.entries, start=1):
        lits = frozenset(e.clause.literals)
        if e.is_input:
            if not cs.has_id(e.clause.id):
                raise ValueError(f"entry {i}: input id {e.clause.id} not in the clause set")
            if lits != frozenset(cs.by_id(e.clause.id).literals):
                raise ValueError(
                    f"entry {i}: literals differ from clause c{e.clause.id} of the set"
                )
            supported = e.clause.id in support or lits in sprime
        else:
            j, k = e.parents
            if not (1 <= j < i and 1 <= k < i):
                raise ValueError(f"entry {i}: parents {(j, k)} must name earlier entries")
            if e.atom is None:
                raise ValueError(f"entry {i}: derived entry without a resolved atom")
            recomputed = resolve(
                seq.entries[j - 1].clause, seq.entries[k - 1].clause, e.atom
            )
            if lits != frozenset(recomputed.literals):
                raise ValueError(
                    f"entry {i}: clause is not the resolvent of entries {j} and {k} "
                    f"on {e.atom.atom}"
                )
            supported = lits in sprime or flags[j - 1] or flags[k - 1]
            if not supported:
                raise ValueError(
                    f"entry {i}: derived clause has no supported parent, "
                    f"violating the set-of-support discipline"
                )
        if e.supported != supported:
            raise ValueError(
                f"entry {i}: supported flag is {e.supported}, should be {supported}"
            )
        flags.append(supported)


def verify_support_path_property(
    seq: ResolutionSequence,
    cs: ClauseSet,
    support_ids,
) -> bool:
    """True iff every input entry at position i lies within relevance
    distance i of the support set.  The sequence is validated first."""
    validate_sequence(seq, cs, support_ids)
    dmap = bfs_from_support(build_graph(cs, FIRST_ORDER), support_ids)
    for i, e in enumerate(seq.entries, start=1):
        if e.is_input and dmap.distance(e.clause.id) > i:
            return False
    return True


# ---------------------------------------------------------------------------
# Set-of-support search

@dataclass
class SosResult:
    """Outcome of a set-of-support search.

    status is "refuted" (sequence set, ends in the empty clause),
    "saturated" (no new clauses; levels counts the productive levels), or
    "limit" (clause or level budget exhausted).  per_level holds the
    clauses derived at each of the levels, summing to derived_count.
    """

    status: str
    sequence: ResolutionSequence | None
    levels: int
    derived_count: int
    per_level: tuple[int, ...]


def sos_refute(
    cs: ClauseSet,
    support_ids,
    max_clauses: int = MAX_KEPT_CLAUSES,
    max_levels: int = MAX_LEVELS,
) -> SosResult:
    """Saturate a ground clause set under resolution restricted to steps
    with at least one supported parent.

    Stops at the first empty clause, at a fixpoint, or at the clause/level
    budget; all three are normal outcomes.
    """
    if max_clauses < 1:
        raise ValueError(f"max_clauses must be at least 1, got {max_clauses}")
    if max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    support = cs.check_support(support_ids)
    if not support:
        raise ValueError("sos_refute needs a nonempty support set")
    cs.require_ground("resolution search")
    rows = cs.rows

    # The kept clauses by record id, inputs first: the literal bit mask
    # (literal x is bit 2x, -x is bit 2x+1), the signed literals, and for
    # a resolvent its parents' record ids and the atom resolved on.  cids
    # holds the clause ids of the inputs.
    masks: list[int] = []
    lits: list[tuple[int, ...]] = []
    steps: list[tuple[int, int, int] | None] = []
    cids: list[int] = []
    # signed literal -> ascending ids of the records holding it
    n = cs.atom_count
    occurs: dict[int, list[int]] = {v: [] for a in range(1, n + 1) for v in (a, -a)}
    seen: set[int] = set()  # masks of the supported records
    frontier: list[int] = []
    evens = (4 ** (n + 1) - 1) // 3  # bit 2x of every atom x

    for cid, row in zip(cs.ids(), rows):
        m = 0
        for v in row:
            m |= 1 << (2 * v if v > 0 else 1 - 2 * v)
        if m & (m >> 1) & evens:
            continue  # a tautology, as the solvers drop them
        idx = len(masks)
        masks.append(m)
        lits.append(row)
        steps.append(None)
        cids.append(cid)
        for v in row:
            occurs[v].append(idx)
        if cid in support:
            frontier.append(idx)
            seen.add(m)
        if not m:
            return SosResult(
                REFUTED, _emit_sequence(cs, lits, steps, cids, idx, support), 0, 0, ()
            )

    if not frontier:  # every support clause is a tautology
        return SosResult(SATURATED, None, 0, 0, ())
    n_inputs = len(masks)
    derived = 0
    per_level: list[int] = []
    while frontier and len(per_level) < max_levels:
        per_level.append(0)
        level = len(per_level)
        new_frontier: list[int] = []
        for f_idx in frontier:
            fm = masks[f_idx]
            # complementary partners below f_idx, and at level 1 the
            # unsupported inputs after it (inputs are not ordered
            # supported-first), visited by record id; each pair carries the
            # two bits of the atom it clashes on.  A partner listed twice
            # clashes on two atoms, a tautology either way, so the bits
            # never decide the order of a kept resolvent.
            pairs: list[tuple[int, int]] = []
            fl = lits[f_idx]
            for v in fl:
                ids = occurs[-v]
                if not ids:
                    continue
                bits = 3 << 2 * abs(v)
                cut = bisect_left(ids, f_idx)
                pairs += [(g_idx, bits) for g_idx in ids[:cut]]
                if level == 1:
                    pairs += [
                        (g_idx, bits)
                        for g_idx in ids[cut : bisect_left(ids, n_inputs)]
                        if cids[g_idx] not in support
                    ]
            pairs.sort()
            for g_idx, bits in pairs:
                # both parents hold one of the two bits, so xor clears them
                m = (fm | masks[g_idx]) ^ bits
                if m in seen:
                    continue
                # kept records are never tautologies, so the resolvent is
                # one exactly when the parents clash on a second atom
                if m & (m >> 1) & evens:
                    continue
                a = bits.bit_length() // 2 - 1
                v = a if fm >> 2 * a & 1 else -a
                row = [u for u in fl if u != v]
                row += [u for u in lits[g_idx] if u != -v and u not in fl]
                idx = len(masks)
                masks.append(m)
                lits.append(tuple(row))
                steps.append((f_idx, g_idx, a))
                seen.add(m)
                for u in row:
                    occurs[u].append(idx)
                derived += 1
                per_level[-1] += 1
                if not row:
                    return SosResult(
                        REFUTED,
                        _emit_sequence(cs, lits, steps, cids, idx, support),
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


def _emit_sequence(
    cs: ClauseSet,
    lits: list[tuple[int, ...]],
    steps: list[tuple[int, int, int] | None],
    cids: list[int],
    root: int,
    support: frozenset[int],
) -> ResolutionSequence:
    """Turn the derivation DAG under record root into an explicit
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
        if steps[idx] is None:
            used_inputs.add(idx)
        else:
            stack.extend(steps[idx][:2])

    atoms = cs.atoms()
    sprime = _support_literal_sets(cs, support)
    entries: list[SequenceEntry] = []
    pos: dict[int, int] = {}

    def add_input(idx: int) -> None:
        entries.append(_input_entry(cs, cids[idx], support, sprime))
        pos[idx] = len(entries)

    for idx in sorted(used_inputs, key=cids.__getitem__):
        if cids[idx] in support:
            add_input(idx)

    # post-order over the derivation DAG with an explicit stack: a frame
    # (idx, step) looks at parent `step` of record idx for steps 0 and 1
    # and emits the clause itself at step 2
    stack = [] if steps[root] is None else [(root, 0)]
    while stack:
        idx, step = stack.pop()
        a, b, atom = steps[idx]
        if step < 2:
            stack.append((idx, step + 1))
            p = (a, b)[step]
            if steps[p] is not None and p not in pos:
                stack.append((p, 0))
            continue
        for p in (a, b):
            if p not in pos:
                add_input(p)
        clause = tuple(
            atoms[v - 1] if v > 0 else atoms[-v - 1].negated() for v in lits[idx]
        )
        supported = entries[pos[a] - 1].supported or entries[pos[b] - 1].supported
        entries.append(
            SequenceEntry(
                Clause(len(entries) + 1, clause), (pos[a], pos[b]), atoms[atom - 1], supported
            )
        )
        pos[idx] = len(entries)

    if root not in pos and steps[root] is None:
        add_input(root)
    return ResolutionSequence(tuple(entries))


# ---------------------------------------------------------------------------
# Shortest path -> linear sequence


def linear_sequence_from_path(
    cs: ClauseSet, path: AlternatingPath, support_ids
) -> ResolutionSequence:
    """Linear resolution along an alternating path.

    A path of n clauses yields 2n-1 entries whose last input is the path's
    final clause; when the path starts inside the support set the result
    obeys the set-of-support discipline.  Each hop's leave literal survives
    into the running resolvent because it differs from the literal the
    clause was entered through, which is exactly the alternation condition.
    """
    cs.require_ground("linear resolution")
    if not path.clause_ids:
        raise ValueError("empty path")
    support = cs.check_support(support_ids)
    sprime = _support_literal_sets(cs, support)
    entries = [_input_entry(cs, path.clause_ids[0], support, sprime)]
    run = entries[0].clause
    run_pos = 1
    run_sup = entries[0].supported
    for (exit_lit, _entry_lit), cid in zip(path.links, path.clause_ids[1:]):
        entries.append(_input_entry(cs, cid, support, sprime))
        in_pos = len(entries)
        resolvent = resolve(run, cs.by_id(cid), exit_lit.atom)
        run_sup = run_sup or entries[-1].supported or frozenset(resolvent.literals) in sprime
        run = Clause(len(entries) + 1, resolvent.literals)
        entries.append(SequenceEntry(run, (run_pos, in_pos), exit_lit.atom, run_sup))
        run_pos = len(entries)
    return ResolutionSequence(tuple(entries))


# ---------------------------------------------------------------------------
# Positive hyper-resolution for Horn sets


def hyper_resolution_levels(cs: ClauseSet) -> int | None:
    """Levels of positive hyper-resolution until the empty clause on a
    ground Horn set, or None when forward chaining reaches a fixpoint
    without contradiction.  Facts present as input units are level 0.
    """
    cs.require_ground("hyper-resolution forward chaining")
    for c in cs.clauses:
        if sum(1 for l in c.literals if l.positive) > 1:
            raise ValueError(f"clause c{c.id} has two positive literals; the set is not Horn")
    facts: set[Literal] = set()
    rules: list[tuple[frozenset[Literal], Literal | None]] = []
    for c in cs.clauses:
        if c.is_empty:
            return 0
        head = next((l for l in c.literals if l.positive), None)
        body = frozenset(l.atom for l in c.literals if not l.positive)
        if not body:
            facts.add(head)
        else:
            rules.append((body, head))
    level = 0
    while True:
        level += 1
        new: set[Literal] = set()
        for body, head in rules:
            if body <= facts:
                if head is None:
                    return level
                if head not in facts:
                    new.add(head)
        if not new:
            return None
        facts |= new
