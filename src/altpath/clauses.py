"""Terms, literals, clauses and unification for first-order clause sets.

Propositional problems are the variable-free special case: atoms are
zero-arity predicates and everything below degrades to set manipulation.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import FrozenInstanceError, dataclass
from functools import partial


class ArityError(ValueError):
    """A predicate or function symbol is used at two different arities."""


# ---------------------------------------------------------------------------
# Terms
#
# A term carries what every reader asks of it, so no reader recurses: its
# hash and ground flag are computed from its children's when it is built,
# and its printed text and variables are found on first read by a walk with
# an explicit stack, then kept on the node that was asked (not on the nodes
# the walk passed, so a term nested n deep costs O(n) memory, not O(n^2)).
# Terms are immutable and compare by value, like frozen dataclasses.


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            s, t = todo.pop()
            if s is t:
                continue
            if s.__class__ is not t.__class__ or s._hash != t._hash:
                return False
            if s.__class__ is Var:
                if s.name != t.name or s.allowed != t.allowed:
                    return False
            elif s.functor != t.functor or len(s.args) != len(t.args):
                return False
            else:
                todo.extend(zip(s.args, t.args))
        return True


class Var(_Frozen):
    """A variable, scoped to the clause it occurs in.

    ``allowed`` optionally restricts the function symbols the variable may be
    instantiated with at the top level.  Restrictions are produced by clause
    splitting and are consulted by unification; parsed input never carries
    them.
    """

    __slots__ = ("name", "allowed", "_hash", "_text")
    ground = False

    def __init__(self, name: str, allowed: frozenset[str] | None = None):
        put = object.__setattr__
        put(self, "name", name)
        put(self, "allowed", allowed)
        put(self, "_hash", hash((name, allowed)))
        put(self, "_text", name if allowed is None
            else "%s{%s}" % (name, ",".join(sorted(allowed))))

    @property
    def variables(self) -> tuple["Var", ...]:
        return (self,)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Var(name={self.name!r}, allowed={self.allowed!r})"

    def __reduce__(self):
        return Var, (self.name, self.allowed)


class App(_Frozen):
    """A function application; constants are zero-arity applications.

    ``ground`` says whether the term is variable-free."""

    __slots__ = ("functor", "args", "ground", "_hash", "_text", "_vars")

    def __init__(self, functor: str, args: tuple["Term", ...] = ()):
        put = object.__setattr__
        put(self, "functor", functor)
        put(self, "args", args)
        ground = True
        for a in args:
            if not a.ground:
                ground = False
                break
        put(self, "ground", ground)
        put(self, "_hash", hash((functor, args)))
        put(self, "_text", None if args else functor)
        put(self, "_vars", () if ground else None)

    @property
    def variables(self) -> tuple[Var, ...]:
        """Variables in first-occurrence order, one per name."""
        found = self._vars
        if found is None:
            seen: dict[str, Var] = {}
            todo: list[Term] = [self]
            while todo:
                t = todo.pop()
                if t.__class__ is Var:
                    seen.setdefault(t.name, t)
                elif t._vars is not None:  # ground, or asked before
                    for v in t._vars:
                        seen.setdefault(v.name, v)
                else:
                    todo.extend(reversed(t.args))
            found = tuple(seen.values())
            object.__setattr__(self, "_vars", found)
        return found

    def __str__(self) -> str:
        text = self._text
        if text is None:
            parts = [a._text for a in self.args]
            if None in parts:  # an argument is not printed yet: walk them all
                parts = []
                todo: list[Term | str] = [self]
                while todo:
                    t = todo.pop()
                    if t.__class__ is str:
                        parts.append(t)
                    elif t._text is not None:
                        parts.append(t._text)
                    else:
                        parts += (t.functor, "(")
                        todo.append(")")
                        for k in range(len(t.args) - 1, 0, -1):
                            todo += (t.args[k], ",")
                        todo.append(t.args[0])
                text = "".join(parts)
            else:
                text = "%s(%s)" % (self.functor, ",".join(parts))
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"App(functor={self.functor!r}, args={self.args!r})"

    def __reduce__(self):
        return App, (self.functor, self.args)


Term = Var | App

# A substitution maps variable names to terms; splitting applies them to
# instantiate a variable.
Substitution = dict[str, Term]


def apply_term(t: Term, subst: Substitution) -> Term:
    """``t`` with each variable named in ``subst`` replaced by its image; a
    ground term is returned unchanged."""
    if t.ground:
        return t
    if t.__class__ is Var:
        return subst.get(t.name, t)
    # rebuild bottom-up: a term is pushed under a None marker and its
    # arguments; when the marker is popped, its arguments' images are the
    # last items of ``done``
    done: list[Term] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        if u is None:
            u = todo.pop()
            k = len(u.args)
            done[-k:] = [App(u.functor, tuple(done[-k:]))]
        elif u.ground:
            done.append(u)
        elif u.__class__ is Var:
            done.append(subst.get(u.name, u))
        else:
            todo += (u, None)
            todo.extend(reversed(u.args))
    return done[0]


# ---------------------------------------------------------------------------
# Unification
#
# The complementary check reads each term in a numbered binding
# environment (its side), and bindings are keyed by (side, variable name),
# so two literals are unified renamed apart without copying either
# (structure sharing, Boyer & Moore 1972).  It only asks whether a unifier
# exists, so no substitution is ever built.
# Variables made fresh by merging two restrictions live on side 0.

# (side, variable name) -> (term, side the term is read in)
_Bindings = dict[tuple[int, str], tuple[Term, int]]

_fresh = itertools.count()


def _walk(t: Term, s: int, bind: _Bindings) -> tuple[Term, int]:
    while t.__class__ is Var:
        nxt = bind.get((s, t.name))
        if nxt is None:
            break
        t, s = nxt
    return t, s


def _occurs(name: str, side: int, t: Term, s: int, bind: _Bindings) -> bool:
    todo = [(t, s)]
    while todo:
        t, s = _walk(*todo.pop(), bind)
        if t.__class__ is Var:
            if t.name == name and s == side:
                return True
        elif not t.ground:
            todo.extend((a, s) for a in t.args)
    return False


def _bind_var(x: Var, xs: int, t: Term, ts: int, bind: _Bindings) -> bool:
    # t is already walked and is not the same variable as x
    if t.__class__ is App:
        if x.allowed is not None and t.functor not in x.allowed:
            return False
        if not t.ground and _occurs(x.name, xs, t, ts, bind):
            return False
        bind[xs, x.name] = (t, ts)
        return True
    # variable-to-variable: merge top-symbol restrictions when present
    if x.allowed is None:
        bind[xs, x.name] = (t, ts)
    elif t.allowed is None:
        bind[ts, t.name] = (x, xs)
    else:
        merged = x.allowed & t.allowed
        if not merged:
            return False
        if merged == t.allowed:
            bind[xs, x.name] = (t, ts)
        elif merged == x.allowed:
            bind[ts, t.name] = (x, xs)
        else:
            z = (Var(f"_u{next(_fresh)}", merged), 0)
            bind[xs, x.name] = z
            bind[ts, t.name] = z
    return True


def _unify(todo: list[tuple[Term, int, Term, int]], bind: _Bindings) -> bool:
    """Whether every pair of ``todo``, each term read in its side, unifies
    under ``bind``, which it extends.  ``todo`` is a stack: its last pair is
    taken first, and a pair's arguments are taken left to right."""
    get = bind.get
    while todo:
        t1, s1, t2, s2 = todo.pop()
        # ``_walk`` on each side, inlined: this loop is the unifier's hot path
        while t1.__class__ is Var and (nxt := get((s1, t1.name))) is not None:
            t1, s1 = nxt
        while t2.__class__ is Var and (nxt := get((s2, t2.name))) is not None:
            t2, s2 = nxt
        if t1.__class__ is Var:
            if t2.__class__ is Var and t1.name == t2.name and s1 == s2:
                continue
            if not _bind_var(t1, s1, t2, s2, bind):
                return False
        elif t2.__class__ is Var:
            if not _bind_var(t2, s2, t1, s1, bind):
                return False
        elif t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return False
        elif t1.ground and t2.ground:
            if t1 != t2:
                return False
        else:
            for k in range(len(t1.args) - 1, -1, -1):
                todo.append((t1.args[k], s1, t2.args[k], s2))
    return True


# ---------------------------------------------------------------------------
# Literals


def _symbol_key(name: str):
    # numeric atom names (DIMACS) sort numerically, everything else by name
    if name.isdigit():
        return (0, int(name), "")
    return (1, 0, name)


@dataclass(frozen=True)
class Literal:
    """A possibly negated atom."""

    positive: bool
    pred: str
    args: tuple[Term, ...] = ()

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.pred, self.args)

    @property
    def atom(self) -> "Literal":
        """The positive literal with the same predicate and arguments."""
        return self if self.positive else Literal(True, self.pred, self.args)

    def is_ground(self) -> bool:
        for a in self.args:
            if not a.ground:
                return False
        return True

    def __str__(self) -> str:
        body = self.pred if not self.args else "%s(%s)" % (
            self.pred,
            ",".join(map(str, self.args)),
        )
        return body if self.positive else "~" + body


def literal_key(lit: Literal):
    """Canonical order: sign first (positive before negative), then atom."""
    return (0 if lit.positive else 1, _symbol_key(lit.pred), tuple(map(str, lit.args)))


def complementary_unifiable(l1: Literal, l2: Literal) -> bool:
    """True iff the two literals have opposite signs and, renamed apart,
    their atoms unify.

    Each side reads its variables in its own binding environment, so two
    occurrences of the same clause (or the same literal) are treated as
    variable-disjoint copies without copying either.  An argument pair of
    two applications with different top symbols, or of two unequal ground
    terms, fails before any binding is made.
    """
    if l1.positive == l2.positive:
        return False
    if l1.pred != l2.pred or len(l1.args) != len(l2.args):
        return False
    todo = []
    for a, b in zip(l1.args, l2.args):
        if a.__class__ is App and b.__class__ is App:
            if a.functor != b.functor:
                return False
            if a.ground and b.ground:
                if a != b:
                    return False
                continue
        todo.append((a, 1, b, 2))
    if len(todo) == 1:
        # renamed apart, a lone unrestricted variable takes any image
        a, _, b, _ = todo[0]
        if (a.__class__ is Var and a.allowed is None) or (b.__class__ is Var and b.allowed is None):
            return True
    todo.reverse()
    return _unify(todo, {})


def apply_literal(lit: Literal, subst: Substitution) -> Literal:
    return Literal(lit.positive, lit.pred, tuple(apply_term(a, subst) for a in lit.args))


# ---------------------------------------------------------------------------
# Clauses


@dataclass(frozen=True)
class Clause:
    """A clause: a set of literals with a stable integer id.

    Duplicate literals are merged and the remainder is kept in canonical
    order, so two clauses with the same literals compare equal literal-wise
    regardless of construction order.
    """

    id: int
    literals: tuple[Literal, ...]

    def __post_init__(self):
        canon = tuple(sorted(set(self.literals), key=literal_key))
        object.__setattr__(self, "literals", canon)

    @classmethod
    def _canonical(cls, cid: int, literals: tuple[Literal, ...]) -> "Clause":
        """A clause from literals that are already distinct and in canonical
        order, kept as given: for a set that reads them off its rows."""
        clause = object.__new__(cls)
        object.__setattr__(clause, "id", cid)
        object.__setattr__(clause, "literals", literals)
        return clause

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self):
        return iter(self.literals)

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def is_ground(self) -> bool:
        return all(lit.is_ground() for lit in self.literals)

    def variables(self) -> list[Var]:
        """Variables in first-occurrence order, one per name."""
        seen: dict[str, Var] = {}
        for lit in self.literals:
            for a in lit.args:
                if not a.ground:
                    for v in a.variables:
                        seen.setdefault(v.name, v)
        return list(seen.values())

    def __str__(self) -> str:
        if not self.literals:
            return "$false"
        return " | ".join(map(str, self.literals))


class ClauseSet:
    """An ordered collection of clauses with stable ids and symbol tables.

    Instances are treated as immutable once built; operations that change
    membership return a new ClauseSet and keep surviving clause ids intact.

    A set is its numbering as much as its clauses, and every set is
    numbered by one rule.  Its birth gives, per clause, the places of its
    literals in canonical order (the atom of canonical rank r is place r,
    its negation place top + r, so sorted places are canonical order), and
    a ``source`` from a signed place (r, or -r for the negation) to its
    ``Literal``.  On first read of ``rows`` the atoms are numbered by rank
    among the places in use: atom r is the r-th smallest, so atom numbers
    follow the canonical order and ``literal`` reads the place of its atom.
    The places are:

    - DIMACS: the variables;
    - ``subset``: the parent's atom numbers, with its ``literal`` as
      source;
    - literal groups (both TPTP readers, clause objects, so
      ``from_clauses``, ``from_groups`` and ``splice``): each literal's
      atom's rank among the distinct atoms sorted by atom key, the
      predicate's ``_symbol_key`` then the argument texts.

    A set made from clause objects keeps them; the other births build
    ``Clause`` objects on read: ``by_id`` the one asked for, ``clauses``
    all of them.  Equality and repr are those of the clause objects and
    symbol tables.
    """

    __hash__ = None  # mutable tables, compared by value

    def __init__(
        self,
        clauses: list[Clause] | None = None,
        roles: dict[int, str] | None = None,
        names: dict[int, str] | None = None,
        predicates: dict[str, int] | None = None,
        functions: dict[str, int] | None = None,
    ):
        self._clauses = clauses if clauses is not None else []
        self.roles = roles if roles is not None else {}
        self.names = names if names is not None else {}
        self.predicates = predicates if predicates is not None else {}
        self.functions = functions if functions is not None else {}
        self._ids: list[int] | None = None  # by position
        self._pos: dict[int, int] | None = None  # by id
        # the birth: a callable that gives the place rows, top and source
        self._birth = partial(_literal_places, self._clauses)
        self._rows: list[tuple[int, ...]] | None = None
        self._place: list[int] | None = None  # per atom, its place
        self._source = None
        self._literals: dict[int, Literal] = {}  # the literal store
        self._atoms: list[Literal] | None = None  # read by ``atoms``

    @classmethod
    def _born(cls, ids: list[int], tables: tuple, birth,
              clauses: list[Clause] | None = None) -> "ClauseSet":
        """A set given by clause ids by position, the symbol tables (roles,
        names, predicates, functions) and its birth, a callable that gives
        its place rows, top and source (see ``ClauseSet``).  ``clauses`` are
        the clause objects, when they exist already."""
        cs = cls(clauses, *tables)
        cs._clauses, cs._ids, cs._birth = clauses, ids, birth
        return cs

    @classmethod
    def from_groups(
        cls,
        groups,
        roles: dict[int, str] | None = None,
        names: dict[int, str] | None = None,
    ) -> "ClauseSet":
        """Build a clause set from an iterable of literal collections.

        Ids are assigned consecutively from 1.  Symbol arities are checked
        across the whole set.
        """
        clauses = [Clause(i, tuple(lits)) for i, lits in enumerate(groups, 1)]
        return cls.from_clauses(clauses, roles=roles, names=names)

    @classmethod
    def from_clauses(
        cls,
        clauses: list[Clause],
        roles: dict[int, str] | None = None,
        names: dict[int, str] | None = None,
    ) -> "ClauseSet":
        ids = [c.id for c in clauses]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate clause ids")
        cs = cls(list(clauses), dict(roles or {}), dict(names or {}))
        cs._check_atoms()
        return cs

    def _check_symbols(self, clauses: list[Clause]) -> None:
        # the symbols of ``clauses``, clauses of this set, walked as a set of
        # their own that registers them in this set's tables
        ClauseSet(clauses, None, None, self.predicates, self.functions)._check_atoms()

    def _check_atoms(self) -> None:
        """Registers the set's symbols in its tables, in order of first
        occurrence; ArityError names the first clause that uses a symbol at
        a second arity.  Only each atom's first occurrence is walked
        (``_first_atoms``), and no clause object is built: an atom met
        again brings no symbol or arity that its first occurrence did not,
        so this registers and fails as a walk over every literal would.
        A term object already walked cannot conflict again, so a shared
        (interned) term is walked once, and an argument that is a variable
        or such a term costs one test; every term is held by the set, so
        ids stay unique for the duration of the walk."""
        rows, atoms = self.rows, self.atoms()

        def clause_of(a):  # the id of the first clause that holds atom a
            return next(cid for cid, row in zip(self.ids(), rows) if a in row or -a in row)

        walked: set[int] = set()
        predicates, functions = self.predicates, self.functions
        for a in self._first_atoms():
            lit = atoms[a - 1]
            args = lit.args
            seen = predicates.get(lit.pred)
            if seen != len(args):
                if seen is not None:
                    raise ArityError(
                        f"predicate {lit.pred!r} used at arity {seen} and "
                        f"{len(args)} (clause {clause_of(a)})"
                    )
                predicates[lit.pred] = len(args)
            for top in args:
                if top.__class__ is Var or id(top) in walked:
                    continue
                todo = [top]
                while todo:
                    t = todo.pop()
                    if t.__class__ is Var or id(t) in walked:
                        continue
                    walked.add(id(t))
                    seen = functions.get(t.functor)
                    if seen != len(t.args):
                        if seen is not None:
                            raise ArityError(
                                f"function symbol {t.functor!r} used at arity {seen} and "
                                f"{len(t.args)} (clause {clause_of(a)})"
                            )
                        functions[t.functor] = len(t.args)
                    todo.extend(reversed(t.args))

    # -- the object view ------------------------------------------------------

    @property
    def clauses(self) -> list[Clause]:
        if self._clauses is None:
            rows, literal = self.rows, self.literal
            for x in set(itertools.chain.from_iterable(rows)):
                literal(x)  # fills the store, which is then read by index
            make, get = Clause._canonical, self._literals.__getitem__
            self._clauses = [make(cid, tuple(map(get, row))) for cid, row in zip(self._ids, rows)]
        return self._clauses

    def literal(self, x: int) -> Literal:
        """The ``Literal`` of signed atom number x, whose atom must occur in
        the set (x itself need not): the birth's ``source`` of the place of
        atom |x|, signed like x, built once and held in the set's literal
        store."""
        lit = self._literals.get(x)
        if lit is None:
            if self._place is None:
                self.rows  # numbers the set
            p = self._place[abs(x) - 1]
            lit = self._literals[x] = self._source(p if x > 0 else -p)
        return lit

    def __len__(self) -> int:
        return len(self._ids) if self._clauses is None else len(self._clauses)

    def __iter__(self):
        return iter(self.clauses)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.clauses, self.roles, self.names, self.predicates, self.functions)
                == (other.clauses, other.roles, other.names, other.predicates, other.functions))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(clauses={self.clauses!r}, roles={self.roles!r}, "
                f"names={self.names!r}, predicates={self.predicates!r}, "
                f"functions={self.functions!r})")

    def ids(self) -> list[int]:
        if self._ids is None:
            self._ids = [c.id for c in self._clauses]
        return list(self._ids)

    def _positions(self) -> dict[int, int]:
        if self._pos is None:
            self._pos = {cid: p for p, cid in enumerate(self.ids())}
        return self._pos

    def by_id(self, cid: int) -> Clause:
        """The clause with id ``cid``; a set born without clause objects
        builds just that one until its whole object view is read."""
        try:
            p = self._positions()[cid]
        except KeyError:
            raise KeyError(f"no clause with id {cid}") from None
        if self._clauses is not None:
            return self._clauses[p]
        return Clause._canonical(cid, tuple(map(self.literal, self.rows[p])))

    def has_id(self, cid: int) -> bool:
        return cid in self._positions()

    def check_support(self, support_ids) -> frozenset[int]:
        """The support ids as a set; ValueError when one names no clause."""
        support = frozenset(support_ids)
        unknown = sorted(support - self._positions().keys())
        if unknown:
            raise ValueError(f"support id{'s' * (len(unknown) > 1)} "
                             f"{', '.join(map(str, unknown))} not in the clause set")
        return support

    def subset(self, keep_ids) -> "ClauseSet":
        """The sub-collection with the given ids, original order and ids kept.

        Its places are this set's atom numbers of the kept rows, and its
        source this set's ``literal``, so it numbers its atoms as a set
        made from its clauses would."""
        keep = set(keep_ids)
        unknown = keep - self._positions().keys()
        if unknown:
            raise KeyError(f"unknown clause ids: {sorted(unknown)}")
        ids = self.ids()
        where = [p for p, cid in enumerate(ids) if cid in keep]
        tables = ({i: r for i, r in self.roles.items() if i in keep},
                  {i: n for i, n in self.names.items() if i in keep},
                  dict(self.predicates), dict(self.functions))
        clauses = None if self._clauses is None else [self._clauses[p] for p in where]
        return ClauseSet._born([ids[p] for p in where], tables,
                               partial(_subset_places, self, where), clauses)

    def splice(self, replacements: dict[int, list[tuple[Literal, ...]]]) -> "ClauseSet":
        """Swap each clause named in ``replacements``, at its position, for new
        clauses with the given literals; an empty list removes the clause.

        New clauses take fresh ids counting up from ``max_id() + 1`` in
        clause order, the replaced clause's role and no name.  The symbol
        tables are the parent's with only the new clauses checked in, so, as
        with ``subset``, a symbol may outlive its last clause.
        """
        unknown = replacements.keys() - self._positions().keys()
        if unknown:
            raise KeyError(f"unknown clause ids: {sorted(unknown)}")
        roles = {i: r for i, r in self.roles.items() if i not in replacements}
        names = {i: n for i, n in self.names.items() if i not in replacements}
        ids = itertools.count(self.max_id() + 1)
        clauses: list[Clause] = []
        new: list[Clause] = []
        for c in self.clauses:
            if c.id not in replacements:
                clauses.append(c)
            for lits in replacements.get(c.id, ()):
                new.append(Clause(next(ids), tuple(lits)))
                clauses.append(new[-1])
                if c.id in self.roles:
                    roles[new[-1].id] = self.roles[c.id]
        cs = ClauseSet(clauses, roles, names, dict(self.predicates), dict(self.functions))
        cs._check_symbols(new)
        return cs

    # -- the numbering --------------------------------------------------------

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """Per clause, its literals as signed atom numbers in canonical
        order, negated for a negative literal: the birth's places, atom r
        being the r-th smallest place in use, so any place left unused only
        closes up.  Computed at most once per set."""
        if self._rows is None:
            places, top, self._source = self._birth()
            self._birth = None
            used = sorted({p if p <= top else p - top
                           for p in set(itertools.chain.from_iterable(places))})
            number = [0] * (2 * top + 1)  # by place
            for r, p in enumerate(used, 1):
                number[p], number[top + p] = r, -r
            self._rows = [tuple(map(number.__getitem__, row)) for row in places]
            self._place = used
        return self._rows

    @property
    def atom_count(self) -> int:
        """The number of atoms of the numbering."""
        self.rows  # numbers the set
        return len(self._place)

    def _first_atoms(self):
        """The atom numbers in order of first occurrence: clause order, then
        canonical literal order."""
        # the distinct literals first, so abs runs once per literal, not
        # once per occurrence
        literals = dict.fromkeys(itertools.chain.from_iterable(self.rows))
        return dict.fromkeys(map(abs, literals))

    def is_propositional(self) -> bool:
        """True when the predicate table holds symbols and each has arity
        0: then no atom takes arguments, so every atom is variable-free."""
        return bool(self.predicates) and not any(self.predicates.values())

    def is_ground(self) -> bool:
        return all(ground_flags(self))

    def atoms(self) -> list[Literal]:
        """All atoms of the set, as positive literals, in canonical order:
        atom r is item r-1.  Read off ``literal`` at most once per set."""
        if self._atoms is None:
            self._atoms = list(map(self.literal, range(1, self.atom_count + 1)))
        return list(self._atoms)

    def max_id(self) -> int:
        return max(self.ids(), default=0)

    def __str__(self) -> str:
        return "\n".join(f"c{c.id}: {c}" for c in self.clauses)


# ---------------------------------------------------------------------------
# Integer encoding


def _subset_places(parent: ClauseSet, where: list[int]
                   ) -> tuple[list[tuple[int, ...]], int, Callable[[int], Literal]]:
    """The birth of the subset of ``parent`` at positions ``where``: atom r
    of the parent is place r, its negation place n + r."""
    n, rows = parent.atom_count, parent.rows
    place = [*range(n + 1), *range(2 * n, n, -1)]  # by signed atom number
    return [tuple(map(place.__getitem__, rows[p])) for p in where], n, parent.literal


def _literal_places(clauses: list[Clause]
                    ) -> tuple[list[list[int]], int, Callable[[int], Literal]]:
    """The birth of clause objects: their distinct atoms, keyed by predicate
    and arguments and numbered as met, placed by ``_atom_places``."""
    number: dict[tuple, int] = {}
    atoms: list[Literal] = []
    rows = []
    for c in clauses:
        row = []
        for lit in c.literals:
            a = number.get((lit.pred, lit.args))
            if a is None:
                a = number[lit.pred, lit.args] = len(atoms) + 1
                atoms.append(lit)
            row.append(a if lit.positive else -a)
        rows.append(row)
    return _atom_places(rows, atoms)


def _atom_places(rows, atoms: list[Literal]
                 ) -> tuple[list[list[int]], int, Callable[[int], Literal]]:
    """The birth of rows of signed numbers into ``atoms``, one literal of
    either sign per distinct atom (atom a is item a-1): the atoms ranked
    once by atom key, ``literal_key`` without the sign, each row as the
    sorted set of its literals' places, and a source that reads ``atoms``."""
    n = len(atoms)
    # each predicate stands for its rank by ``_symbol_key``, so comparing
    # two keys compares one int before the argument texts
    preds = sorted({lit.pred for lit in atoms}, key=_symbol_key)
    symbol = {pred: r for r, pred in enumerate(preds)}
    keys = [(symbol[lit.pred], *map(str, lit.args)) for lit in atoms]
    order = sorted(range(n), key=keys.__getitem__)
    place = [0] * (2 * n + 1)  # by signed number, -a at the end
    for r, i in enumerate(order, 1):
        place[i + 1], place[-i - 1] = r, n + r
    ranked = [atoms[i] for i in order]
    rows = [sorted(set(map(place.__getitem__, row))) for row in rows]
    return rows, n, partial(_ranked_literal, ranked)


def _ranked_literal(ranked: list[Literal], p: int) -> Literal:
    # the source of ``_atom_places``: the literal of signed place p
    lit = ranked[abs(p) - 1]
    return lit if lit.positive == (p > 0) else lit.negated()


def ground_flags(cs: ClauseSet) -> list[bool]:
    """Per atom number, item 0 unused, whether the atom is variable-free:
    every atom of a propositional set is, with no literal read, and any
    other atom says so in its terms' ground flags."""
    if cs.is_propositional():
        return [True] * (cs.atom_count + 1)
    return [True, *map(Literal.is_ground, cs.atoms())]


def check_ground(ground, task: str) -> None:
    """ValueError unless every flag is true: one per atom of a numbering,
    saying whether it is variable-free."""
    if not all(ground):
        raise ValueError(f"{task} is defined for variable-free clause sets only")
