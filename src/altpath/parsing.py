"""Readers and writers for DIMACS CNF and a CNF-only TPTP subset.

Both printers are deterministic: literals appear in the clause's canonical
order (positive before negative, atoms in lexicographic/numeric order), so
printing the same clause set twice yields identical bytes.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from altpath.clauses import (
    App,
    ArityError,
    ClauseSet,
    Literal,
    Term,
    Var,
    _atom_places,
)


class ParseError(ValueError):
    """Input rejected, with the offending location when known."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        where = ""
        if source:
            where += f"{source}:"
        if line is not None:
            where += f"line {line}: "
        elif where:
            where += " "
        super().__init__(where + message)


# ---------------------------------------------------------------------------
# DIMACS


def _decode(data: str | bytes) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


_PROBLEM_LINE = re.compile(r"p\s+cnf\s+(\d+)\s+(\d+)")


def parse_dimacs(data: str | bytes, source: str | None = None) -> ClauseSet:
    """Parse DIMACS CNF.  Atoms are named by their variable index.

    Well-formed input is read in one pass over its integers; anything else
    is read again line by line, which locates the error.  Either way the
    set is born from the integers (``_dimacs_set``).
    """
    text = _decode(data)
    ints = _dimacs_fast(text)
    if ints is None:
        ints = _dimacs_lines(text, source)
    return _dimacs_set(ints)


def _dimacs_set(ints: list[int]) -> ClauseSet:
    """The set born from clause integers, each clause ended by a 0 (see
    ``ClauseSet``): a variable is its atom's place, since digit names sort
    numerically, so each clause is the sorted set of its literals' places,
    and the predicate table registers the variables in order of first
    occurrence.  No ``Clause`` or ``Literal`` is built until one is read,
    and then one ``Literal`` per signed number."""
    cs = ClauseSet._born(list(range(1, ints.count(0) + 1)), ({}, {}, {}, {}),
                         partial(_dimacs_places, ints))
    first = cs._first_atoms()  # numbers the set
    variable = cs._place  # by atom number
    cs.predicates.update((str(variable[a - 1]), 0) for a in first)
    return cs


def _dimacs_literal(v: int) -> Literal:
    return Literal(v > 0, str(abs(v)))


def _dimacs_fast(text: str) -> list[int] | None:
    """The clause integers of well-formed DIMACS, each clause ended by a 0;
    None to defer to the line reader."""
    lines = text.splitlines()
    for start, raw in enumerate(lines):
        line = raw.strip()
        if line and not line.startswith("c"):
            break
    else:
        return None
    m = _PROBLEM_LINE.fullmatch(line)
    if m is None:
        return None
    n_vars, declared = int(m.group(1)), int(m.group(2))
    body = "\n".join(lines[start + 1:])
    if "c" in body:
        body = "\n".join(l for l in lines[start + 1:] if not l.lstrip().startswith("c"))
    # int() also takes '+1' and '1_0'; any '-0' prefix may be a negative zero
    if "+" in body or "_" in body or "-0" in body:
        return None
    try:
        ints = list(map(int, body.split()))
    except ValueError:
        return None
    if ints and (ints[-1] != 0 or max(ints) > n_vars or -min(ints) > n_vars):
        return None
    if ints.count(0) != declared:
        return None
    return ints


def _dimacs_places(ints: list[int]) -> tuple[list[list[int]], int, Callable[[int], Literal]]:
    """The birth of checked clause integers: each clause as the sorted set
    of its literals' places, and the top place.  Its lists are sized by the
    largest variable used, not the declared one."""
    ends = [i for i, v in enumerate(ints) if not v]
    top = max(max(ints, default=0), -min(ints, default=0))
    # literal v's place in canonical order: v itself when positive, past
    # every positive one when negative (a zero's place is never read)
    places = [v if v > 0 else top - v for v in ints]
    sorted_rows = []
    begin = 0
    for end in ends:
        sorted_rows.append(sorted(set(places[begin:end])))
        begin = end + 1
    return sorted_rows, top, _dimacs_literal


def _dimacs_lines(text: str, source: str | None) -> list[int]:
    """``_dimacs_fast``'s result for any DIMACS the line reader takes, or
    the ``ParseError`` that locates what it refuses."""
    n_vars: int | None = None
    declared_clauses: int | None = None
    ints: list[int] = []
    open_line: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError("duplicate problem line", lineno, source)
            m = _PROBLEM_LINE.fullmatch(line)
            if not m:
                raise ParseError(f"malformed problem line {line!r}", lineno, source)
            n_vars, declared_clauses = int(m.group(1)), int(m.group(2))
            continue
        if n_vars is None:
            raise ParseError("clause data before problem line", lineno, source)
        for tok in line.split():
            if not re.fullmatch(r"-?\d+", tok):
                raise ParseError(f"invalid token {tok!r}", lineno, source)
            val = int(tok)
            if val == 0 and tok.startswith("-"):
                raise ParseError("literal index 0 in clause body", lineno, source)
            if val == 0:
                open_line = None
            elif abs(val) > n_vars:
                raise ParseError(
                    f"literal {val} exceeds declared variable count {n_vars}",
                    lineno,
                    source,
                )
            elif open_line is None:
                open_line = lineno
            ints.append(val)
    if open_line is not None:
        raise ParseError("unterminated clause at end of input", open_line, source)
    if n_vars is None:
        raise ParseError("no problem line 'p cnf VARIABLES CLAUSES'", None, source)
    if declared_clauses is not None and declared_clauses != ints.count(0):
        raise ParseError(
            f"problem line declares {declared_clauses} clauses, found {ints.count(0)}",
            None,
            source,
        )
    return ints


def print_dimacs(cs: ClauseSet) -> str:
    """Serialize a propositional clause set with integer atom names, from
    its numbering: each clause's signed atom numbers, in order, with one
    literal read per atom."""
    if not cs.is_ground():
        raise ValueError("DIMACS output requires a variable-free clause set")
    indices: list[int] = []
    for name, arity in cs.predicates.items():
        if arity != 0 or not name.isdigit():
            raise ValueError(
                f"DIMACS output requires integer-named propositional atoms, got {name!r}"
            )
        indices.append(int(name))
    n_vars = max(indices, default=0)
    text = [""] * (2 * cs.atom_count + 1)  # by signed atom number
    for a, atom in enumerate(cs.atoms(), 1):
        v = int(atom.pred)
        text[a], text[-a] = str(v), str(-v)
    lines = [f"p cnf {n_vars} {len(cs)}"]
    lines += [" ".join([*map(text.__getitem__, row), "0"]) for row in cs.rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# TPTP (CNF subset)

SUPPORTED_ROLES = ("axiom", "hypothesis", "negated_conjecture")

_WS = r"\s+|%[^\n]*|/\*.*?\*/"  # whitespace and comments
_TOKEN = re.compile(
    rf"""
    (?P<ws>{_WS})
  | (?P<lower>[a-z][A-Za-z0-9_]*)
  | (?P<upper>[A-Z_][A-Za-z0-9_]*)
  | (?P<dfalse>\$false)
  | (?P<quoted>'[^']*')
  | (?P<punct>[(),.|~])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class _Tok:
    kind: str
    text: str
    line: int


def _tokenize(text: str, source: str | None) -> list[_Tok]:
    out: list[_Tok] = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, source)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind != "ws":
            out.append(_Tok(kind, chunk, line))
        line += chunk.count("\n")
        pos = m.end()
    return out


class _Atoms:
    """The interning tables of one parse, and the one term reader of both
    TPTP readers.

    Each distinct term is one object, keyed by a leaf's text or by its
    functor and the ids of its interned arguments, so no term is ever
    hashed, and built once, so its hash, ground flag and text are found
    once.  Each distinct atom, keyed alike, gets a number, counting from 1,
    and keeps the atom as a positive ``Literal``, the one its set reads
    most: a literal is read as its atom's number, negated when the literal
    is.
    """

    def __init__(self):
        self.terms: dict[str | tuple, Term] = {}
        self.numbers: dict[tuple, int] = {}
        self.atoms: list[Literal] = []  # atom a is item a-1

    def args(self, toks: list[str], i: int, fail) -> tuple[tuple[Term, ...], int]:
        """The comma-separated terms from token i to the ')' that closes
        them, and the index past that ')'.  The tokens are read with a stack
        of the applications still open, each with its arguments so far, so
        nesting costs no recursion.  ``fail(i, message)`` is the exception
        to raise for token i (i == len(toks) at the end of the tokens)."""
        terms = self.terms
        open_apps: list[tuple[str, list[Term]]] = []
        args: list[Term] = []
        n = len(toks)
        while True:
            # a term
            if i == n:
                raise fail(i, "unexpected end of input")
            tok = toks[i]
            first = tok[0]
            if "a" <= first <= "z":
                if i + 1 < n and toks[i + 1] == "(":
                    open_apps.append((tok, args))
                    args = []
                    i += 2
                    continue
            elif not ("A" <= first <= "Z" or first == "_"):
                raise fail(i, f"expected a term, got {tok!r}")
            t = terms.get(tok)
            if t is None:
                t = terms[tok] = App(tok) if "a" <= first <= "z" else Var(tok)
            args.append(t)
            i += 1
            # then ',' before the next term, or ')' closing applications
            while True:
                if i < n and toks[i] == ",":
                    i += 1
                    break
                if i == n:
                    raise fail(i, "unexpected end of input")
                if toks[i] != ")":
                    raise fail(i, f"expected ')', got {toks[i]!r}")
                i += 1
                if not open_apps:
                    return tuple(args), i
                functor, outer = open_apps.pop()
                key = (functor, *map(id, args))
                t = terms.get(key)
                if t is None:
                    t = terms[key] = App(functor, tuple(args))
                outer.append(t)
                args = outer

    def literal(self, positive: bool, pred: str, args: tuple[Term, ...]) -> int:
        """The signed atom number of the literal."""
        key = (pred, *map(id, args))
        a = self.numbers.get(key)
        if a is None:
            self.atoms.append(Literal(True, pred, args))
            a = self.numbers[key] = len(self.atoms)
        return a if positive else -a


class _TptpParser:
    def __init__(self, text: str, source: str | None, include_base: str | None,
                 table: _Atoms, seen_files: set[str] | None = None):
        self.toks = _tokenize(text, source)
        self.texts = [tok.text for tok in self.toks]
        self.pos = 0
        self.source = source
        self.include_base = include_base
        self.table = table
        self.seen_files = seen_files if seen_files is not None else set()
        self.groups: list[tuple[str, str, list[int]]] = []

    def error(self, message: str, at: int | None = None) -> ParseError:
        """The error at token ``at``, by default the next one; past the last
        token it has no line."""
        at = self.pos if at is None else at
        line = self.toks[at].line if at < len(self.toks) else None
        return ParseError(message, line, self.source)

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, text: str | None = None, kind: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", None, self.source)
        if text is not None and tok.text != text:
            raise self.error(f"expected {text!r}, got {tok.text!r}")
        if kind is not None and tok.kind != kind:
            raise self.error(f"expected {kind}, got {tok.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> list[tuple[str, str, list[int]]]:
        while self.peek() is not None:
            tok = self.peek()
            if tok.text == "include":
                self._include()
            elif tok.text == "cnf":
                self._annotated()
            else:
                raise self.error(f"expected 'cnf' or 'include', got {tok.text!r}")
        return self.groups

    def _include(self) -> None:
        self.take("include")
        self.take("(")
        path_tok = self.take(kind="quoted")
        self.take(")")
        self.take(".")
        rel = path_tok.text.strip("'")
        base = self.include_base or "."
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        full = os.path.normpath(full)
        if not os.path.exists(full):
            raise ParseError(
                f"cannot resolve include {rel!r} (looked at {full})",
                path_tok.line,
                self.source,
            )
        if full in self.seen_files:
            raise ParseError(f"circular include of {rel!r}", path_tok.line, self.source)
        self.seen_files.add(full)
        with open(full, "r", encoding="utf-8") as handle:
            text = handle.read()
        sub = _TptpParser(text, full, self.include_base, self.table, self.seen_files)
        self.groups.extend(sub.parse())

    def _annotated(self) -> None:
        self.take("cnf")
        self.take("(")
        name_tok = self.take()
        if name_tok.kind not in ("lower", "quoted"):
            raise ParseError(
                f"expected a formula name (lower word or 'quoted'), got {name_tok.text!r}",
                name_tok.line,
                self.source,
            )
        name = name_tok.text
        self.take(",")
        role_tok = self.take()
        role = role_tok.text
        if role not in SUPPORTED_ROLES:
            raise ParseError(
                f"unsupported role {role!r} in cnf({name}, ...); "
                f"supported roles: {', '.join(SUPPORTED_ROLES)}",
                role_tok.line,
                self.source,
            )
        self.take(",")
        lits = self._formula(name)
        self.take(")")
        self.take(".")
        self.groups.append((name, role, lits))

    def _formula(self, name: str) -> list[int]:
        # literals never start with '(' in this subset, so a leading
        # parenthesis always wraps the whole disjunction
        tok = self.peek()
        if tok is not None and tok.text == "(":
            self.take("(")
            lits = self._disjunction(name)
            self.take(")")
            return lits
        return self._disjunction(name)

    def _disjunction(self, name: str) -> list[int]:
        lits = self._literal(name)
        while self.peek() is not None and self.peek().text == "|":
            self.take("|")
            lits.extend(self._literal(name))
        return lits

    def _literal(self, name: str) -> list[int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", None, self.source)
        positive = True
        if tok.text == "~":
            self.take("~")
            positive = False
            tok = self.peek()
        if tok is not None and tok.kind == "dfalse":
            if not positive:
                raise self.error("negated $false is not part of the CNF subset")
            self.take()
            return []  # $false contributes no literal: the empty clause
        if tok is None or tok.kind != "lower":
            got = tok.text if tok else "end of input"
            raise self.error(f"expected a predicate in cnf({name}, ...), got {got!r}")
        pred = self.take().text
        args: tuple[Term, ...] = ()
        if self.peek() is not None and self.peek().text == "(":
            args, self.pos = self.table.args(self.texts, self.pos + 1,
                                             lambda at, message: self.error(message, at))
        return [self.table.literal(positive, pred, args)]


class _NotFast(Exception):
    """The fast TPTP reader met something it does not take."""


# One well-formed ``cnf(name, role, body).`` statement with plain whitespace
# between its tokens.  The body holds no '.', so it ends at the last ')'
# before the statement's full stop; _FastTptp checks it token by token.
_CNF = re.compile(
    r"cnf\s*\(\s*([a-z][A-Za-z0-9_]*|'[^']*')\s*,"
    r"\s*(axiom|hypothesis|negated_conjecture)\s*,([^.]*)\)\s*\."
)
# Whitespace and comments, consumed exactly as the tokenizer consumes them.
_SKIP = re.compile(rf"(?:{_WS})*", re.DOTALL)
_FAST_LITERAL = re.compile(
    r"\s*(~?)\s*(?:(\$false)|([a-z][A-Za-z0-9_]*)\s*(?:\((.*)\))?)\s*", re.DOTALL
)
_ARG_TOKEN = re.compile(r"[A-Za-z0-9_]+|\S")


class _FastTptp(_Atoms):
    """Reads well-formed CNF-subset TPTP with one regex per statement.

    Literal and argument texts are memoised, and terms and atoms are
    interned in the reader's own tables (``_Atoms``).  Anything outside the
    plain statement shape (includes, comments inside a statement, syntax
    errors) raises ``_NotFast`` and the caller re-reads the input with
    ``_TptpParser``, which reports the error.
    """

    def __init__(self):
        super().__init__()
        self.literal_of: dict[str, int | None] = {}
        self.args_of: dict[str, tuple[Term, ...]] = {}  # by argument text

    def parse(self, text: str) -> list[tuple[str, str, list[int]]]:
        triples = []
        literal_of = self.literal_of
        skip, statement = _SKIP.match, _CNF.match
        pos, end = skip(text).end(), len(text)
        while pos < end:
            m = statement(text, pos)
            if m is None:
                raise _NotFast
            name, role, body = m.groups()
            body = body.strip()
            # a leading parenthesis always wraps the whole disjunction
            if body.startswith("("):
                if not body.endswith(")"):
                    raise _NotFast
                body = body[1:-1]
            lits = []
            for part in body.split("|"):
                try:
                    lit = literal_of[part]
                except KeyError:
                    lit = literal_of[part] = self._literal(part)
                if lit is not None:
                    lits.append(lit)
            triples.append((name, role, lits))
            pos = skip(text, m.end()).end()
        return triples

    def _literal(self, text: str) -> int | None:
        m = _FAST_LITERAL.fullmatch(text)
        if m is None:
            raise _NotFast
        negated, dfalse, pred, args_text = m.groups()
        if dfalse:
            if negated:
                raise _NotFast
            return None  # $false contributes no literal: the empty clause
        args: tuple[Term, ...] = ()
        if args_text is not None:
            args = self.args_of.get(args_text)
            if args is None:
                args = self.args_of[args_text] = self._args(args_text)
        return self.literal(not negated, pred, args)

    def _args(self, text: str) -> tuple[Term, ...]:
        """The comma-separated terms of ``text``."""
        toks = _ARG_TOKEN.findall(text)
        toks.append(")")  # closes them
        args, end = self.args(toks, 0, lambda at, message: _NotFast())
        if end != len(toks):
            raise _NotFast
        return args


def parse_tptp(
    data: str | bytes,
    source: str | None = None,
    include_base: str | None = None,
) -> ClauseSet:
    """Parse the CNF subset of TPTP: cnf(...) formulas and simple includes.

    Include paths resolve against ``include_base`` (falling back to the
    current directory).  Well-formed input without includes is read by a
    fast statement reader; anything else is read again by the tokenizing
    parser, which locates the error.  Both intern each distinct term and
    atom once (``_Atoms``) and give each clause as its literals' signed
    atom numbers, from which the set is born (see ``ClauseSet``): the atoms
    are ranked once by atom key and each literal placed by its atom's
    rank.  No ``Clause`` is built until one is read.  Arity consistency is
    enforced across the whole set, over the distinct atoms.
    """
    text = _decode(data)
    try:
        table = _FastTptp()
        triples = table.parse(text)
    except _NotFast:
        table = _Atoms()
        triples = _TptpParser(text, source, include_base, table).parse()
    ids = list(range(1, len(triples) + 1))
    names = {cid: name for cid, (name, _, _) in zip(ids, triples)}
    roles = {cid: role for cid, (_, role, _) in zip(ids, triples)}
    rows = [lits for _, _, lits in triples]
    cs = ClauseSet._born(ids, (roles, names, {}, {}), partial(_atom_places, rows, table.atoms))
    try:
        cs._check_atoms()
    except ArityError as exc:
        raise ParseError(str(exc), None, source) from exc
    return cs


def print_tptp(cs: ClauseSet) -> str:
    """Serialize as annotated cnf() formulas, one per line.  A restricted
    variable has no TPTP form: ``splitting.expand_restricted`` rewrites it
    away, and a clause with one is refused."""
    lines = []
    for clause in cs.clauses:
        name = cs.names.get(clause.id, f"c{clause.id}")
        role = cs.roles.get(clause.id, "axiom")
        body = str(clause)
        # a restricted variable prints as X{a,b}
        if "{" in body and any(v.allowed is not None for v in clause.variables()):
            raise ValueError(
                f"clause {name} ({body}) has a restricted variable, which TPTP "
                "cannot carry; expand_restricted rewrites it away"
            )
        lines.append(f"cnf({name}, {role}, ({body})).")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Format detection


def detect_format(data: str | bytes, path: str | None = None) -> str:
    """Guess 'dimacs' or 'tptp' from the file name or the content."""
    if path:
        lowered = path.lower()
        if lowered.endswith((".cnf", ".dimacs")):
            return "dimacs"
        if lowered.endswith((".p", ".ax", ".tptp")):
            return "tptp"
    text = _decode(data)
    for raw in text.splitlines():
        line = raw.strip()
        # a statement or a comment opens a TPTP line
        if re.match(r"(?:cnf|include)\s*\(|%|/\*", line):
            return "tptp"
        if line.startswith("p cnf") or (line.startswith("c") and "(" not in line):
            return "dimacs"
    return "dimacs"


def parse_auto(data: str | bytes, path: str | None = None,
               include_base: str | None = None) -> tuple[ClauseSet, str]:
    fmt = detect_format(data, path)
    if fmt == "dimacs":
        return parse_dimacs(data, source=path), fmt
    return parse_tptp(data, source=path, include_base=include_base), fmt


def print_format(cs: ClauseSet, fmt: str) -> str:
    if fmt == "dimacs":
        return print_dimacs(cs)
    if fmt == "tptp":
        return print_tptp(cs)
    raise ValueError(f"unknown format {fmt!r}")
