"""The fast DIMACS and TPTP readers against the line/token readers.

Each reader has a fast path for well-formed input and falls back to the
exact-error reader on anything else.  Both must give the same clause set
(clauses, names, roles, predicate and function tables) or the same
``ParseError`` text on every input.
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from altpath import parsing
from altpath.clauses import Clause, ClauseSet, Var, apply_literal
from altpath.generators import (
    bounded_occurrence,
    horn_tree,
    random_3sat,
    random_first_order,
)
from altpath.parsing import ParseError, parse_dimacs, parse_tptp, print_dimacs, print_tptp
from altpath.splitting import binary_split_plan, split_clause


def _snapshot(cs: ClauseSet):
    # the numbering first, read before any clause object exists
    return (
        cs.rows,
        cs.atoms(),
        [(c.id, c.literals) for c in cs.clauses],
        list(cs.names.items()),
        list(cs.roles.items()),
        list(cs.predicates.items()),
        list(cs.functions.items()),
    )


def _outcome(read, text: str):
    try:
        return "ok", _snapshot(read(text))
    except ParseError as exc:
        return "error", str(exc)


def _refuse_fast_tptp(self, text):
    raise parsing._NotFast


@contextlib.contextmanager
def _fast_paths_off():
    saved = parsing._FastTptp.parse, parsing._dimacs_fast
    parsing._FastTptp.parse = _refuse_fast_tptp
    parsing._dimacs_fast = lambda text: None
    try:
        yield
    finally:
        parsing._FastTptp.parse, parsing._dimacs_fast = saved


def _assert_same(read, text: str):
    fast = _outcome(read, text)
    with _fast_paths_off():
        slow = _outcome(read, text)
    assert fast == slow, text
    return fast


# ---------------------------------------------------------------------------
# Inputs


def _split_set(rng: random.Random) -> ClauseSet:
    """A first-order set with two clauses split in binary, with the
    restrictions that this leaves stripped from the variables, which TPTP
    cannot carry."""
    cs = random_first_order(rng, n_clauses=20)
    for _ in range(2):
        open_ids = [c.id for c in cs.clauses if c.variables()]
        cid = rng.choice(open_ids)
        cs = split_clause(cs, binary_split_plan(cs, cid, cs.by_id(cid).variables()[0]))
    stripped = []
    for c in cs.clauses:
        plain = {v.name: Var(v.name) for v in c.variables()}
        stripped.append(Clause(c.id, tuple(apply_literal(l, plain) for l in c.literals)))
    return ClauseSet.from_clauses(stripped, roles=cs.roles, names=cs.names)


def _tptp_texts(seed: int) -> list[str]:
    rng = random.Random(seed)
    sets = [
        random_first_order(rng, 40),
        random_first_order(rng, 25, max_width=4, max_depth=3),
        bounded_occurrence(rng, 3, 3, 8, 30, first_order=True),
        horn_tree(3, 2),
        _split_set(rng),
    ]
    texts = []
    for cs in sets:
        cs.roles.update({cid: rng.choice(parsing.SUPPORTED_ROLES) for cid in cs.ids()[:3]})
        printed = print_tptp(cs)
        texts.append(printed)
        lines = printed.splitlines()
        # unwrapped bodies, comments between statements, spread-out tokens
        texts.append("\n".join(l.replace(", (", ", ", 1)[:-3] + ")." for l in lines))
        texts.append("% header\n" + "\n/* block\n comment. */ % line\n".join(lines))
        texts.append(
            "\n".join(l.replace(",", " ,\n ").replace("(", " ( ").replace("|", "\t|  ") for l in lines)
        )
    return texts


FIXED_TPTP = [
    "cnf(bottom, axiom, $false).",
    "cnf(bottom, axiom, ($false)).",
    "cnf(c, axiom, ($false | p | $false)).",
    "cnf('quoted name', hypothesis, (p(a) | ~p(a))).",
    "cnf(c1, axiom, p(X)). cnf(c2, axiom, p(X)). cnf(c3, axiom, (p(X) | p(X))).",
    "cnf(c, axiom, ~ p ( f ( X , a ) ))   .",
    "cnf(c, axiom, (p(_X, g(_Y, b1)))).",
    "",
    "   \n% only a comment\n",
    # error cases of test_parsing.py
    "cnf(c, conjecture, p).",
    "cnf(c1, axiom, p(a)). cnf(c2, axiom, p(a, b)).",
    "cnf(c1, axiom, p(f(a))). cnf(c2, axiom, q(f(a, b))).",
    "cnf(c1, axiom,\n (p | )).",
    "include('nope.ax').",
    # more errors
    "cnf((, axiom, p).",
    "cnf(~, axiom, p).",
    "cnf(X, axiom, p).",
    "cnf(c, axiom, ~$false).",
    "cnf(c, axiom, p()).",
    "cnf(c, axiom, ((p | q))).",
    "cnf(c, axiom, (p) | q).",
    "cnf(c, axiom, (p(a)).",
    "cnf(c, axiom, p(a)) ).",
    "cnf(c, axiom, p(a b)).",
    "cnf(c, axiom, p(1)).",
    "cnf(c, axiom, X).",
    "cnf(c, axiom, p % comment\n).",
    "cnf(c, axiom, p /* unterminated",
    "cnf(c, axiom, p) cnf(d, axiom, q).",
    "cnfx(c, axiom, p).",
    "cnf(c, axiom, p).\n/* open comment",
    "cnf(c, axiom, pé).",
    "cnf(c, axiom, $falsex).",
    "cnf(c, axiom, p(f(X)).",
    "cnf(c, axiom, p(X)(a)).",
]

FIXED_DIMACS = [
    "p cnf 0 0\n",
    "",
    "c only a comment\n",
    "p cnf 5 2\n-05 1 0\n 2\n\n3 0\n",
    "c head\np  cnf 3 2\nc mid\n1 -2 0\n  c indented comment\n-3 0\n",
    "p cnf 2 2\n1 1 -1 0 0\n",
    "p cnf 12 1\n-10 9 -2 12 9 0\n",
    # error cases of test_parsing.py
    "p cnf x 2\n1 0\n",
    "p cnf 2 1\n3 0\n",
    "p cnf 2 1\n1 -0 2 0\n",
    "p cnf 2 1\n1 2\n",
    "1 2 0\n",
    "p cnf 2 3\n1 0\n2 0\n",
    # more errors
    "p cnf 2 2\n1 -00\n2 0\n",
    "p cnf 2 1\n-000 0\n",
    "p cnf 2 1\np cnf 2 1\n1 0\n",
    "p cnf 2 1\n1 a 0\n",
    "p cnf 2 1\n+1 0\n",
    "p cnf 20 1\n1_0 0\n",
    "p cnf 2 1\n-3 0\n",
    "p cnf 2 1\n1 2 c 0\n",
]


# ---------------------------------------------------------------------------
# Differential tests


@pytest.mark.parametrize("seed", range(3))
def test_fast_tptp_matches_token_parser_on_generated_sets(seed):
    for text in _tptp_texts(seed):
        kind, _ = _assert_same(parse_tptp, text)
        assert kind == "ok"


@pytest.mark.parametrize("seed", range(3))
def test_fast_dimacs_matches_line_reader_on_generated_sets(seed):
    rng = random.Random(seed)
    for cs in (random_3sat(rng, 30, 120), bounded_occurrence(rng, 3, 3, 12, 30)):
        printed = print_dimacs(cs)
        lines = printed.splitlines()
        commented = "\n".join(lines[:2] + ["c a comment", ""] + lines[2:]) + "\n"
        spread = lines[0] + "\n" + "\n".join(" ".join(lines[1:]).split(" ")) + "\n"
        for text in (printed, commented, spread):
            kind, _ = _assert_same(parse_dimacs, text)
            assert kind == "ok"


def _scrambled_dimacs(seed: int) -> str:
    """DIMACS over 10-200 variables, so that numeric and string order
    differ, with each clause's literals shuffled, some repeated, some
    tautologies and some empty clauses."""
    rng = random.Random(seed)
    n_vars = rng.randint(10, 200)
    rows = []
    for _ in range(rng.randint(20, 80)):
        row = [rng.choice((1, -1)) * rng.randint(1, n_vars)
               for _ in range(rng.choice((0, 1, 2, 3, 5, 8)))]
        if row and rng.random() < 0.3:
            row.append(row[0])
        if row and rng.random() < 0.2:
            row.append(-row[-1])
        rng.shuffle(row)
        rows.append(row)
    return f"p cnf {n_vars} {len(rows)}\n" + "".join(" ".join(map(str, r + [0])) + "\n"
                                                   for r in rows)


@pytest.mark.parametrize("seed", range(6))
def test_fast_dimacs_builds_canonical_clauses_on_scrambled_texts(seed, monkeypatch):
    """The fast reader sorts and merges each clause itself; the clauses it
    builds are the ones ``Clause`` would make, without a second sort."""
    text = _scrambled_dimacs(seed)
    kind, _ = _assert_same(parse_dimacs, text)
    assert kind == "ok"

    def broken(*args, **kwargs):
        raise AssertionError("fell back to the line reader")

    monkeypatch.setattr(parsing, "_dimacs_lines", broken)
    for c in parse_dimacs(text).clauses:
        assert Clause(c.id, c.literals) == c


@pytest.mark.parametrize("text", FIXED_TPTP)
def test_fast_tptp_matches_token_parser_on_fixed_inputs(text):
    _assert_same(parse_tptp, text)


@pytest.mark.parametrize("text", FIXED_DIMACS)
def test_fast_dimacs_matches_line_reader_on_fixed_inputs(text):
    _assert_same(parse_dimacs, text)


def test_include_reads_the_same_on_both_paths(tmp_path):
    (tmp_path / "sub.ax").write_text("cnf(inc, axiom, q(b)).\n")
    text = "include('sub.ax').\ncnf(main, axiom, (p(a) | ~q(b))).\n"
    for inp in (text, text.replace("sub", "missing")):
        _assert_same(lambda t: parse_tptp(t, include_base=str(tmp_path)), inp)


_NOISE = "(),|~.%'$ \nxXa0-/*"


def _damaged(rng: random.Random, text: str, count: int) -> list[str]:
    """Truncated copies and copies with one character replaced, inserted
    or deleted."""
    out = [text[: rng.randrange(len(text))] for _ in range(count)]
    for _ in range(count):
        i = rng.randrange(len(text))
        c = rng.choice(_NOISE)
        out.append(rng.choice((text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                               text[:i] + text[i + 1:])))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_damaged_tptp_reads_the_same_on_both_paths(seed):
    rng = random.Random(100 + seed)
    cs = random_first_order(rng, 12)
    cs.roles[2] = "negated_conjecture"
    for text in _damaged(rng, print_tptp(cs), 60):
        _assert_same(parse_tptp, text)


@pytest.mark.parametrize("seed", range(3))
def test_damaged_dimacs_reads_the_same_on_both_paths(seed):
    rng = random.Random(200 + seed)
    text = print_dimacs(random_3sat(rng, 9, 12))
    for damaged in _damaged(rng, text, 60):
        _assert_same(parse_dimacs, damaged)


_TPTP_TOKENS = ["cnf", "(", ")", ",", ".", "|", "~", "p", "q", "f", "a", "X", "_Y", "$false",
                "axiom", "hypothesis", " ", "\n", "%c\n", "/*x.*/", "/*", "'n'", "'", "1",
                "include", "cnf(c, axiom, (p(X) | ~q(f(a), X))).", "p(f(X), a)"]
_DIMACS_TOKENS = ["p cnf 3 2\n", "p", "cnf", "1", "2", "3", "-1", "-3", "4", "0", "-0", "-00",
                  "05", "-05", "+1", "x", "c", " ", "\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TPTP_TOKENS), min_size=1, max_size=30))
def test_token_soup_tptp_reads_the_same_on_both_paths(tokens):
    _assert_same(parse_tptp, "".join(tokens))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_DIMACS_TOKENS), min_size=1, max_size=30))
def test_token_soup_dimacs_reads_the_same_on_both_paths(tokens):
    _assert_same(parse_dimacs, "".join(tokens))


# ---------------------------------------------------------------------------
# Every birth numbers a set alike


def _numbering(cs: ClauseSet):
    # the literal store is read for both signs of every atom before any
    # clause object exists, so a birth that fills it its own way shows
    literals = [cs.literal(x) for a in range(1, cs.atom_count + 1) for x in (a, -a)]
    return (cs.rows, cs.atoms(), literals, [(c.id, c.literals) for c in cs.clauses],
            list(cs.names.items()), list(cs.roles.items()),
            list(cs.predicates.items()), list(cs.functions.items()))


def test_every_birth_numbers_the_benchmark_sets_alike(fo_filter_texts):
    """The fast reader, the tokenizing reader, the clause objects and the
    subset of every clause give equal rows, order, clauses and tables."""
    assert len(fo_filter_texts) == 22
    for text in fo_filter_texts:
        fast = parse_tptp(text)
        want = _numbering(fast)
        with _fast_paths_off():
            assert _numbering(parse_tptp(text)) == want
        objects = ClauseSet.from_clauses(fast.clauses, roles=fast.roles, names=fast.names)
        assert _numbering(objects) == want
        unread = parse_tptp(text)  # its subset derives the clause objects
        assert _numbering(unread.subset(unread.ids())) == want


def test_parse_reads_no_literal_back(fo_filter_texts, monkeypatch):
    """A TPTP set is born holding its reader's atoms: parse_tptp asks
    ``ClauseSet.literal`` for none, and each item of ``atoms()`` is the
    literal that the reader interned, on both reader paths."""
    tables = []
    init = parsing._Atoms.__init__

    def recorded(self):
        init(self)
        tables.append(self)

    def refused(self, x):
        raise AssertionError("parse_tptp read a literal back")

    monkeypatch.setattr(parsing._Atoms, "__init__", recorded)
    monkeypatch.setattr(ClauseSet, "literal", refused)
    small = ["cnf(c1, axiom, (~p(a) | q)). cnf(c2, axiom, (~q | $false)). cnf(c3, axiom, p(X)).",
             "cnf(c, axiom, (p(f(X), a) | ~p(f(X), a) | r(g(X, Y))))."]
    for fast, texts in ((True, fo_filter_texts + small), (False, fo_filter_texts[:2] + small)):
        for text in texts:
            with contextlib.nullcontext() if fast else _fast_paths_off():
                cs = parse_tptp(text)
            interned = {(lit.pred, lit.args): lit for lit in tables[-1].atoms}
            atoms = cs.atoms()
            assert len(atoms) == len(interned) == cs.atom_count
            for atom in atoms:
                assert atom is interned[atom.pred, atom.args]


# ---------------------------------------------------------------------------
# The fast path is the one taken


def test_fast_path_stays_taken_on_printed_sets(monkeypatch):
    """With the fallback readers broken, printed sets still parse: a fast
    path that quietly fell back on every file would lose the whole gain."""

    def broken(*args, **kwargs):
        raise AssertionError("fell back to the exact-error reader")

    monkeypatch.setattr(parsing, "_TptpParser", broken)
    monkeypatch.setattr(parsing, "_dimacs_lines", broken)
    for seed in range(3):
        rng = random.Random(seed)
        for cs in (random_first_order(rng, 60),
                   bounded_occurrence(rng, 3, 3, 10, 40, first_order=True),
                   _split_set(rng)):
            assert len(parse_tptp(print_tptp(cs))) == len(cs)
        cs = random_3sat(rng, 40, 160)
        assert len(parse_dimacs(print_dimacs(cs))) == len(cs)


def test_parse_interns_literals_and_terms():
    cs = parse_tptp(
        "cnf(c1, axiom, (p(f(a), X) | q(a))). cnf(c2, axiom, (p(f(a), X) | ~q(a)))."
    )
    c1, c2 = cs.clauses
    p1, p2 = c1.literals[0], c2.literals[0]
    assert p1 is p2
    assert c1.literals[1].args[0] is c2.literals[1].args[0] is p1.args[0].args[0]
    d = parse_dimacs("p cnf 2 2\n1 -2 0\n-2 1 0\n")
    assert d.clauses[0].literals[0] is d.clauses[1].literals[0]
    # a second parse builds its own objects
    assert parse_tptp("cnf(c1, axiom, (p(f(a), X) | q(a))).").clauses[0].literals[0] is not p1
