"""DIMACS and TPTP readers/writers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from altpath import parsing
from altpath.clauses import App, Literal, Var
from altpath.parsing import (
    ParseError,
    detect_format,
    parse_dimacs,
    parse_tptp,
    print_dimacs,
    print_tptp,
)


# ---------------------------------------------------------------------------
# DIMACS


def test_dimacs_basic():
    cs = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    assert len(cs) == 2
    c1, c2 = cs.clauses
    assert c1.literals == (Literal(True, "1"), Literal(False, "2"))
    assert c2.literals == (Literal(True, "2"),)


def test_dimacs_empty_clause():
    cs = parse_dimacs("p cnf 1 1\n0\n")
    assert len(cs) == 1
    assert cs.by_id(1).is_empty


def test_dimacs_comments_and_blank_lines():
    cs = parse_dimacs("c a comment\n\np cnf 1 1\nc another\n1 0\n")
    assert len(cs) == 1


def test_dimacs_clause_spanning_lines():
    cs = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert len(cs.by_id(1)) == 3


def test_dimacs_malformed_header():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p cnf x 2\n1 0\n")
    assert "line 1" in str(err.value)


def test_dimacs_literal_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p cnf 2 1\n3 0\n")
    assert "exceeds" in str(err.value) and "line 2" in str(err.value)


def test_dimacs_negative_zero_rejected():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p cnf 2 1\n1 -0 2 0\n")
    assert "0" in str(err.value)


@pytest.mark.parametrize("token", ["-00", "-000", "-0000000"])
def test_dimacs_negative_zero_with_more_digits_rejected(token):
    # not a clause terminator: '1 -00' would otherwise close a clause early
    with pytest.raises(ParseError) as err:
        parse_dimacs(f"p cnf 2 2\n1 {token}\n2 0\n")
    assert "literal index 0 in clause body" in str(err.value)
    assert "line 2" in str(err.value)


def test_dimacs_leading_zero_literal_accepted():
    cs = parse_dimacs("p cnf 5 1\n-05 1 0\n")
    assert cs.by_id(1).literals == (Literal(True, "1"), Literal(False, "5"))


@pytest.mark.parametrize("text, error", [
    ("p cnf ٣ 1\n1 0\n", "line 1: malformed problem line 'p cnf ٣ 1'"),
    ("p cnf 3 ١\n1 0\n", "line 1: malformed problem line 'p cnf 3 ١'"),
    ("p cnf 3 1\n١ -2 0\n", "line 2: invalid token '١'"),
    ("p cnf 3 2\n1 0\n-٢ 0\n", "line 3: invalid token '-٢'"),
], ids=["variables", "clauses", "literal", "negative-literal"])
def test_dimacs_digits_are_ascii(text, error):
    # int() and \d take the digits of every script ('٣' is 3), and the
    # fast reader defers these texts to the line reader, which refuses them
    assert parsing._dimacs_fast(text) is None
    with pytest.raises(ParseError) as err:
        parse_dimacs(text, source="in.cnf")
    assert str(err.value) == f"in.cnf:{error}"


@pytest.mark.parametrize("negative", ["-2", "-02"])
def test_dimacs_declared_variable_count_sizes_nothing(negative):
    # both readers size their lists by the variables used: a list of
    # the declared 10**18 entries is refused at once, without being filled
    cs = parse_dimacs(f"p cnf {10 ** 18} 2\n1 {negative} 0\n2 0\n")
    assert (len(cs), cs.atom_count) == (2, 2)
    assert str(cs) == "c1: 1 | ~2\nc2: 2"


def test_dimacs_unterminated_clause():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_dimacs_missing_header():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")


@pytest.mark.parametrize("text", ["", "c only a comment\n", "\n  \nc one\nc two\n"])
def test_dimacs_without_a_problem_line_is_refused(text):
    with pytest.raises(ParseError, match="no problem line"):
        parse_dimacs(text, source="in.cnf")


def test_dimacs_clause_count_mismatch():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 3\n1 0\n2 0\n")


def test_dimacs_print_is_stable():
    cs = parse_dimacs("p cnf 3 2\n-3 1 0\n2 0\n")
    text = print_dimacs(cs)
    assert text == print_dimacs(parse_dimacs(text))
    reparsed = parse_dimacs(text)
    assert [c.literals for c in reparsed.clauses] == [c.literals for c in cs.clauses]


def test_dimacs_print_rejects_named_atoms():
    cs = parse_tptp("cnf(c1, axiom, (p | ~q)).")
    with pytest.raises(ValueError):
        print_dimacs(cs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(1, 6).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=0,
            max_size=4,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_dimacs_round_trip(clause_ints):
    lines = ["p cnf 6 %d" % len(clause_ints)]
    for ints in clause_ints:
        lines.append(" ".join(str(i) for i in ints + [0]))
    cs = parse_dimacs("\n".join(lines) + "\n")
    again = parse_dimacs(print_dimacs(cs))
    assert [c.literals for c in again.clauses] == [c.literals for c in cs.clauses]
    assert print_dimacs(again) == print_dimacs(cs)


# ---------------------------------------------------------------------------
# TPTP


def test_tptp_basic():
    text = """
    % a comment
    cnf(one, axiom, (p(X) | ~q(X, f(a)))).
    cnf(two, negated_conjecture, ~p(a)).
    """
    cs = parse_tptp(text)
    assert len(cs) == 2
    assert cs.roles == {1: "axiom", 2: "negated_conjecture"}
    assert cs.names == {1: "one", 2: "two"}
    c1 = cs.by_id(1)
    assert Literal(True, "p", (Var("X"),)) in c1.literals
    assert Literal(False, "q", (Var("X"), App("f", (App("a"),)))) in c1.literals


def test_tptp_empty_clause_via_false():
    cs = parse_tptp("cnf(bottom, axiom, $false).")
    assert cs.by_id(1).is_empty


def test_tptp_block_comment():
    cs = parse_tptp("/* block\ncomment */ cnf(c, axiom, p).")
    assert len(cs) == 1


def test_tptp_unsupported_role():
    with pytest.raises(ParseError) as err:
        parse_tptp("cnf(c, conjecture, p).")
    assert "conjecture" in str(err.value) and "cnf(c" in str(err.value)


def test_tptp_arity_conflict():
    with pytest.raises((ParseError, ValueError)) as err:
        parse_tptp("cnf(c1, axiom, p(a)). cnf(c2, axiom, p(a, b)).")
    assert "arity" in str(err.value)


def test_tptp_function_arity_conflict():
    with pytest.raises((ParseError, ValueError)):
        parse_tptp("cnf(c1, axiom, p(f(a))). cnf(c2, axiom, q(f(a, b))).")


@pytest.mark.parametrize("fast", [True, False])
def test_tptp_function_arity_conflict_names_its_clause(fast, monkeypatch):
    # the same message whether the statement reader or the tokenizer read it
    from altpath import parsing

    if not fast:
        def refuse(self, text):
            raise parsing._NotFast

        monkeypatch.setattr(parsing._FastTptp, "parse", refuse)
    text = "cnf(c1, axiom, q(f(a))).\ncnf(c2, axiom, q(f(a, b)))."
    with pytest.raises(ParseError) as err:
        parse_tptp(text, source="x.p")
    assert str(err.value) == "x.p: function symbol 'f' used at arity 1 and 2 (clause 2)"
    # a symbol first seen nested, then clashing at the top of a later clause
    with pytest.raises(ParseError, match=r"'g' used at arity 2 and 0 \(clause 3\)"):
        parse_tptp("cnf(a, axiom, p(h(g(b, c)))).\ncnf(b, axiom, p(b)).\n"
                   "cnf(c, axiom, p(g)).", source="y.p")


@pytest.mark.parametrize("name", ["(", "~", "X", "_x", "$false", ","])
def test_tptp_formula_name_must_be_a_word(name):
    with pytest.raises(ParseError) as err:
        parse_tptp(f"cnf(c1, axiom, p).\ncnf({name}, axiom, q).\n")
    assert "line 2" in str(err.value)
    assert "formula name" in str(err.value)


def test_tptp_formula_name_error_is_located_on_the_name():
    with pytest.raises(ParseError) as err:
        parse_tptp("cnf(\n\n  X, axiom, p).")
    assert "line 3" in str(err.value) and "'X'" in str(err.value)


def test_tptp_quoted_formula_name():
    cs = parse_tptp("cnf('name with. dot', axiom, p). cnf(c2, axiom, ~p).")
    assert cs.names == {1: "'name with. dot'", 2: "c2"}
    assert parse_tptp(print_tptp(cs)).names == cs.names


def test_tptp_syntax_error_has_line():
    with pytest.raises(ParseError) as err:
        parse_tptp("cnf(c1, axiom,\n (p | )).")
    assert "line 2" in str(err.value)


def test_tptp_include(tmp_path):
    (tmp_path / "sub.ax").write_text("cnf(inc, axiom, q(b)).\n")
    text = "include('sub.ax').\ncnf(main, axiom, p(a)).\n"
    cs = parse_tptp(text, include_base=str(tmp_path))
    assert len(cs) == 2
    assert {cs.names[i] for i in cs.ids()} == {"inc", "main"}


def test_tptp_include_missing_file(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_tptp("include('nope.ax').", include_base=str(tmp_path))
    assert "nope.ax" in str(err.value)


def test_tptp_circular_include(tmp_path):
    (tmp_path / "a.ax").write_text("include('a.ax').\n")
    with pytest.raises(ParseError) as err:
        parse_tptp("include('a.ax').", include_base=str(tmp_path))
    assert "circular" in str(err.value)


def test_tptp_round_trip():
    text = """
    cnf(one, axiom, (p(X, f(Y)) | ~q(g(a, b)))).
    cnf(two, hypothesis, (r | ~r)).
    cnf(three, negated_conjecture, $false).
    """
    cs = parse_tptp(text)
    printed = print_tptp(cs)
    again = parse_tptp(printed)
    assert [c.literals for c in again.clauses] == [c.literals for c in cs.clauses]
    assert again.roles == cs.roles
    assert again.names == cs.names
    assert print_tptp(again) == printed


def test_tptp_printer_sorts_literals():
    cs = parse_tptp("cnf(c, axiom, (~b | a)).")
    assert print_tptp(cs).index("a") < print_tptp(cs).index("~b")


# ---------------------------------------------------------------------------
# Detection


def test_detect_format():
    assert detect_format("p cnf 1 1\n1 0\n") == "dimacs"
    assert detect_format("cnf(c, axiom, p).") == "tptp"
    assert detect_format("", "problem.p") == "tptp"
    assert detect_format("", "problem.cnf") == "dimacs"
    assert detect_format("c cnf file\np cnf 1 1\n1 0\n") == "dimacs"
    assert detect_format("c (a comment)\np cnf 1 1\n1 0\n") == "dimacs"


@pytest.mark.parametrize("line", [
    "cnf (c1, axiom, p).", "cnf\t(c1, axiom, p).", "include ('axioms.ax').",
    "include('axioms.ax').", "% a comment", "/* a block comment */",
])
def test_detect_format_knows_every_tptp_opening(line):
    assert detect_format(f"\n  {line}\n") == "tptp"
