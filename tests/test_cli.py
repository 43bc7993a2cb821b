"""End-to-end checks of the command-line surface, run in-process."""

import argparse
import json
import random
import subprocess
import sys
from collections import Counter

import pytest

import altpath.cli
import altpath.graph
import altpath.parsing
from altpath.cli import EXIT_SAT, EXIT_UNSAT, EXIT_UNKNOWN, _growth_budget, main
from altpath.clauses import Clause, Literal
from altpath.dpll import SolveResult, dpll, dpll_rel, stepping_sequence, support_radius
from altpath.generators import random_3sat, random_first_order
from altpath.graph import (
    INF,
    PROPOSITIONAL_HUB,
    AlternatingPath,
    bfs_from_support,
    build_graph,
)
from altpath.parsing import parse_dimacs, parse_tptp, print_dimacs, print_tptp
from altpath.resolution import hyper_resolution_levels, linear_sequence_from_path, sos_refute

from oracles import model_satisfies, partial_model_covers, reference_atom_count

TREE = """\
cnf(goal, negated_conjecture, (~p)).
cnf(root, axiom, (p | ~q1 | ~q2 | ~q3)).
cnf(r1, axiom, (q1 | ~r1 | ~r2)).
cnf(r2, axiom, (q2 | ~r3 | ~r4)).
cnf(r3, axiom, (q3 | ~r5 | ~r6)).
cnf(f1, axiom, (r1)).
cnf(f2, axiom, (r2)).
cnf(f3, axiom, (r3)).
cnf(f4, axiom, (r4)).
cnf(f5, axiom, (r5)).
cnf(f6, axiom, (r6)).
"""

SAT_CNF = "p cnf 3 2\n1 2 0\n-1 3 0\n"

FO = """\
cnf(c1, axiom, (p(X))).
cnf(c2, negated_conjecture, (~p(a))).
cnf(c3, axiom, (q(b))).
"""


@pytest.fixture
def tree(tmp_path):
    path = tmp_path / "tree.p"
    path.write_text(TREE)
    return str(path)


@pytest.fixture
def sat_cnf(tmp_path):
    path = tmp_path / "sat.cnf"
    path.write_text(SAT_CNF)
    return str(path)


@pytest.fixture
def fo(tmp_path):
    path = tmp_path / "fo.p"
    path.write_text(FO)
    return str(path)


# ---------------------------------------------------------------------------
# filter


def test_filter_writes_the_neighborhood(tree, tmp_path, capsys):
    out = tmp_path / "out.p"
    assert main(["filter", tree, "-n", "4", "-o", str(out)]) == 0
    written = parse_tptp(out.read_text())
    assert len(written) == 11
    summary = capsys.readouterr().out
    assert "relevant at 4: 11" in summary
    assert "distance 4: 6" in summary
    assert "distance 3: 3" in summary


def test_filter_level_one_is_the_support(tree, tmp_path, capsys):
    out = tmp_path / "out.p"
    assert main(["filter", tree, "-n", "1", "-o", str(out)]) == 0
    written = parse_tptp(out.read_text())
    assert len(written) == 1
    assert str(written.clauses[0]) == "~p"


def test_filter_csv_table(tree, tmp_path):
    csv = tmp_path / "d.csv"
    main(["filter", tree, "-n", "4", "-o", str(tmp_path / "o.p"), "--csv", str(csv)])
    lines = csv.read_text().splitlines()
    assert lines[0] == "clause_id,distance"
    assert "1,1" in lines and "6,4" in lines


def test_filter_intersects_two_supports(tmp_path, capsys):
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n")
    out = tmp_path / "out.cnf"
    code = main(
        ["filter", str(path), "-n", "2", "--support", "pos", "--support", "neg",
         "-o", str(out)]
    )
    assert code == 0
    assert len(parse_dimacs(out.read_text())) == 3
    # several supports print no histogram, with and without --json
    assert capsys.readouterr().out == (
        "input clauses: 3\nsupport clauses: 3\nrelevant at 2: 3\n")
    assert main(["filter", str(path), "-n", "2", "--support", "pos",
                 "--support", "neg", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "input_clauses": 3, "after_purity": None, "support": [1, 2, 3], "bound": 2,
        "relevant": 3, "histogram": {}}


def test_filter_keeps_the_clauses_near_every_support(tmp_path, capsys):
    # p, ~p q, ~q r, ~r: within 2 of c1 are c1 and c2, within 2 of c4 are
    # c3 and c4, so nothing is near both; within 3 both reach c2 and c3
    path = tmp_path / "chain.cnf"
    path.write_text("p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 0\n")
    argv = ["filter", str(path), "--support", "ids:1", "--support", "ids:4"]
    assert main(argv + ["-n", "2"]) == 0
    assert capsys.readouterr().out == "p cnf 3 0\n"
    assert main(argv + ["-n", "3"]) == 0
    assert capsys.readouterr().out == "p cnf 3 2\n2 -1 0\n3 -2 0\n"
    # one spec repeated keeps its own neighborhood
    assert main(["filter", str(path), "-n", "2", "--support", "ids:1",
                 "--support", "ids:1"]) == 0
    assert capsys.readouterr().out == "p cnf 3 2\n1 0\n2 -1 0\n"


def test_filter_csv_with_two_supports_fails_before_writing(tmp_path, capsys):
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n")
    out, csv = tmp_path / "out.cnf", tmp_path / "d.csv"
    for extra in ([], ["-o", str(out)]):
        code = main(["filter", str(path), "-n", "2", "--support", "pos", "--support", "neg",
                     "--csv", str(csv), *extra])
        captured = capsys.readouterr()
        assert code == 2 and "--csv needs a single support set" in captured.err
        assert captured.out == ""
    assert not out.exists() and not csv.exists()


DUPLICATES_CNF = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"


def test_duplicate_support_ids_count_once(tmp_path, capsys):
    path = tmp_path / "s.cnf"
    path.write_text(DUPLICATES_CNF)
    out = str(tmp_path / "out.cnf")
    assert main(["filter", str(path), "-n", "2", "--support", "ids:1,1", "-o", out]) == 0
    assert "support clauses: 1\n" in capsys.readouterr().out
    # two specs that share an id: the text line and the JSON name the union
    two = ["filter", str(path), "-n", "2", "--support", "ids:1,2", "--support", "ids:2,3"]
    assert main(two + ["-o", out]) == 0
    assert "support clauses: 3\n" in capsys.readouterr().out
    assert main(two + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["support"] == [1, 2, 3]
    payloads = []
    for spec in ("ids:1,1", "ids:1"):
        assert main(["stats", str(path), "-n", "2", "--support", spec, "--json"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert payloads[0] == payloads[1]
    assert (payloads[0]["support"], payloads[0]["budget"]) == (1, 4)


def test_filter_json_builds_no_clause_text(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.cnf"
    path.write_text(DUPLICATES_CNF)
    argv = ["filter", str(path), "-n", "2", "--support", "ids:1"]
    assert main(argv + ["--json"]) == 0
    want = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("clause text built but not written")

    monkeypatch.setattr(altpath.cli, "print_format", refuse)
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == want
    # written output still goes through the printer
    for extra in ([], ["-o", str(tmp_path / "out.cnf")]):
        with pytest.raises(AssertionError, match="clause text built"):
            main(argv + extra)


def _count_objects(monkeypatch) -> Counter:
    """Count the Clause and Literal objects built from here on: through the
    constructors, and through ``Clause._canonical``, which readers use.
    Clauses are also counted by id, under ("Clause", id)."""
    built: Counter = Counter()
    post_init, canonical, literal_init = (Clause.__post_init__, Clause._canonical.__func__,
                                          Literal.__init__)

    def counted_post_init(self):
        built["Clause"] += 1
        built["Clause", self.id] += 1
        post_init(self)

    def counted_canonical(cls, cid, literals):
        built["Clause"] += 1
        built["Clause", cid] += 1
        return canonical(cls, cid, literals)

    def counted_literal(self, *args, **kwargs):
        built["Literal"] += 1
        literal_init(self, *args, **kwargs)

    monkeypatch.setattr(Clause, "__post_init__", counted_post_init)
    monkeypatch.setattr(Clause, "_canonical", classmethod(counted_canonical))
    monkeypatch.setattr(Literal, "__init__", counted_literal)
    return built


def test_dimacs_filter_and_stats_build_no_clause_objects(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.cnf"
    path.write_text(print_dimacs(random_3sat(random.Random(3), 40, 170)))
    # the farthest clause from clause 1, its witness, and the distinct
    # literals of the witness's clauses
    cs = parse_dimacs(path.read_text())
    dmap = bfs_from_support(build_graph(cs), [1])
    far = max((cid for cid in cs.ids() if dmap.distance(cid) < INF), key=dmap.distance)
    witness = dmap.witness(far).clause_ids
    signed = {lit for cid in witness for lit in cs.by_id(cid)}
    assert len(witness) >= 3
    csv = str(tmp_path / "d.csv")
    requests = (["filter", str(path), "-n", "3", "--support", "ids:1", "--json", "--csv", csv],
                ["filter", str(path), "-n", "2", "--purity", "--support", "neg", "--json"],
                ["stats", str(path), "--bound", "3", "--support", "ids:1,2", "--json"],
                ["stats", str(path), "--json", "--hub", "--bound", "2"])
    want = []
    for argv in requests:
        assert main(argv) == 0
        want.append(capsys.readouterr().out)
    built = _count_objects(monkeypatch)
    for argv, out in zip(requests, want):
        assert main(argv) == 0
        assert capsys.readouterr().out == out
        assert built == Counter(), argv
    # the count sees objects where a request reads them: a witness builds
    # its own clauses only, at most two per hop, with the literals of their
    # signed numbers
    assert main(["path", str(path), "--to", str(far), "--support", "ids:1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["clauses"] == list(witness)
    assert {key[1] for key in built if isinstance(key, tuple)} <= set(witness)
    assert 0 < built["Clause"] <= 2 * (len(witness) - 1)
    assert 0 < built["Literal"] <= len(signed)
    # written clauses are printed from the rows: no clause, and at most one
    # literal per atom of the written subset
    built.clear()
    out = tmp_path / "out.cnf"
    assert main(requests[0][:-2] + ["-o", str(out)]) == 0
    assert built["Clause"] == 0
    assert 0 < built["Literal"] <= parse_dimacs(out.read_text()).atom_count


def test_tptp_filter_and_stats_build_no_clause_objects(tmp_path, capsys, monkeypatch):
    # a TPTP set is born numbered from the reader's atoms: the graph, the
    # searches, purity and the counts read its rows and make literals only
    path = tmp_path / "fo.p"
    path.write_text(print_tptp(random_first_order(random.Random(3), 40)))
    pure = altpath.graph.purity_filter(build_graph(parse_tptp(path.read_text()))).ids()
    requests = (["filter", str(path), "-n", "2", "--support", "ids:1", "--json"],
                ["filter", str(path), "-n", "2", "--purity", "--support", f"ids:{pure[0]}",
                 "--json"],
                ["stats", str(path), "--json"],
                ["stats", str(path), "--bound", "2", "--support", "ids:1", "--json"])
    want = []
    for argv in requests:
        assert main(argv) == 0
        want.append(capsys.readouterr().out)
    built = _count_objects(monkeypatch)
    for argv, out in zip(requests, want):
        assert main(argv) == 0
        assert capsys.readouterr().out == out
        assert built["Clause"] == 0, argv
    # groundness is read off the atoms' ground flags, with no clause built
    assert not parse_tptp(path.read_text()).is_ground()
    assert parse_tptp("cnf(c1, axiom, p(f(a))). cnf(c2, axiom, (~p(f(a)) | q)).").is_ground()
    assert built["Clause"] == 0


def test_dimacs_solve_builds_literals_for_a_model_only(tmp_path, capsys, monkeypatch):
    # the solvers read integers end to end: an unsatisfiable set makes no
    # clause or literal object, a satisfiable one at most two literals per
    # atom of the model it prints (one read off the set, one made positive)
    unsat, sat = tmp_path / "u.cnf", tmp_path / "s.cnf"
    unsat.write_text(print_dimacs(random_3sat(random.Random(5), 12, 100)))
    sat.write_text(print_dimacs(random_3sat(random.Random(5), 40, 100)))
    built = _count_objects(monkeypatch)
    for extra in ([], ["--trusted"], ["--no-relevance"]):
        assert main(["solve", str(unsat), "--json", *extra]) == EXIT_UNSAT
        assert json.loads(capsys.readouterr().out)["verdict"] == "unsat"
        assert built == Counter(), extra
        assert main(["solve", str(sat), "--json", *extra]) == EXIT_SAT
        model = json.loads(capsys.readouterr().out)["model"]
        assert built["Clause"] == 0
        assert 0 < built["Literal"] <= 2 * len(model), extra
        built.clear()


@pytest.mark.parametrize("seed", range(4))
def test_filter_with_several_supports_keeps_the_full_search_intersection(tmp_path, capsys, seed):
    rng = random.Random(seed)
    cs = random_3sat(rng, 30, 120)
    path = tmp_path / "s.cnf"
    path.write_text(print_dimacs(cs))
    graph = build_graph(cs)
    supports = [rng.sample(cs.ids(), 1 + i) for i in range(2 + seed % 2)]
    specs = [arg for s in supports for arg in ("--support", "ids:" + ",".join(map(str, s)))]
    for n in (1, 2, 3, 4):
        want = set.intersection(
            *(set(bfs_from_support(graph, s).relevant_ids(n)) for s in supports))
        assert main(["filter", str(path), "-n", str(n), *specs]) == 0
        kept = parse_dimacs(capsys.readouterr().out)
        assert len(kept) == len(want), n
        assert main(["filter", str(path), "-n", str(n), *specs, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["relevant"] == len(want), n


def test_filter_purity_note(tmp_path, capsys):
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 2 4\n1 0\n-1 0\n2 0\n1 2 0\n")
    out = tmp_path / "out.cnf"
    code = main(["filter", str(path), "-n", "1", "--purity",
                 "--support", "neg", "-o", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "input clauses: 4" in summary
    assert "after purity: 2" in summary


def test_filter_purity_builds_one_index(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 2 4\n1 0\n-1 0\n2 0\n1 2 0\n")
    built = []
    init = altpath.graph.RelevanceGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(altpath.graph.RelevanceGraph, "__init__", counted)
    for extra in ([], ["--hub"]):
        built.clear()
        assert main(["filter", str(path), "-n", "2", "--purity", "--support", "neg",
                     "--json", "--csv", str(tmp_path / "d.csv"), *extra]) == 0
        assert json.loads(capsys.readouterr().out)["after_purity"] == 2
        assert len(built) == 1, extra


def test_filter_purity_keeps_the_support_errors_of_purged_clauses(tmp_path, capsys):
    # purity leaves c1 and c2: c3 (3) and c4 (-4) have no partner
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 4 4\n1 -2 0\n-1 2 0\n3 0\n-4 0\n")
    for spec, error in (("ids:3", "support id 3 not in the clause set"),
                        ("neg", "support spec 'neg' selects no clauses"),
                        ("pos", "support spec 'pos' selects no clauses")):
        assert main(["filter", str(path), "-n", "2", "--purity", "--support", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n" and captured.out == "", spec
        # without purity the spec selects its clause
        assert main(["filter", str(path), "-n", "2", "--support", spec, "--json"]) == 0
        capsys.readouterr()


def test_filter_json_summary(tree, capsys):
    assert main(["filter", tree, "-n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["relevant"] == 11
    assert payload["histogram"]["4"] == 6


def test_filter_needs_a_bound(tree, capsys):
    assert main(["filter", tree]) == 2
    assert "distance bound" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_unsat_exit_and_status(tree, capsys):
    assert main(["solve", tree]) == EXIT_UNSAT
    out = capsys.readouterr().out
    assert "s UNSATISFIABLE" in out
    assert "c calls=" in out


def test_solve_trusted_partial_model(sat_cnf, capsys):
    code = main(["solve", sat_cnf, "--support", "ids:2", "--trusted"])
    assert code == EXIT_SAT
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out
    v_lines = [l for l in out.splitlines() if l.startswith("v ")]
    assert len(v_lines) == 1 and v_lines[0].endswith(" 0")


def test_solve_count_calls_budget(sat_cnf, capsys):
    main(["solve", sat_cnf, "--support", "ids:2", "--count-calls"])
    out = capsys.readouterr().out
    assert "k=3 budget=8" in out


def test_solve_count_calls_k_counts_every_reachable_atom(tmp_path, capsys):
    # the radius is 2 and the level-2 neighborhood {1, 2, 3} has atoms 1
    # and 2, yet k counts atom 3 of the distance-3 clause too: the printed
    # budget is a loose but valid bound
    path = tmp_path / "chain.cnf"
    path.write_text("p cnf 3 4\n1 0\n-1 0\n-1 2 0\n-2 3 0\n")
    cs = parse_dimacs(path.read_text())
    assert support_radius(cs, [1]) == 2
    level_two = bfs_from_support(build_graph(cs), [1]).relevant_ids(2)
    assert reference_atom_count(cs.subset(level_two)) == 2
    argv = ["solve", str(path), "--support", "ids:1", "--count-calls"]
    assert main(argv) == EXIT_UNSAT
    assert capsys.readouterr().out == (
        "c calls=1 splits=0 units=1 fallback=0\n"
        "c calls=1 k=3 budget=8\n"
        "s UNSATISFIABLE\n"
    )
    assert main(argv + ["--json"]) == EXIT_UNSAT
    assert capsys.readouterr().out == (
        '{"budget": 8, "calls": 1, "fallback": 0, "k": 3, "model": {}, '
        '"splits": 0, "units": 1, "verdict": "unsat"}\n'
    )


def test_solve_prints_a_tptp_model_sorted_by_text(tmp_path, capsys):
    path = tmp_path / "m.p"
    path.write_text("cnf(a, axiom, (s | ~r)).\n"
                    "cnf(b, negated_conjecture, (~r | ~q)).\n"
                    "cnf(c, axiom, (q | p)).\n")
    assert main(["solve", str(path)]) == EXIT_SAT
    assert capsys.readouterr().out.splitlines()[1:] == ["s SATISFIABLE", "v q ~r"]


def test_solve_rejects_first_order_input(fo, capsys):
    assert main(["solve", fo]) == 2
    assert "variable-free" in capsys.readouterr().err


def test_solve_json(sat_cnf, capsys):
    code = main(["solve", sat_cnf, "--no-relevance", "--json"])
    assert code == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "sat"
    assert payload["model"]
    assert payload["k"] is None


def test_solve_call_limit_reports_unknown(tmp_path, capsys):
    path = tmp_path / "in.cnf"
    rows = ["p cnf 6 8"]
    rows += ["1 2 3 0", "-1 4 5 0", "-2 -4 6 0", "-3 -5 -6 0",
             "1 -2 4 0", "2 -3 5 0", "3 -4 6 0", "-1 -5 -6 0"]
    path.write_text("\n".join(rows) + "\n")
    code = main(["solve", str(path), "--no-relevance", "--max-calls", "1"])
    assert code == EXIT_UNKNOWN
    assert "s UNKNOWN" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# deepen


def test_deepen_succeeds_at_the_radius(tree, capsys):
    assert main(["deepen", tree]) == EXIT_UNSAT
    out = capsys.readouterr().out
    assert "c unsat at level 4" in out
    assert "support clauses sit at level 1" in out
    assert "s UNSATISFIABLE" in out


def test_deepen_exhausts_levels_on_sat_input(sat_cnf, capsys):
    assert main(["deepen", sat_cnf, "--support", "ids:2"]) == EXIT_SAT
    assert "s SATISFIABLE" in capsys.readouterr().out


def test_deepen_unknown_lists_the_undecided_levels(tmp_path, capsys):
    # one round of one call decides no level: the text names them as the
    # JSON does
    path = str(tmp_path / "g.cnf")
    assert main(["gen", "3sat", "--vars", "60", "--clauses", "300", "--seed", "3",
                 "-o", path]) == 0
    argv = ["deepen", path, "--support", "ids:1", "--slice", "1", "--max-rounds", "1"]
    assert main(argv) == EXIT_UNKNOWN
    assert capsys.readouterr().out == "c levels 1, 2, 3, 4 undecided\ns UNKNOWN\n"
    assert main(argv + ["--json"]) == EXIT_UNKNOWN
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "unknown", "level": None, "undecided": ["1", "2", "3", "4"], "note": None}


def _stub(tmp_path, body: str) -> str:
    path = tmp_path / "stub.py"
    path.write_text(body)
    return f"{sys.executable} {path} {{file}}"


def test_deepen_prover_timeout_stub(fo, tmp_path, capsys):
    prover = _stub(tmp_path, "print('% SZS status Timeout')\n")
    assert main(["deepen", fo, "--prover", prover]) == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert "c level 1: unknown (SZS Timeout)" in out
    assert "s UNKNOWN" in out


def test_deepen_prover_unsat_stub(fo, tmp_path, capsys):
    prover = _stub(tmp_path, "print('% SZS status Unsatisfiable')\n")
    assert main(["deepen", fo, "--prover", prover, "--prover-timeout", "2.5"]) == EXIT_UNSAT
    out = capsys.readouterr().out
    assert "c unsat at level 1" in out


def test_deepen_prover_failure_does_not_abort_other_levels(fo, tmp_path, capsys):
    prover = _stub(tmp_path, "import sys\nsys.exit(3)\n")
    assert main(["deepen", fo, "--prover", prover]) == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert "prover error (exit 3)" in out
    assert "c level full:" in out  # later levels still ran


@pytest.mark.parametrize("value", ["inf", "0", "-1", "nan", "2147484"])
def test_deepen_prover_timeout_must_be_finite_seconds(fo, tmp_path, capsys, value):
    # inf and past 2147483 s overflowed the prover wait; 0 and -1 timed out
    # every level; nan failed with a conversion message
    prover = _stub(tmp_path, "print('% SZS status Unsatisfiable')\n")
    with pytest.raises(SystemExit) as exc:
        main(["deepen", fo, "--prover", prover, "--prover-timeout", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --prover-timeout: must be seconds above 0 and at most "
        f"2147483, got {value}\n")


def test_deepen_first_order_needs_a_prover(fo, capsys):
    assert main(["deepen", fo]) == 2
    assert "external prover" in capsys.readouterr().err


def test_deepen_reads_the_filtered_set(fo, tmp_path, capsys):
    # the stub checks that the level-1 file it gets holds only the support
    body = (
        "import sys\n"
        "text = open(sys.argv[1]).read()\n"
        "print('% SZS status Unsatisfiable' if 'p(X)' not in text"
        " else '% SZS status Satisfiable')\n"
    )
    prover = _stub(tmp_path, body)
    assert main(["deepen", fo, "--prover", prover]) == EXIT_UNSAT
    assert "c unsat at level 1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# distance / path / radius / stats


def test_distance_connectedness_is_not_transitive(tmp_path, capsys):
    path = tmp_path / "t.p"
    path.write_text(
        "cnf(c1, axiom, (~p | q)).\n"
        "cnf(c2, axiom, (~q)).\n"
        "cnf(c3, axiom, (q | ~r)).\n"
    )
    code = main(["distance", str(path), "--pair", "1", "2",
                 "--pair", "2", "3", "--pair", "1", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["2", "2", "inf"]


@pytest.mark.parametrize("pair", [["1", "99"], ["99", "1"]], ids=" ".join)
def test_distance_names_an_unknown_id_in_either_place(tree, capsys, pair):
    assert main(["distance", tree, "--pair", "1", "2", "--pair", *pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: no clause with id 99\n"


@pytest.mark.parametrize("argv, message", [
    (["path", "--to", "99"], "no clause with id 99"),
    (["path"], "path needs --to CLAUSE_ID"),
    (["distance"], "distance needs at least one --pair FROM TO"),
], ids=" ".join)
def test_a_missing_or_unknown_target_exits_2(tree, capsys, argv, message):
    assert main([argv[0], tree, *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_path_prints_a_validating_witness(tree, capsys):
    assert main(["path", tree, "--to", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("c1 ") and lines[0].endswith("c6")
    assert lines[1] == "length 4"
    assert lines[2] == "valid"


def test_path_unreachable_target(fo, capsys):
    assert main(["path", fo, "--to", "3"]) == 2
    assert "unreachable" in capsys.readouterr().err


def test_radius(tree, tmp_path, capsys):
    assert main(["radius", tree]) == 0
    assert "support radius: 4" in capsys.readouterr().out
    sat = tmp_path / "one.cnf"
    sat.write_text("p cnf 1 1\n1 0\n")
    assert main(["radius", str(sat), "--support", "ids:1"]) == 0
    assert "support radius: inf" in capsys.readouterr().out


@pytest.mark.parametrize("command,hint", [
    (["radius"], ""),
    (["solve"], "use deepen with an external prover"),
    (["solve", "--no-relevance"], "use deepen with an external prover"),
])
def test_ground_commands_reject_first_order_input(fo, capsys, command, hint):
    assert main([command[0], fo, *command[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "variable-free" in err[0]
    assert hint in err[0]


_SOLVING = "satisfiability solving (use deepen with an external prover for first-order input)"


@pytest.mark.parametrize("run,task", [
    (lambda cs: build_graph(cs, PROPOSITIONAL_HUB), "propositional_hub mode"),
    (dpll, _SOLVING),
    (lambda cs: dpll_rel(cs, [2]), _SOLVING),
    (lambda cs: stepping_sequence(cs, [2]), "a stepping sequence"),
    (lambda cs: support_radius(cs, [2]), "the support radius"),
    (lambda cs: sos_refute(cs, [2]), "resolution search"),
    (lambda cs: linear_sequence_from_path(cs, AlternatingPath((2,), ()), [2]),
     "linear resolution"),
    (hyper_resolution_levels, "hyper-resolution forward chaining"),
    (print_dimacs, "DIMACS output"),
    (["solve"], _SOLVING),
    (["solve", "--no-relevance"], _SOLVING),
    (["radius"], "the support radius"),
    (["filter", "-n", "2", "--hub"], "propositional_hub mode"),
    (["path", "--to", "2", "--hub"], "propositional_hub mode"),
    (["stats", "--hub"], "propositional_hub mode"),
], ids=["build_graph-hub", "dpll", "dpll_rel", "stepping_sequence", "support_radius",
        "sos_refute", "linear_sequence_from_path", "hyper_resolution_levels", "print_dimacs",
        "cli-solve", "cli-solve-no-relevance", "cli-radius", "cli-filter-hub", "cli-path-hub",
        "cli-stats-hub"])
def test_ground_only_entry_points_give_the_one_refusal(fo, capsys, run, task):
    refusal = f"{task} is defined for variable-free clause sets only"
    if callable(run):
        with pytest.raises(ValueError) as err:
            run(parse_tptp(FO))
        assert str(err.value) == refusal
    else:
        assert main([run[0], fo, *run[1:]]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {refusal}\n")


@pytest.mark.parametrize("command,message", [
    ("solve", f"{_SOLVING} is defined for variable-free clause sets only"),
    ("radius", "the support radius is defined for variable-free clause sets only"),
    ("deepen", "first-order deepening needs an external prover (--prover 'command {file}')"),
], ids=["solve", "radius", "deepen"])
def test_first_order_refusal_comes_before_the_support_spec(tmp_path, capsys, command, message):
    """A generated first-order set has no negated conjecture, so the default
    support spec selects nothing: the refusal of variables, or deepen's
    call for a prover, is what the command must say, not the spec's error."""
    path = str(tmp_path / "fo.p")
    assert main(["gen", "bounded", "--first-order", "--seed", "2", "-o", path]) == 0
    assert "negated_conjecture" not in open(path).read()
    capsys.readouterr()
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_stats_bounds_and_budget(tmp_path, capsys):
    path = tmp_path / "s.cnf"
    path.write_text("p cnf 3 4\n1 2 3 0\n-1 2 0\n-2 3 0\n1 3 0\n")
    code = main(["stats", str(path), "--support", "ids:1", "-n", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "b=3 k=3" in out
    assert "size budget at 2: 18" in out  # 2 * 1 * 3 * 3


def test_stats_json(tree, capsys):
    assert main(["stats", tree, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clauses"] == 11
    assert payload["k"] == 4


def test_growth_budget_exact_while_it_prints():
    assert _growth_budget(1, 6, 3, 2000) == 6 * 6**1999 * 2**1998
    assert _growth_budget(1, 6, 1, 3) == 0
    # past the int-to-str digit limit: mantissa and exponent from logarithms
    mantissa, exponent = _growth_budget(1, 6, 3, 5000).split("e+")
    exact = 6 * 6**4999 * 2**4998
    assert 10 ** int(exponent) <= exact < 10 ** (int(exponent) + 1)
    assert abs(exact // 10 ** (int(exponent) - 3) - round(float(mantissa) * 1000)) <= 1


def test_sized_carries_a_mantissa_that_rounds_to_ten():
    assert altpath.cli._sized(5000.99999, lambda: 1 / 0) == "1.000e+5001"


@pytest.fixture(scope="module")
def big_easy(tmp_path_factory):
    # 1500 random 3-clauses over 3000 atoms: easy, but a solver that
    # recursed once per decision would go about a thousand frames deep
    path = tmp_path_factory.mktemp("big") / "g.cnf"
    assert main(["gen", "3sat", "--vars", "3000", "--clauses", "1500", "--seed", "1",
                 "-o", str(path)]) == 0
    return str(path)


def test_stats_budget_past_the_digit_limit(big_easy, capsys):
    assert main(["stats", big_easy, "--bound", "5000", "--support", "ids:1"]) == 0
    assert "size budget at 5000: 2.015e+5395" in capsys.readouterr().out


@pytest.mark.parametrize("hub", [[], ["--hub"]], ids=["first_order", "hub"])
def test_stats_bound_matches_full_search(tmp_path, capsys, hub):
    cs = random_3sat(random.Random(9), 40, 170)
    path = tmp_path / "r.cnf"
    path.write_text(print_dimacs(cs))
    support = "ids:3,77"
    full = bfs_from_support(build_graph(cs), [3, 77])
    far = int(max(d for d in full.clause_distance.values() if d < INF))
    for n in range(1, far + 3):
        argv = ["stats", str(path), "--bound", str(n), "--support", support, "--json"] + hub
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["relevant"] == len(full.relevant_ids(n))


# ---------------------------------------------------------------------------
# split


def test_split_auto_picks_a_breaking_variable(fo, capsys):
    assert main(["split", fo]) == 0
    out = capsys.readouterr().out
    assert "% split c1 on X into 2 clauses (full)" in out
    assert "cnf(c4, axiom, (p(a)))." in out
    assert "cnf(c5, axiom, (p(b)))." in out
    assert "p(X)" not in out


def test_split_json_summary(fo, capsys):
    assert main(["split", fo, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clause"] == 1 and payload["var"] == "X"
    assert payload["replacements"] == [4, 5]


def test_split_json_builds_no_clause_text(fo, capsys, monkeypatch):
    assert main(["split", fo, "--json"]) == 0
    want = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("clause text built but not written")

    monkeypatch.setattr(altpath.cli, "print_tptp", refuse)
    assert main(["split", fo, "--json"]) == 0
    assert capsys.readouterr().out == want


def test_split_output_parses_back(fo, tmp_path):
    out = tmp_path / "split.p"
    assert main(["split", fo, "-o", str(out)]) == 0
    written = parse_tptp(out.read_text())
    assert len(written) == 4


@pytest.mark.parametrize("value", ["Foo", "b c", "k(a)", ""])
def test_split_extra_constant_must_be_a_lower_word(capsys, value):
    # refused before the input is read: the file does not exist
    with pytest.raises(SystemExit) as exc:
        main(["split", "/nonexistent/input.p", "--extra-constant", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: argument --extra-constant: must be a TPTP lower word "
            f"([a-z][A-Za-z0-9_]*), got {value!r}\n") in captured.err


def test_split_extra_constant_splits_in_the_new_constant(tmp_path, capsys):
    path = tmp_path / "noconst.p"
    path.write_text("cnf(c1, axiom, (p(X) | q(f(X)))).\ncnf(c2, axiom, ~p(f(Y))).\n")
    out = tmp_path / "split.p"
    assert main(["split", str(path), "--clause", "1", "--var", "X",
                 "--extra-constant", "k_0", "-o", str(out)]) == 0
    written = out.read_text()
    assert "cnf(c4, axiom, (p(k_0) | q(f(k_0))))." in written
    assert "p(X)" not in written
    assert len(parse_tptp(written)) == 3


@pytest.mark.parametrize("body, var", [("p(X, Y, _q1)", "X"), ("p(X, Y, W)", "X")])
def test_split_choice_does_not_depend_on_variable_names(tmp_path, body, var):
    # each in a fresh interpreter, where the chooser's probes are named first
    path = tmp_path / "probe.p"
    path.write_text(f"cnf(c1, axiom, {body}).\ncnf(c2, axiom, ~p(a, f(a), b)).\n")
    proc = _run_cli(["split", str(path), "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["clause"], payload["var"]) == (1, var)


def test_split_rejects_ground_input(sat_cnf, capsys):
    assert main(["split", sat_cnf]) == 2
    assert "nothing to split" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic_per_seed(capsys):
    main(["gen", "3sat", "--vars", "8", "--clauses", "12", "--seed", "5"])
    first = capsys.readouterr().out
    main(["gen", "3sat", "--vars", "8", "--clauses", "12", "--seed", "5"])
    assert capsys.readouterr().out == first
    assert first.startswith("p cnf 8 12")


def test_gen_horn_tree_feeds_deepen(tmp_path, capsys):
    out = tmp_path / "tree.p"
    assert main(["gen", "horn-tree", "--depth", "2", "-o", str(out)]) == 0
    assert "negated_conjecture" in out.read_text()
    assert main(["deepen", str(out)]) == EXIT_UNSAT


def test_gen_bounded_first_order(capsys):
    assert main(["gen", "bounded", "--b", "2", "--k", "3", "--first-order",
                 "--clauses", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cnf(")


# ---------------------------------------------------------------------------
# config errors


def test_unknown_support_spec(tree, capsys):
    assert main(["filter", tree, "-n", "2", "--support", "bogus"]) == 2
    assert "unknown support spec" in capsys.readouterr().err


def test_malformed_support_spec_names_the_spec_and_token(tree, tmp_path, capsys):
    ids = tmp_path / "ids.txt"
    ids.write_text("1\n3 x2\n")
    for spec, token in (("ids:x", "x"), ("ids:1,x", "x"), (f"file:{ids}", "x2")):
        assert main(["filter", tree, "-n", "2", "--support", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: support spec {spec!r}: {token!r} is not a clause id\n"


def test_support_ids_must_exist(tree, capsys):
    assert main(["filter", tree, "-n", "2", "--support", "ids:99"]) == 2
    assert "not in the clause set" in capsys.readouterr().err


def test_empty_support_selection(tmp_path, capsys):
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    assert main(["solve", str(path)]) == 2
    assert "selects no clauses" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve"], ["radius"], ["deepen"], ["path", "--to", "6"], ["stats", "--bound", "2"],
], ids=lambda argv: argv[0])
def test_single_support_commands_reject_a_second_spec(tree, capsys, argv):
    command, *rest = argv
    code = main([command, tree, *rest, "--support", "ids:1", "--support", "ids:3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: {command} takes one --support spec, got 2: ids:1, ids:3\n"
    )


@pytest.mark.parametrize("argv", [
    ["solve", "--hub"],
    ["radius", "--hub"],
    ["split", "--hub"],
    ["deepen", "--hub"],
    ["distance", "--hub"],
    ["distance", "--support", "ids:1"],
    ["split", "--support", "ids:1"],
    ["radius", "--unit-policy", "all"],
    # the solver has one unit rule
    ["solve", "--unit-policy", "all"],
    ["deepen", "--unit-policy", "off"],
    ["filter", "--intersect"],
    # the format is detected, and includes resolve against $TPTP
    *([command, *option]
      for command in ("filter", "solve", "deepen", "distance", "path", "radius", "stats", "split")
      for option in (["--format", "tptp"], ["--include-base", "."])),
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_options_a_command_does_not_read_are_refused(tree, capsys, argv):
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, tree, *rest])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(rest)}" in capsys.readouterr().err


_UNREAD_BY_DPLL = "read only by relevance solving, which --no-relevance turns off"
_UNREAD_BY_SOLVER = ("read only on first-order input; variable-free input is deepened "
                     "by the built-in solver")
_UNREAD_BY_PROVER = ("read only by the built-in solver; a prover decides each level of "
                     "first-order input once")
_UNREAD_ON_VARIABLE_FREE_INPUT = [
    (["solve", "--no-relevance", "--trusted"], f"--trusted: {_UNREAD_BY_DPLL}"),
    (["solve", "--no-relevance", "--count-calls"], f"--count-calls: {_UNREAD_BY_DPLL}"),
    (["solve", "--count-calls", "--no-relevance", "--trusted", "--json"],
     f"--trusted, --count-calls: {_UNREAD_BY_DPLL}"),
    (["deepen", "--prover", "false {file}"], f"--prover: {_UNREAD_BY_SOLVER}"),
    (["deepen", "--prover-timeout", "2"], f"--prover-timeout: {_UNREAD_BY_SOLVER}"),
    (["deepen", "--prover", "false {file}", "--prover-timeout", "2", "--json"],
     f"--prover, --prover-timeout: {_UNREAD_BY_SOLVER}"),
]


@pytest.mark.parametrize("fixture", ["sat_cnf", "tree"], ids=["dimacs", "tptp"])
@pytest.mark.parametrize("argv, message", _UNREAD_ON_VARIABLE_FREE_INPUT,
                         ids=[" ".join(argv) for argv, _ in _UNREAD_ON_VARIABLE_FREE_INPUT])
def test_options_the_chosen_route_does_not_read_are_refused(request, capsys, fixture,
                                                            argv, message):
    """The option is parsed, but solving without relevance, or deepening
    variable-free input with the built-in solver, would ignore it."""
    command, *rest = argv
    assert main([command, request.getfixturevalue(fixture), *rest]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, given", [
    (["--slice", "4"], "--slice"),
    (["--max-rounds", "2", "--json"], "--max-rounds"),
    (["--max-rounds", "2", "--slice", "4"], "--slice, --max-rounds"),
], ids=["slice", "max-rounds", "both"])
def test_solver_budgets_are_refused_on_first_order_input(fo, tmp_path, capsys, argv, given):
    # without --prover, the call for one comes first
    assert main(["deepen", fo, *argv]) == 2
    assert capsys.readouterr() == (
        "", "error: first-order deepening needs an external prover (--prover 'command {file}')\n")
    prover = _stub(tmp_path, "print('% SZS status Unsatisfiable')\n")
    assert main(["deepen", fo, "--prover", prover, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {given}: {_UNREAD_BY_PROVER}\n")


def test_settable_options_per_command():
    """Optional and positional arguments of each subcommand, -h aside."""
    commands = next(a for a in altpath.cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
              for name, p in commands.items()}
    assert counts == {"filter": 8, "solve": 7, "deepen": 7, "distance": 3, "path": 5,
                      "radius": 3, "stats": 5, "split": 7, "gen": 11}
    assert sum(counts.values()) == 56


@pytest.mark.parametrize("argv", [
    ["solve", "TREE", "--max-calls", "0"],
    ["solve", "TREE", "--max-calls", "-1"],
    ["deepen", "TREE", "--slice", "0"],
    ["deepen", "TREE", "--slice", "-5"],
    ["deepen", "TREE", "--max-rounds", "0"],
    ["gen", "3sat", "--vars", "0", "--clauses", "3"],
    ["gen", "bounded", "--k", "0"],
    ["gen", "bounded", "--preds", "0"],
    ["gen", "bounded", "--b", "0"],
    ["gen", "horn-tree", "--branching", "0"],
    ["filter", "TREE", "-n", "0"],
    ["filter", "TREE", "-n", "-1"],
    ["stats", "TREE", "-n", "0"],
    ["stats", "TREE", "-n", "-1"],
], ids=" ".join)
def test_counts_and_budgets_below_one_are_refused(tree, capsys, argv):
    option, value = argv[2:4]
    option = {"-n": "-n/--bound"}.get(option, option)
    with pytest.raises(SystemExit) as exc:
        main([tree if a == "TREE" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: must be at least 1, got {value}\n" in captured.err


@pytest.mark.parametrize("argv", [
    ["gen", "bounded", "--clauses", "-3"],
    ["gen", "3sat", "--clauses", "-1"],
    ["gen", "horn-tree", "--depth", "-1"],
], ids=" ".join)
def test_negative_generator_counts_are_refused(capsys, argv):
    option, value = argv[2:4]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: must be at least 0, got {value}\n" in captured.err


def test_zero_generator_counts_still_generate(capsys):
    assert main(["gen", "3sat", "--clauses", "0"]) == 0
    assert capsys.readouterr().out == "p cnf 0 0\n"
    assert main(["gen", "horn-tree", "--depth", "0"]) == 0
    assert capsys.readouterr().out == (
        "cnf(c1, negated_conjecture, (~g0)).\ncnf(c2, axiom, (g0)).\n")


def test_tptp_includes_resolve_against_the_tptp_variable(tmp_path, capsys, monkeypatch):
    axioms, goal = TREE.split("\n", 1)[1], TREE.split("\n", 1)[0] + "\n"
    (tmp_path / "ax.p").write_text(axioms)
    flat = tmp_path / "flat.p"
    flat.write_text(axioms + goal)
    wrapped = tmp_path / "sub" / "wrapped.p"
    wrapped.parent.mkdir()
    wrapped.write_text("include('ax.p').\n" + goal)
    assert main(["filter", str(flat), "-n", "3"]) == 0
    want = capsys.readouterr()
    monkeypatch.setenv("TPTP", str(tmp_path))
    assert main(["filter", str(wrapped), "-n", "3"]) == 0
    assert capsys.readouterr() == want
    monkeypatch.delenv("TPTP")
    monkeypatch.chdir(wrapped.parent)
    assert main(["filter", str(wrapped), "-n", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {wrapped}:line 1: cannot resolve include "
                                       "'ax.p' (looked at ax.p)\n")


@pytest.mark.parametrize("argv, suffix", [
    (["3sat", "--vars", "30", "--clauses", "120"], ".cnf"),
    (["bounded", "--first-order"], ".p"),
], ids=["dimacs", "tptp"])
def test_a_file_without_an_extension_is_read_by_its_content(tmp_path, capsys, argv, suffix):
    plain = tmp_path / "plain"
    assert main(["gen", *argv, "--seed", "2", "-o", str(plain)]) == 0
    named = tmp_path / f"named{suffix}"
    named.write_text(plain.read_text())
    outputs = []
    for path in (plain, named):
        assert main(["filter", str(path), "-n", "2", "--support", "ids:1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "relevant at 2:" in outputs[0].err


def test_tptp_with_space_before_the_parenthesis_is_read_as_tptp(tmp_path, capsys):
    path = tmp_path / "un.txt"
    path.write_text("cnf (c1, axiom, p).\ncnf (c2, negated_conjecture, ~p).\n")
    assert main(["solve", str(path), "--no-relevance"]) == EXIT_UNSAT
    assert "s UNSATISFIABLE" in capsys.readouterr().out
    assert main(["stats", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["clauses"] == 2


def test_dimacs_without_a_problem_line_exits_2(tmp_path, capsys):
    path = tmp_path / "comments.txt"
    path.write_text("c only a comment\n")
    assert main(["stats", str(path)]) == 2
    assert "no problem line" in capsys.readouterr().err


def test_missing_input_file(capsys):
    assert main(["solve", "/nonexistent/input.cnf"]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_invocation_round_trip(tree):
    proc = subprocess.run(
        [sys.executable, "-m", "altpath.cli", "radius", tree],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "support radius: 4" in proc.stdout


# ---------------------------------------------------------------------------
# no input ends in a traceback or in solver recursion

_LOW_RECURSION_LIMIT = (
    "import sys; sys.setrecursionlimit(200); "
    "from altpath.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _run_cli(argv, code=None):
    head = ["-c", code] if code else ["-m", "altpath.cli"]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True)


@pytest.mark.parametrize("extra", [[], ["--trusted"], ["--no-relevance"]],
                         ids=["fallback", "trusted", "plain"])
def test_large_easy_set_solves_at_a_low_recursion_limit(big_easy, extra):
    proc = _run_cli(["solve", big_easy, "--support", "ids:1", "--json"] + extra,
                    _LOW_RECURSION_LIMIT)
    assert proc.returncode == EXIT_SAT, proc.stderr
    model = {Literal(True, a): v for a, v in json.loads(proc.stdout)["model"].items()}
    with open(big_easy) as fh:
        cs = parse_dimacs(fh.read())
    if extra == ["--trusted"]:
        # a trusted model leaves the clauses the support set cannot reach
        result = SolveResult("sat", model)
        assert partial_model_covers(cs, result, stepping_sequence(cs, [1]))
    else:
        assert model_satisfies(cs, model)


@pytest.mark.parametrize("command, code", [("radius", 0), ("deepen", EXIT_SAT)])
def test_large_easy_set_levels_at_a_low_recursion_limit(big_easy, command, code):
    proc = _run_cli([command, big_easy, "--support", "ids:1"], _LOW_RECURSION_LIMIT)
    assert proc.returncode == code, proc.stderr


DEEP = 10_000


def _nest(inner: str, depth: int = DEEP) -> str:
    return "f(" * depth + inner + ")" * depth


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """Terms nested 10^4 deep: a ground one, read against a variable, and a
    non-ground one, whose unifier binds a variable to a deep term and whose
    split instantiates a variable at the bottom of one."""
    path = tmp_path_factory.mktemp("deep") / "deep.p"
    path.write_text(f"cnf(c1, negated_conjecture, p({_nest('a')})).\n"
                    "cnf(c2, axiom, (~p(X) | q(X))).\n"
                    f"cnf(c3, axiom, (~q({_nest('Y')}) | r(Y))).\n"
                    "cnf(c4, axiom, ~r(a)).\n")
    return str(path)


# runs the command and reports its peak resident set in KB on stderr: the
# VmHWM of /proc/self/status, which counts from exec, since ru_maxrss may
# carry the forking parent's peak across exec (Linux does); ru_maxrss where
# that file is missing
_PEAK_RSS = """\
import resource, sys
from altpath.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, verdict", [
    (["filter", "-n", "4", "--support", "ids:1", "--json"], {"relevant": 4}),
    (["filter", "-n", "4", "--support", "ids:1"], None),
    (["path", "--to", "4", "--support", "ids:1", "--json"], {"clauses": [1, 2, 3, 4]}),
    (["stats", "--json"], {"clauses": 4, "atoms": 6}),
    (["distance", "--pair", "1", "4", "--json"], [{"distance": 4, "from": 1, "to": 4}]),
    (["split", "--clause", "3", "--var", "Y", "--json"], {"output_clauses": 5}),
    (["split", "--clause", "3", "--var", "Y", "--binary", "--json"], {"output_clauses": 5}),
    (["split", "--json"], {"clause": 2, "var": "X"}),
], ids=["filter-json", "filter", "path", "stats", "distance", "split", "split-binary", "split-auto"])
def test_deeply_nested_terms_get_a_verdict_in_little_memory(deep, argv, verdict):
    proc = _run_cli([argv[0], deep, *argv[1:]], _PEAK_RSS)
    assert proc.returncode == 0, proc.stderr[-500:]
    *report, peak_kb = proc.stderr.splitlines()
    assert int(peak_kb) < 64 * 1024
    if verdict is None:  # text output: the kept clauses, printed in full
        assert proc.stdout.count("cnf(") == 4 and _nest("a") in proc.stdout
    elif isinstance(verdict, dict):
        got = json.loads(proc.stdout)
        assert {k: got[k] for k in verdict} == verdict
    else:
        assert json.loads(proc.stdout) == verdict


@pytest.mark.parametrize("negative", ["-10000000", "-010000000"], ids=["fast", "lines"])
def test_sparse_dimacs_is_read_in_little_memory(tmp_path, negative):
    # two clauses over variables 1 and 10^7, read by either reader: memory
    # grows with the variables used, not with the largest index (a list
    # sized by it takes about 160 MB)
    path = tmp_path / "sparse.cnf"
    path.write_text(f"p cnf 10000000 2\n1 {negative} 0\n10000000 0\n")
    proc = _run_cli(["stats", str(path), "--json"], _PEAK_RSS)
    assert proc.returncode == 0, proc.stderr[-500:]
    *report, peak_kb = proc.stderr.splitlines()
    assert int(peak_kb) < 64 * 1024
    assert json.loads(proc.stdout) == {"atoms": 2, "b": 1, "clauses": 2, "k": 2}


def test_deeply_nested_term_in_the_tokenizing_reader_filters_like_its_twin(tmp_path):
    # a comment inside a statement sends the input to the tokenizing reader,
    # which reads terms with a stack of open applications, so it answers as
    # the fast reader does on the same statements without the comment
    statements = ("cnf(c1, axiom, (p(%s)%s)).\n"
                  "cnf(c2, negated_conjecture, (~p(X))).\n")
    twin, commented = tmp_path / "twin.p", tmp_path / "deep.p"
    twin.write_text(statements % (_nest("a"), ""))
    commented.write_text(statements % (_nest("a"), " /* deep */"))
    with pytest.raises(altpath.parsing._NotFast):
        altpath.parsing._FastTptp().parse(commented.read_text())
    runs = [_run_cli(["filter", str(path), "-n", "2", "--support", "ids:1", "--json"])
            for path in (twin, commented)]
    assert [proc.returncode for proc in runs] == [0, 0], runs[1].stderr[-500:]
    assert runs[1].stdout == runs[0].stdout
    assert json.loads(runs[0].stdout)["relevant"] == 2


def test_successive_calls_do_not_share_list_options(tree, capsys):
    assert altpath.cli.build_parser() is altpath.cli.build_parser()
    assert main(["distance", tree, "--pair", "1", "2", "--json"]) == 0
    assert main(["distance", tree, "--pair", "2", "3", "--json"]) == 0
    assert main(["filter", tree, "-n", "1", "--support", "ids:1", "--json"]) == 0
    assert main(["filter", tree, "-n", "1", "--support", "ids:2", "--json"]) == 0
    first, second, third, fourth = map(json.loads, capsys.readouterr().out.splitlines())
    assert [(r["from"], r["to"]) for r in first] == [(1, 2)]
    assert [(r["from"], r["to"]) for r in second] == [(2, 3)]
    assert third["support"] == [1] and fourth["support"] == [2]


def test_out_of_memory_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    # the command raises as if an allocation failed; nothing is allocated
    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setattr(altpath.cli, "cmd_solve", exhausted)
    path = tmp_path / "p.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


def test_distance_runs_one_search_per_source(tree, capsys, monkeypatch):
    pairs = [("1", "2"), ("2", "3"), ("1", "6"), ("1", "1"), ("2", "7")]
    argv = ["distance", tree, "--json"] + [a for pair in pairs for a in ("--pair", *pair)]
    assert main(argv) == 0
    want = capsys.readouterr().out
    searches = []

    def counted(graph, support_ids, *args, **kwargs):
        searches.append(list(support_ids))
        return bfs_from_support(graph, support_ids, *args, **kwargs)

    monkeypatch.setattr(altpath.cli, "bfs_from_support", counted)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert sorted(searches) == [[1], [2]]
    graph = build_graph(parse_tptp(TREE))
    assert [r["distance"] for r in json.loads(want)] == [
        bfs_from_support(graph, [int(f)]).distance(int(t)) for f, t in pairs]


def test_clause_distances_never_build_the_node_view(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.cnf"
    path.write_text(print_dimacs(random_3sat(random.Random(5), 40, 170)))
    csv = str(tmp_path / "d.csv")
    requests = (["filter", str(path), "-n", "3", "--support", "ids:1", "--json", "--csv", csv],
                ["filter", str(path), "-n", "2", "--purity", "--support", "neg", "--json"],
                ["stats", str(path), "--bound", "3", "--support", "ids:1,2", "--json"],
                ["path", str(path), "--to", "40", "--support", "ids:1", "--json"],
                ["radius", str(path), "--support", "ids:1"],
                ["solve", str(path), "--support", "ids:1"])
    want = []
    for argv in requests:
        want.append((main(argv), capsys.readouterr().out))
    assert [code for code, _ in want] == [0, 0, 0, 0, 0, EXIT_UNSAT]

    def refused(self):
        raise AssertionError("the node view was built")

    monkeypatch.setattr(altpath.graph.DistanceMap, "_node_view", property(refused))
    for argv, (code, out) in zip(requests, want):
        assert (main(argv), capsys.readouterr().out) == (code, out), argv
    with pytest.raises(AssertionError, match="node view"):
        bfs_from_support(build_graph(parse_dimacs(path.read_text())), [1]).node_distance


def test_bounded_and_solving_searches_never_build_the_clause_distances(
        tmp_path, capsys, monkeypatch):
    # they read the search's distance list; only a histogram, a CSV or a
    # single-support JSON reads the dict by clause id
    path = tmp_path / "s.cnf"
    path.write_text(print_dimacs(random_3sat(random.Random(5), 40, 170)))
    requests = (["filter", str(path), "-n", "2", "--support", "ids:1", "--support", "ids:2"],
                ["filter", str(path), "-n", "3", "--purity", "--support", "ids:1",
                 "--support", "neg", "--json"],
                ["stats", str(path), "--bound", "3", "--support", "ids:1,2", "--json"],
                ["radius", str(path), "--support", "ids:1"],
                ["solve", str(path), "--support", "ids:1", "--json"],
                ["deepen", str(path), "--support", "ids:1", "--max-rounds", "2"])
    want = []
    for argv in requests:
        want.append((main(argv), capsys.readouterr()))
    assert [code for code, _ in want] == [0, 0, 0, 0, EXIT_UNSAT, EXIT_UNSAT]
    assert "relevant at 2: " in want[0][1].err

    def refused(self):
        raise AssertionError("the clause distances were built")

    monkeypatch.setattr(altpath.graph.DistanceMap, "clause_distance", property(refused))
    for argv, (code, captured) in zip(requests, want):
        assert (main(argv), capsys.readouterr()) == (code, captured), argv
    with pytest.raises(AssertionError, match="clause distances"):
        bfs_from_support(build_graph(parse_dimacs(path.read_text())), [1]).clause_distance
