"""A clause set is its numbering: the DIMACS reader fills it from the
integers, subsets derive theirs from the parent's rows, and the clause
objects, the numbering and the printed text all agree with the ones built
from clause objects."""

from __future__ import annotations

import random

import pytest

from altpath import parsing
from altpath.clauses import ClauseSet, Literal, number_atoms
from altpath.generators import random_3sat, random_first_order, random_ground
from altpath.parsing import parse_dimacs, parse_tptp, print_dimacs, print_tptp
from oracles import reference_print_dimacs


def _line_reader_objects(text: str) -> ClauseSet:
    """The set made from clause objects over the line reader's integers."""
    groups: list[list[Literal]] = [[]]
    for v in parsing._dimacs_lines(text, None):
        if v:
            groups[-1].append(Literal(v > 0, str(abs(v))))
        else:
            groups.append([])
    return ClauseSet.from_groups(groups[:-1])


def _object_numbering(cs: ClauseSet):
    """``number_atoms`` over fresh copies of the set's clause objects."""
    return number_atoms(ClauseSet.from_clauses(list(cs.clauses)))


def _random_rows(rng: random.Random, n_vars: int) -> list[list[int]]:
    """Clause rows with shuffled, repeated and complementary literals and
    some empty clauses."""
    rows = []
    for _ in range(rng.randint(5, 60)):
        row = [rng.choice((1, -1)) * rng.randint(1, n_vars)
               for _ in range(rng.choice((0, 1, 2, 3, 3, 5)))]
        if row and rng.random() < 0.3:
            row.append(row[0])
        if row and rng.random() < 0.2:
            row.append(-row[-1])
        rng.shuffle(row)
        rows.append(row)
    return rows


def _dimacs_texts(seed: int) -> list[tuple[str, bool]]:
    """(text, whether the fast reader takes it) for one seed: printed
    random 3-SAT, scrambled rows, comments between clauses, clauses spread
    over lines, and literals with a leading zero, which only the line
    reader takes."""
    rng = random.Random(seed)
    printed = print_dimacs(random_3sat(rng, rng.randint(5, 60), rng.randint(1, 120)))
    n_vars = rng.randint(3, 150)
    rows = _random_rows(rng, n_vars)
    body = ["".join(f"{v} " for v in row) + "0" for row in rows]
    header = f"p cnf {n_vars} {len(rows)}"
    commented = "\n".join(["c made by a seeded test", header]
                          + [f"{line}\nc after clause {i}" for i, line in enumerate(body, 1)])
    spread = header + "\n" + "\n".join(" ".join(body).split(" ")) + "\n"
    padded = header + "\n" + "\n".join(
        " ".join(f"-0{-v}" if v < 0 else str(v) for v in row + [0]) for row in rows) + "\n"
    return [(printed, True), (header + "\n" + "\n".join(body) + "\n", True),
            (commented + "\n", True), (spread, True), (padded, not any(min(r, default=0) < 0
                                                                      for r in rows))]


@pytest.mark.parametrize("seed", range(12))
def test_dimacs_numbering_matches_the_objects_it_derives(seed):
    for text, fast in _dimacs_texts(seed):
        assert (parsing._dimacs_fast(text) is not None) == fast, text
        cs = parse_dimacs(text)
        # the numbering is read before any clause object exists
        first, rows = number_atoms(cs)
        assert (first, rows) == _object_numbering(cs)
        assert len(rows) == len(cs) == len(cs.clauses)
        # the derived clauses are those of the line reader
        assert cs == _line_reader_objects(text)
        # one Literal per distinct signed number
        lits = [lit for c in cs.clauses for lit in c]
        assert len({id(lit) for lit in lits}) == len(set(lits))
        # printed from the rows as the object printer prints it
        assert print_dimacs(parse_dimacs(text)) == reference_print_dimacs(parse_dimacs(text))


def _subsets(rng: random.Random, cs: ClauseSet) -> list[list[int]]:
    ids = cs.ids()
    return [[], ids, rng.sample(ids, len(ids) // 2), rng.sample(ids, min(3, len(ids)))]


@pytest.mark.parametrize("seed", range(8))
def test_subset_numbering_equals_the_numbering_of_its_clauses(seed):
    rng = random.Random(seed)
    sets = [parse_dimacs(print_dimacs(random_3sat(rng, 40, 90))),
            random_ground(rng, 12, 30),
            random_first_order(rng, 30)]
    for cs in sets:
        number_atoms(cs)  # the parent's numbering is known
        for keep in _subsets(rng, cs):
            sub = cs.subset(keep)
            kept = set(keep)
            assert sub.ids() == [cid for cid in cs.ids() if cid in kept]
            assert number_atoms(sub) == _object_numbering(sub)
            assert sub.clauses == [c for c in cs.clauses if c.id in kept]
            # a subset of a subset renumbers the renumbered rows
            inner = sub.subset(rng.sample(sub.ids(), len(sub) // 2))
            assert number_atoms(inner) == _object_numbering(inner)
            assert inner.clauses == [c for c in sub.clauses if inner.has_id(c.id)]
            if cs.is_ground():
                assert print_dimacs(inner) == reference_print_dimacs(inner)
            else:
                assert print_tptp(inner) == print_tptp(ClauseSet.from_clauses(inner.clauses))


def test_subset_of_an_unnumbered_set_reads_the_same():
    rng = random.Random(5)
    cs = parse_dimacs(print_dimacs(random_3sat(rng, 30, 60)))
    keep = rng.sample(cs.ids(), 20)
    lazy = cs.subset(keep).subset(keep[:10])  # no rows read before the second subset
    assert len(lazy) == 10
    assert lazy == cs.subset(keep[:10])
    assert number_atoms(lazy) == _object_numbering(lazy)
    fo = parse_tptp(print_tptp(random_first_order(rng, 20)))
    part = fo.subset(fo.ids()[::2])  # numbered by no one: built from the clause objects
    assert part.clauses == fo.clauses[::2]
    assert number_atoms(part) == _object_numbering(part)


def test_equality_and_repr_are_those_of_the_clause_objects():
    text = "p cnf 3 3\n1 -2 0\n-3 2 2 0\n0\n"
    read, objects = parse_dimacs(text), _line_reader_objects(text)
    assert read == objects
    assert repr(read) == repr(objects)
    assert repr(read).startswith("ClauseSet(clauses=[Clause(id=1, literals=(Literal(positive=True")
    assert read == parse_dimacs("p cnf 3 3\n-2 1 0\n2 -3 0\n0\n")
    assert read != parse_dimacs("p cnf 3 3\n1 -2 0\n-3 0\n0\n")
    assert str(read) == "c1: 1 | ~2\nc2: 2 | ~3\nc3: $false"
    with pytest.raises(TypeError):
        hash(read)

