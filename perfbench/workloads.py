"""The four workloads: seeded inputs, the requests made on them, and the
check of every answer against a reference from ``ref``.

Each workload is built in two steps.  ``generate`` makes the inputs from the
seed and writes the files the CLI reads; it is the timed set-up.  ``plan``
computes the reference answers and turns the inputs into requests; it is not
timed.  A request is either an argv for ``altpath.cli.main`` or a library
call, plus a ``check`` that maps the outcome to a status and work counters.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import ref
from ref import INF

OK, UNDECIDED, WRONG, ERROR = "ok", "undecided", "wrong", "error"

SOS_CAP = 2000          # sos_refute clause cap on the sos-check workload
SOLVE_CAP = 300         # --max-calls of the capped solve requests
DEEPEN_CAP = ("--slice", "16", "--max-rounds", "1")


@dataclass
class Outcome:
    code: Any = None        # CLI exit code, or None for a library call
    stdout: str = ""
    value: Any = None       # library return value
    error: str | None = None
    stderr: str = ""


@dataclass
class Request:
    kind: str
    check: Callable[[Outcome], tuple[str, dict]]
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None


@dataclass
class Input:
    name: str
    clauses: dict[int, tuple]
    path: str = ""
    roles: dict[int, str] = field(default_factory=dict)
    program_set: Any = None  # ClauseSet handed to library requests
    support: list[int] = field(default_factory=list)
    note: dict = field(default_factory=dict)
    _partners: Any = None
    _dist: dict = field(default_factory=dict)

    def partners(self):
        if self._partners is None:
            self._partners = ref.Partners(self.clauses)
        return self._partners

    def dist(self, support) -> dict[int, float]:
        key = tuple(sorted(support))
        if key not in self._dist:
            self._dist[key] = ref.distances(self.clauses, key, self.partners())
        return self._dist[key]


def _ids(ids) -> str:
    return "ids:" + ",".join(str(i) for i in sorted(ids))


def _json(out: Outcome) -> dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


def _cli_failed(out: Outcome, want_codes) -> tuple[str, dict] | None:
    if out.error is not None:
        return ERROR, {"error": out.error}
    if out.code not in want_codes:
        return ERROR, {"error": f"exit {out.code}: {out.stderr.strip()[:200]}"}
    return None


def _show(d: float) -> str:
    return "inf" if d == INF else str(int(d))


def _read_csv(path: str) -> dict[int, float]:
    with open(path) as fh:
        rows = fh.read().split()[1:]
    out = {}
    for row in rows:
        cid, d = row.split(",")
        out[int(cid)] = INF if d == "inf" else int(d)
    return out


def _shuffled(rng: random.Random, groups: list[list[tuple]]) -> tuple[dict[int, tuple], list[int]]:
    """Clause order shuffled; returns the clause dict and the new id of
    each original clause index."""
    order = list(range(len(groups)))
    rng.shuffle(order)
    new_id = [0] * len(groups)
    for pos, old in enumerate(order):
        new_id[old] = pos + 1
    return ref.from_groups([groups[old] for old in order]), new_id


def _int_atoms(rng: random.Random, groups: list[list[tuple]]) -> list[list[tuple]]:
    """Rename atoms to a seeded permutation of 1..n (DIMACS names)."""
    names = sorted({l[1] for g in groups for l in g})
    perm = list(range(1, len(names) + 1))
    rng.shuffle(perm)
    to = dict(zip(names, (str(p) for p in perm)))
    return [[(l[0], to[l[1]], ()) for l in g] for g in groups]


def _program_set(clauses: dict[int, tuple]):
    from altpath.clauses import ClauseSet, Literal

    return ClauseSet.from_groups(
        [[Literal(l[0], l[1]) for l in clauses[cid]] for cid in sorted(clauses)]
    )


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# Distance answers shared by the filter workloads


def _check_filter(inp: Input, support, n, csv_path, purity_total=None, out_path=None):
    """``inp`` is the set the distances are taken in: the input, or what
    purity left of it when ``purity_total`` gives the input's size."""
    clauses = inp.clauses

    def check(out: Outcome):
        failed = _cli_failed(out, (0,))
        if failed:
            return failed
        dist = inp.dist(support)
        relevant = sorted(c for c, d in dist.items() if d <= n)
        if csv_path and _read_csv(csv_path) != dist:
            return WRONG, {"why": "csv distances differ from the reference"}
        if out_path:
            with open(out_path) as fh:
                names = [row[0] for row in ref.read_tptp(fh.read())]
            if names != [f"c{c}" for c in relevant]:
                return WRONG, {"why": "written neighborhood differs from the reference"}
            want = f"relevant at {n}: {len(relevant)}"
            if want not in out.stdout.splitlines():
                return WRONG, {"why": "summary line missing"}
        else:
            got = _json(out)
            hist: dict[str, int] = {}
            for d in dist.values():
                hist[_show(d)] = hist.get(_show(d), 0) + 1
            want = {
                "input_clauses": purity_total or len(clauses),
                "after_purity": len(clauses) if purity_total else None,
                "support": sorted(support),
                "bound": n,
                "relevant": len(relevant),
                "histogram": hist,
            }
            if got != want:
                return WRONG, {"why": "summary differs from the reference"}
        return OK, {"relevant": len(relevant), "input": purity_total or len(clauses)}

    return check


def _check_path(inp: Input, support, target):
    def check(out: Outcome):
        failed = _cli_failed(out, (0,))
        if failed:
            return failed
        got = _json(out)
        want = inp.dist(support)[target]
        why = ref.check_path(inp.clauses, set(support), got["clauses"],
                             [tuple(l) for l in got["links"]], want)
        if why is None and (got["length"] != want or got["clauses"][-1] != target):
            why = "length or end clause wrong"
        return (WRONG, {"why": why}) if why else (OK, {"length": got["length"]})

    return check


def _pick_target(rng: random.Random, dist: dict[int, float], support) -> int:
    """A reachable clause, preferring the far end of the neighborhood."""
    finite = [c for c, d in sorted(dist.items()) if d < INF and c not in support]
    if not finite:
        return sorted(support)[0]
    far = max(dist[c] for c in finite)
    pool = [c for c in finite if dist[c] >= min(far, 3)]
    return rng.choice(pool)


# ---------------------------------------------------------------------------
# ground-filter


# every rung three times: as 3 and 7 are coprime, the purity, path and
# stats rotation below gives each rung each of them once.  p90 falls inside
# the three first-order filters of the 2800 rung and the purity filter of a
# 2000 one, below the six heaviest requests on 4000 clauses.
FILTER_RUNGS = (500, 700, 1000, 1400, 2000, 2800, 4000)


def gen_ground_filter(rng: random.Random, workdir: str) -> list[Input]:
    from altpath.generators import random_3sat

    inputs = []
    for i, m in enumerate(FILTER_RUNGS * 3):
        clauses = ref.from_program(random_3sat(rng, round(m / 4.26), m))
        inp = Input(f"g{i}", clauses)
        inp.path = _write(workdir, f"g{i}.cnf", ref.write_dimacs(clauses))
        inp.support = sorted(rng.sample(sorted(clauses), 2))
        inputs.append(inp)
    return inputs


def plan_ground_filter(rng: random.Random, inputs: list[Input], workdir: str) -> list[Request]:
    """Every file gets a first-order and a hub filter and a hub stats;
    purity, path and stats rotate over the files."""
    reqs = []
    for i, inp in enumerate(inputs):
        s, n = inp.support, 2 + i % 2
        hub = ["--hub"] if i % 2 else []
        csv = os.path.join(workdir, f"{inp.name}.csv")
        reqs.append(Request(
            "filter", _check_filter(inp, s, n, csv),
            ["filter", inp.path, "-n", str(n), "--support", _ids(s), "--json", "--csv", csv]))
        reqs.append(Request(
            "filter --hub", _check_filter(inp, s, 3, csv),
            ["filter", inp.path, "-n", "3", "--hub", "--support", _ids(s), "--json", "--csv", csv]))
        if i % 3 == 0:
            pure = Input(inp.name + "-pure", ref.purity(inp.clauses))
            ps = sorted(rng.sample(sorted(pure.clauses), 1))
            reqs.append(Request(
                "filter --purity", _check_filter(pure, ps, 2, csv, purity_total=len(inp.clauses)),
                ["filter", inp.path, "-n", "2", "--purity", "--support", _ids(ps), "--json", "--csv", csv]))
        elif i % 3 == 1:
            target = _pick_target(rng, inp.dist(s), s)
            reqs.append(Request(
                "path", _check_path(inp, s, target),
                ["path", inp.path, "--to", str(target), "--support", _ids(s), "--json"] + hub))
        else:
            reqs.append(Request(
                "stats", _check_stats(inp, s, n),
                ["stats", inp.path, "--bound", str(n), "--support", _ids(s), "--json"] + hub))
        reqs.append(Request(
            "stats --hub", _check_stats(inp, s, 3),
            ["stats", inp.path, "--bound", "3", "--support", _ids(s), "--json", "--hub"]))
    return reqs


def _check_stats(inp: Input, support, n):
    def check(out: Outcome):
        failed = _cli_failed(out, (0,))
        if failed:
            return failed
        b = ref.occurrence_bound(inp.clauses)
        k = max(len(l) for l in inp.clauses.values())
        relevant = sum(1 for d in inp.dist(support).values() if d <= n)
        want = {
            "clauses": len(inp.clauses),
            "atoms": len({(l[1], l[2]) for ls in inp.clauses.values() for l in ls}),
            "b": b, "k": k, "support": len(support), "relevant": relevant,
            "budget": ref.growth_budget(len(support), b, k, n),
        }
        if _json(out) != want:
            return WRONG, {"why": "stats differ from the reference"}
        return OK, {"relevant": relevant, "input": len(inp.clauses)}

    return check


# ---------------------------------------------------------------------------
# ground-solve


REL_VARS = (40, 45, 50, 55, 60)   # solved with and without relevance
PLAIN_VARS = (70, 80)             # solved plainly (--no-relevance)
# The seed barely moves the cost of Horn trees, pigeonhole sets and small
# valid-support sets, so they are many: twelve tail sets (forty-eight
# requests of near cost) around the median, five depth-9 trees (twenty
# requests) around p90.  That keeps both percentiles steady across seeds,
# which random 3-SAT alone would not.
HORN_DEPTHS = (5, 6, 7, 7, 8, 9, 9, 9, 9, 9)
PHP_PIGEONS = (5, 6, 6, 7)
TAILS = 12
BUDGET_SETS = 24
EASY_SIZES = (1200, 1600)


def _php(p: int) -> tuple[list[list[tuple]], int]:
    """Pigeonhole p into p-1; returns the groups and the count of the
    all-positive pigeon clauses, which come first."""
    h = p - 1
    v = lambda i, j: f"x{i}_{j}"  # noqa: E731
    groups = [[(True, v(i, j), ()) for j in range(h)] for i in range(p)]
    for j in range(h):
        for a, b in itertools.combinations(range(p), 2):
            groups.append([(False, v(a, j), ()), (False, v(b, j), ())])
    return groups, p


def _horn(depth: int, branching: int) -> list[list[tuple]]:
    """Goal-tree Horn set as in the paper: goal clause first, one rule per
    internal node, one fact per leaf."""
    groups = [[(False, "g0", ())]]
    internal = sum(branching ** d for d in range(depth))
    total = sum(branching ** d for d in range(depth + 1))
    for node in range(total):
        if node < internal:
            kids = [branching * node + 1 + i for i in range(branching)]
            groups.append([(True, f"g{node}", ())] + [(False, f"g{c}", ()) for c in kids])
        else:
            groups.append([(True, f"g{node}", ())])
    return groups


def _detached_tail(rng: random.Random) -> list[list[tuple]]:
    """Unsatisfiable by construction once the first clause is in: a forced
    chain into x1 and every sign pattern over the x atoms after it, plus a
    satisfiable implication tail that shares no atom with them."""
    chain, width, tail = rng.randint(3, 8), rng.randint(2, 4), rng.randint(30, 60)
    groups = [[(False, "y1", ())]]
    for i in range(2, chain + 1):
        groups.append([(True, f"y{i - 1}", ()), (False, f"y{i}", ())])
    groups.append([(True, f"y{chain}", ()), (True, "x1", ())])
    for bits in itertools.product((True, False), repeat=width):
        groups.append([(False, "x1", ())] + [(s, f"x{i + 2}", ()) for i, s in enumerate(bits)])
    groups.append([(True, "t1", ())])
    for i in range(1, tail):
        groups.append([(False, f"t{i}", ()), (True, f"t{i + 1}", ())])
    return groups


def _valid_support_sample(rng: random.Random, atoms: tuple[int, int], size: tuple[int, int]):
    """Random ground set that is unsatisfiable while its first clause
    removed leaves a satisfiable rest (the first clause is a valid support)."""
    while True:
        n = rng.randint(*atoms)
        groups = []
        for _ in range(rng.randint(*size)):
            lits = {}
            for _ in range(rng.randint(1, 3)):
                a = str(rng.randint(1, n))
                lits.setdefault(a, rng.random() < 0.5)
            groups.append([(s, a, ()) for a, s in lits.items()])
        if ref.sat(groups) is None and ref.sat(groups[1:]) is not None:
            return groups


def _planted_easy(rng: random.Random, m: int) -> list[list[tuple]]:
    """Satisfiable by construction: mostly disjoint binary clauses plus a few
    ternary ones, each with a literal true under a planted assignment."""
    n = 2 * m
    planted = {str(v): rng.random() < 0.5 for v in range(1, n + 1)}
    groups = []
    for i in range(m):
        if i % 20 == 19:
            atoms = rng.sample(range(1, n + 1), 3)
        else:
            atoms = [2 * i + 1, 2 * i + 2]
        lits = [(rng.random() < 0.5, str(a), ()) for a in atoms]
        a = str(atoms[0])
        lits[0] = (planted[a], a, ())
        groups.append(lits)
    return groups


def gen_ground_solve(rng: random.Random, workdir: str) -> list[Input]:
    from altpath.generators import random_3sat

    inputs: list[Input] = []

    def add(name, groups, support_idx, **note):
        groups = _int_atoms(rng, groups)
        clauses, new_id = _shuffled(rng, groups)
        inp = Input(name, clauses, support=[new_id[support_idx]], note=note)
        inp.path = _write(workdir, f"{name}.cnf", ref.write_dimacs(clauses))
        inputs.append(inp)

    for i, n in enumerate(REL_VARS * 2 + PLAIN_VARS * 3):
        clauses = ref.from_program(random_3sat(rng, n, round(4.26 * n)))
        family = "3sat" if n in REL_VARS else "3sat-plain"
        inp = Input(f"r{i}", clauses, support=[rng.randint(1, len(clauses))], note={"family": family})
        inp.path = _write(workdir, f"r{i}.cnf", ref.write_dimacs(clauses))
        inputs.append(inp)
    for i, p in enumerate(PHP_PIGEONS):
        groups, pigeons = _php(p)
        add(f"php{i}", groups, rng.randrange(pigeons), family="php", unsat=True, rest_sat=True,
            capped=p == PHP_PIGEONS[-1])
    for i, d in enumerate(HORN_DEPTHS):
        add(f"horn{i}", _horn(d, 2), 0, family="horn", unsat=True, rest_sat=True)
    for i in range(TAILS):
        add(f"tail{i}", _detached_tail(rng), 0, family="tail", unsat=True, rest_sat=True, budget=True)
    for i in range(BUDGET_SETS):
        add(f"budget{i}", _valid_support_sample(rng, (3, 5), (6, 16)), 0,
            family="budget", rest_sat=True, budget=True)
    for i, m in enumerate(EASY_SIZES):
        add(f"easy{i}", _planted_easy(rng, m), 0, family="easy", sat=True, rest_sat=True)
    return inputs


def _label(inp: Input) -> bool:
    """True when satisfiable: by construction where the family fixes it,
    otherwise by the reference solver."""
    if "sat" not in inp.note:
        if inp.note.get("unsat"):
            inp.note["sat"] = False
        else:
            inp.note["sat"] = ref.sat(inp.clauses.values()) is not None
    return inp.note["sat"]


def _radius(inp: Input):
    if "radius" not in inp.note:
        inp.note["radius"], inp.note["levels"] = ref.levels_radius(inp.clauses, inp.dist(inp.support))
    return inp.note["radius"]


def _neighborhood_atoms(inp: Input) -> int:
    dist = inp.dist(inp.support)
    r = _radius(inp)
    cap = r if r < INF else max(d for d in dist.values() if d < INF)
    return len({l[1] for c, d in dist.items() if d <= cap for l in inp.clauses[c]})


def _check_solve(inp: Input, trusted: bool, cap: int | None, budget: bool):
    def check(out: Outcome):
        failed = _cli_failed(out, (10, 20, 0))
        if failed:
            return failed
        got = _json(out)
        counters = {k: got[k] for k in ("calls", "splits", "units", "fallback")}
        verdict = got["verdict"]
        if out.code != {"sat": 10, "unsat": 20, "unknown": 0}[verdict]:
            return WRONG, {"why": "exit code does not match the verdict"}
        if verdict == "unknown":
            if cap is None or got["calls"] <= cap:
                return WRONG, {"why": "unknown without reaching the call cap"}
            return UNDECIDED, counters
        if verdict == "sat":
            if not trusted:
                model = {(a, ()): v for a, v in got["model"].items()}
                if not ref.satisfies(inp.clauses.values(), model):
                    return WRONG, {"why": "model falsifies a clause"}
            elif not _label(inp):
                return WRONG, {"why": "sat on an unsatisfiable input"}
        elif _label(inp):
            return WRONG, {"why": "unsat on a satisfiable input"}
        if budget:
            counters["budget_fill"] = got["calls"] / 2 ** _neighborhood_atoms(inp)
        return OK, counters

    return check


def _check_radius(inp: Input):
    def check(out: Outcome):
        failed = _cli_failed(out, (0,))
        if failed:
            return failed
        want = _show(_radius(inp))
        if _json(out) != {"radius": want}:
            return WRONG, {"why": f"radius differs from the reference {want}"}
        return OK, {}

    return check


def _check_deepen(inp: Input):
    def check(out: Outcome):
        failed = _cli_failed(out, (10, 20, 0))
        if failed:
            return failed
        got = _json(out)
        radius = _radius(inp)
        levels = inp.note["levels"]
        verdict, label, pending = got["verdict"], got["level"], got["undecided"]
        if verdict == "unknown":
            return UNDECIDED, {}
        if verdict == "sat":
            return (WRONG, {"why": "sat on an unsatisfiable input"}) if not _label(inp) else (OK, {})
        if label == "full":
            full_unsat = not _label(inp)
            ok = full_unsat and (radius == INF or pending)
        else:
            n = int(label)
            ok = levels.get(n) is False and (radius == n or (pending and radius < n))
        if not ok:
            return WRONG, {"why": f"unsat at level {label}, reference radius {_show(radius)}"}
        return OK, {"level": label}

    return check


def plan_ground_solve(rng: random.Random, inputs: list[Input], workdir: str) -> list[Request]:
    reqs = []
    for inp in inputs:
        fam, s = inp.note["family"], _ids(inp.support)
        base = [inp.path, "--support", s, "--json"]
        budget = bool(inp.note.get("budget"))
        _label(inp)

        def solve(kind, extra, trusted=False, cap=None):
            reqs.append(Request(kind, _check_solve(inp, trusted, cap, budget and not trusted),
                                ["solve"] + base + extra))

        if fam == "3sat-plain":
            solve("solve --no-relevance", ["--no-relevance"])
            continue
        solve("solve", ["--count-calls"] if budget else [])
        if fam in ("php", "easy"):
            solve("solve --no-relevance", ["--no-relevance"])
        if inp.note.get("rest_sat") or (
            fam == "3sat"
            and ref.sat([c for i, c in inp.clauses.items() if i not in inp.support]) is not None
        ):
            solve("solve --trusted", ["--trusted"], trusted=True)
        elif fam == "3sat":
            solve("solve --no-relevance", ["--no-relevance"])
        if fam in ("horn", "tail", "budget") or (fam == "php" and not inp.note.get("capped")):
            reqs.append(Request("radius", _check_radius(inp), ["radius"] + base))
        if fam in ("horn", "tail"):
            reqs.append(Request("deepen", _check_deepen(inp), ["deepen"] + base))
        if inp.note.get("capped"):
            solve("solve --max-calls", ["--no-relevance", "--max-calls", str(SOLVE_CAP)], cap=SOLVE_CAP)
            reqs.append(Request("deepen --max-rounds", _check_deepen(inp), ["deepen"] + base + list(DEEPEN_CAP)))
    return reqs


# ---------------------------------------------------------------------------
# fo-filter


# every size is made twice, so the percentiles fall between requests of
# near cost and move little from seed to seed
SPARSE_SIZES = (300, 450, 700, 1100, 1800, 3000)
SPARSE_PATHS = (300, 450, 700, 1100)       # sizes that also get a path request
SPARSE_WRITTEN = (450, 1100)               # sizes that also get filter -o
DENSE_SIZES = (100, 120, 150, 200, 300)
DENSE_PATHS = (100, 120, 200)
SPARSE_CHUNK = 500


def _sparse_first_order(rng: random.Random, m: int) -> dict[int, tuple]:
    """A bounded-occurrence first-order set (b=3, k=3) of m clauses, made as
    independent chunks of at most SPARSE_CHUNK clauses with their own
    predicates: the generator's cost grows with clauses times predicates,
    and a union of such chunks keeps the occurrence and width bounds."""
    from altpath.generators import bounded_occurrence

    groups = []
    for chunk, start in enumerate(range(0, m, SPARSE_CHUNK)):
        size = min(SPARSE_CHUNK, m - start)
        cs = bounded_occurrence(rng, 3, 3, max(4, size // 3), size, first_order=True)
        for lits in ref.from_program(cs).values():
            groups.append([(l[0], f"{l[1]}_{chunk}", l[2]) for l in lits])
    return ref.from_groups(groups)


def gen_fo_filter(rng: random.Random, workdir: str) -> list[Input]:
    from altpath.generators import random_first_order

    inputs = []
    for i, m in enumerate(SPARSE_SIZES * 2):
        inputs.append(Input(f"s{i}", _sparse_first_order(rng, m), note={"family": "sparse", "size": m}))
    for i, m in enumerate(DENSE_SIZES * 2):
        inputs.append(Input(f"d{i}", ref.from_program(random_first_order(rng, m)),
                            note={"family": "dense", "size": m}))
    for inp in inputs:
        inp.support = sorted(rng.sample(sorted(inp.clauses), 2))
        inp.roles = {c: "negated_conjecture" for c in inp.support}
        inp.path = _write(workdir, f"{inp.name}.p", ref.write_tptp(inp.clauses, inp.roles))
    return inputs


def _check_split(inp: Input, cid: int | None, var: str | None):
    def check(out: Outcome):
        failed = _cli_failed(out, (0,))
        if failed:
            return failed
        got = _json(out)
        want_cid, want_var = (cid, var) if cid is not None else inp.note["choice"]
        if (got["clause"], got["var"]) != (want_cid, want_var):
            return WRONG, {"why": "split a different clause or variable than the reference"}
        with open(inp.note["split_out"]) as fh:
            printed = ref.read_tptp(fh.read())
        names = {c: f"c{c}" for c in inp.clauses}
        why = ref.check_split(inp.clauses, names, want_cid, want_var, printed)
        if why is None and got["output_clauses"] != len(printed):
            why = "output clause count wrong"
        return (WRONG, {"why": why}) if why else (OK, {"output_clauses": len(printed)})

    return check


def plan_fo_filter(rng: random.Random, inputs: list[Input], workdir: str) -> list[Request]:
    reqs = []
    for inp in inputs:
        s, size = inp.support, inp.note["size"]
        sparse = inp.note["family"] == "sparse"
        csv = os.path.join(workdir, f"{inp.name}.csv")
        out_p = os.path.join(workdir, f"{inp.name}.out.p")
        n = 4 if sparse else 2
        reqs.append(Request(
            "filter", _check_filter(inp, s, n, csv),
            ["filter", inp.path, "-n", str(n), "--support", _ids(s), "--json", "--csv", csv]))
        if sparse and size in SPARSE_WRITTEN:
            reqs.append(Request(
                "filter -o", _check_filter(inp, s, 3, None, out_path=out_p),
                ["filter", inp.path, "-n", "3", "--support", _ids(s), "-o", out_p]))
        if size in (SPARSE_PATHS if sparse else DENSE_PATHS):
            target = _pick_target(rng, inp.dist(s), s)
            reqs.append(Request(
                "path", _check_path(inp, s, target),
                ["path", inp.path, "--to", str(target), "--support", _ids(s), "--json"]))
        split_out = os.path.join(workdir, f"{inp.name}.split.p")
        inp.note["split_out"] = split_out
        argv = ["split", inp.path, "--json", "-o", split_out]
        choice = ref.choose_split(inp.clauses) if sparse else None
        if choice is not None:
            inp.note["choice"] = choice
            reqs.append(Request("split auto", _check_split(inp, None, None), argv))
            continue
        with_vars = [c for c in sorted(inp.clauses) if ref.variables(inp.clauses[c])]
        for extra in ([], ["--binary"]):
            cid = rng.choice(with_vars)
            var = rng.choice(ref.variables(inp.clauses[cid]))
            reqs.append(Request("split" + (" --binary" if extra else ""), _check_split(inp, cid, var),
                                argv + extra + ["--clause", str(cid), "--var", var]))
    return reqs


# ---------------------------------------------------------------------------
# sos-check


# Horn trees are a sixth of the requests, so p90 falls inside them rather
# than at their edge.  The random sets are many, so their median, which is
# the workload's p50, moves little from seed to seed.
SOS_HORNS = ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)) * 6
SOS_UNSAT = 120
SOS_SAT = 54


def gen_sos_check(rng: random.Random, workdir: str) -> list[Input]:
    inputs = []

    def add(name, groups, support_idx, **note):
        groups = _int_atoms(rng, groups)
        clauses, new_id = _shuffled(rng, groups)
        inp = Input(name, clauses, support=[new_id[support_idx]], note=note)
        inp.program_set = _program_set(clauses)
        inputs.append(inp)

    for i, (d, b) in enumerate(SOS_HORNS):
        add(f"horn{i}", _horn(d, b), 0, horn=True, sat=False)
    for i in range(SOS_UNSAT):
        add(f"unsat{i}", _valid_support_sample(rng, (3, 12), (8, 40)), 0, sat=False)
    for i in range(SOS_SAT):
        add(f"sat{i}", _satisfiable_sample(rng), 0, sat=True)
    return inputs


def _satisfiable_sample(rng: random.Random):
    """Random satisfiable ground set over 3-5 atoms: at most 3^5 distinct
    clauses exist there, so saturation always ends below the clause cap."""
    while True:
        n = rng.randint(3, 5)
        groups = []
        for _ in range(rng.randint(4, 12)):
            lits = {}
            for _ in range(rng.randint(1, 3)):
                lits.setdefault(str(rng.randint(1, n)), rng.random() < 0.5)
            groups.append([(s, a, ()) for a, s in lits.items()])
        if ref.sat(groups) is not None:
            return groups


def _entries(seq) -> list[tuple]:
    out = []
    for e in seq.entries:
        lits = frozenset((l.positive, l.pred, ()) for l in e.clause.literals)
        atom = None if e.atom is None else (True, e.atom.pred, ())
        out.append((e.clause.id if e.parents is None else None, lits, e.parents, atom, e.supported))
    return out


def _sos_call(inp: Input, target: int | None):
    from altpath import graph, resolution

    def call():
        cs, support = inp.program_set, inp.support
        res = resolution.sos_refute(cs, support, max_clauses=SOS_CAP)
        answer = {"sos": res}
        if res.status == "refuted":
            answer["path_property"] = resolution.verify_support_path_property(res.sequence, cs, support)
        if target is not None:
            dmap = graph.bfs_from_support(graph.build_graph(cs), support)
            path = dmap.witness(target)
            answer["path"] = path
            answer["linear"] = resolution.linear_sequence_from_path(cs, path, support)
        if inp.note.get("horn"):
            answer["hyper"] = resolution.hyper_resolution_levels(cs)
        return answer

    return call


def _check_sos(inp: Input, target: int | None):
    def check(out: Outcome):
        if out.error is not None:
            return ERROR, {"error": out.error}
        ans = out.value
        res = ans["sos"]
        support = set(inp.support)
        dist = inp.dist(inp.support)
        counters = {"derived": res.derived_count, "levels": res.levels}
        status = OK
        if res.status == "refuted":
            entries = _entries(res.sequence)
            why = ref.check_sequence(entries, inp.clauses, support, want_refutation=True)
            if why:
                return WRONG, {"why": why}
            if inp.note["sat"]:
                return WRONG, {"why": "refuted a satisfiable input"}
            within = all(dist[e[0]] <= i for i, e in enumerate(entries, start=1) if e[2] is None)
            if not (within and ans["path_property"]):
                return WRONG, {"why": "support path property fails"}
            counters["resolutions"] = sum(1 for e in entries if e[2] is not None)
        elif res.status == "saturated":
            if not inp.note["sat"]:
                return WRONG, {"why": "saturated on an unsatisfiable input with a valid support"}
        elif res.status == "limit" and res.derived_count >= SOS_CAP:
            status = UNDECIDED
        else:
            return WRONG, {"why": f"status {res.status} with {res.derived_count} derived"}
        if target is not None:
            path, seq = ans["path"], ans["linear"]
            n = len(path.clause_ids)
            entries = _entries(seq)
            why = ref.check_sequence(entries, inp.clauses, support, want_refutation=False)
            if why is None and (n != dist[target] or len(entries) != 2 * n - 1):
                why = "linear sequence length does not match the reference distance"
            if why is None and [e[0] for e in entries if e[2] is None][-1] != target:
                why = "linear sequence does not end at the target"
            if why:
                return WRONG, {"why": why}
        if inp.note.get("horn") and ans["hyper"] != ref.hyper_levels(inp.clauses):
            return WRONG, {"why": "hyper-resolution levels differ from the reference"}
        return status, counters

    return check


def plan_sos_check(rng: random.Random, inputs: list[Input], workdir: str) -> list[Request]:
    reqs = []
    for i, inp in enumerate(inputs):
        target = None
        if inp.note.get("horn") or i % 2:
            target = _pick_target(rng, inp.dist(inp.support), inp.support)
        kind = "sos horn" if inp.note.get("horn") else ("sos sat" if inp.note["sat"] else "sos unsat")
        reqs.append(Request(kind, _check_sos(inp, target), call=_sos_call(inp, target)))
    return reqs


def cross_check(inputs: list[Input], root: str) -> str:
    """Compare the reference with ``tests/oracles.py`` on the small ground
    inputs, where its exhaustive methods are fast enough."""
    sys.path.insert(0, os.path.join(root, "tests"))
    try:
        import oracles
    except ImportError:
        return "tests/oracles.py not importable, skipped"
    finally:
        sys.path.pop(0)
    checked = 0
    for inp in inputs:
        if len(inp.clauses) > 60 or any(l[2] for ls in inp.clauses.values() for l in ls):
            continue
        cs = _program_set(inp.clauses)
        if oracles.brute_distances(cs, inp.support) != inp.dist(inp.support):
            raise RuntimeError(f"reference distances disagree with the oracle on {inp.name}")
        if len(cs.atoms()) <= 12:
            if oracles.truth_table_sat(cs.clauses) != (ref.sat(inp.clauses.values()) is not None):
                raise RuntimeError(f"reference solver disagrees with the oracle on {inp.name}")
        checked += 1
    return f"{checked} small inputs agree"


WORKLOADS = {
    "ground-filter": (gen_ground_filter, plan_ground_filter),
    "ground-solve": (gen_ground_solve, plan_ground_solve),
    "fo-filter": (gen_fo_filter, plan_fo_filter),
    "sos-check": (gen_sos_check, plan_sos_check),
}
