"""Command-line front end.

Subcommands: filter (write the bounded relevance neighborhood), solve
(relevance-restricted DPLL over ground input), deepen (try growing
neighborhood levels until one refutes), distance / path / radius / stats
(diagnostics), split (instance-preserving clause splitting), gen (seeded
benchmark families).

Exit codes follow solver conventions: 10 satisfiable, 20 unsatisfiable,
0 finished without a verdict, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import re
import sys
from collections import Counter
from collections.abc import Callable
from itertools import chain

from altpath.clauses import ClauseSet, Literal
from altpath.dpll import (
    _RADIUS,
    _SOLVING,
    dpll,
    dpll_rel,
    support_radius,
)
from altpath.generators import bounded_occurrence, horn_tree, random_3sat
from altpath.graph import (
    FIRST_ORDER,
    INF,
    PROPOSITIONAL_HUB,
    bfs_from_support,
    build_graph,
    check_alternating_path,
    purity_filter,
)
from altpath.parsing import parse_auto, print_format, print_tptp
from altpath.splitting import (
    binary_split_plan,
    choose_split_variable,
    descendants,
    expand_restricted,
    full_split_plan,
    split_clause,
)


EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0

_VERDICT_CODE = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "unknown": EXIT_UNKNOWN}
_VERDICT_LINE = {
    "sat": "s SATISFIABLE",
    "unsat": "s UNSATISFIABLE",
    "unknown": "s UNKNOWN",
}

_COUNTING_NOTE = (
    "note: levels count clauses along a connection, so support clauses sit "
    "at level 1; a convention starting the support at 0 reports one less"
)


# ---------------------------------------------------------------------------
# Input plumbing


def _load(cfg: argparse.Namespace) -> tuple[ClauseSet, str]:
    """The input set and its detected format; TPTP includes resolve against
    $TPTP, or the current directory when it is unset."""
    with open(cfg.input, "rb") as fh:
        data = fh.read()
    return parse_auto(data, path=cfg.input, include_base=os.environ.get("TPTP"))


def resolve_support(cs: ClauseSet, spec: str | None, fmt: str) -> list[int]:
    """Turn a support spec into clause ids; error when it selects nothing.

    Specs: role:<role>, pos, neg, ids:<comma list>, file:<path of ids>.
    Default: negated_conjecture clauses for TPTP, all-negative clauses for
    DIMACS.  Each id is returned once, in first-seen order.
    """
    if spec is None:
        spec = "role:negated_conjecture" if fmt == "tptp" else "neg"
    if spec.startswith("role:"):
        role = spec[5:]
        ids = [cid for cid in cs.ids() if cs.roles.get(cid) == role]
    elif spec == "pos":
        ids = [cid for cid, row in zip(cs.ids(), cs.rows) if row and min(row) > 0]
    elif spec == "neg":
        ids = [cid for cid, row in zip(cs.ids(), cs.rows) if row and max(row) < 0]
    elif spec.startswith("ids:"):
        ids = _clause_ids(spec, [tok for tok in spec[4:].split(",") if tok])
    elif spec.startswith("file:"):
        with open(spec[5:]) as fh:
            ids = _clause_ids(spec, fh.read().split())
    else:
        raise ValueError(
            f"unknown support spec {spec!r} (use role:<r>, pos, neg, ids:<list> or file:<path>)"
        )
    ids = list(dict.fromkeys(ids))
    cs.check_support(ids)
    if not ids:
        raise ValueError(f"support spec {spec!r} selects no clauses")
    return ids


def _clause_ids(spec: str, tokens: list[str]) -> list[int]:
    """The tokens of a support spec as clause ids; ValueError naming the
    spec and the first token that is not an integer."""
    ids = []
    for tok in tokens:
        try:
            ids.append(int(tok))
        except ValueError:
            raise ValueError(f"support spec {spec!r}: {tok!r} is not a clause id") from None
    return ids


def _refuse_unread(options: dict[str, object], why: str) -> None:
    """Raise ValueError naming each flag of ``options`` (flag to parsed
    value) that was given, a value other than None or False: the caller
    passes the options that its chosen route does not read."""
    given = [flag for flag, value in options.items() if value is not None and value is not False]
    if given:
        raise ValueError(f"{', '.join(given)}: {why}")


def _single_support(cs: ClauseSet, cfg: argparse.Namespace, fmt: str) -> list[int]:
    """The clause ids of the command's one --support spec, or of the default
    spec when none is given."""
    if len(cfg.supports) > 1:
        raise ValueError(
            f"{cfg.command} takes one --support spec, got {len(cfg.supports)}: "
            + ", ".join(cfg.supports)
        )
    return resolve_support(cs, cfg.supports[0] if cfg.supports else None, fmt)


def _graph_mode(cfg: argparse.Namespace) -> str:
    return PROPOSITIONAL_HUB if cfg.hub else FIRST_ORDER


def _emit(cfg: argparse.Namespace, text: Callable[[], str]) -> None:
    # with --json and no --output the payload is dropped, and so never
    # built: the JSON line is the whole stdout contract then
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text())
    elif not cfg.json_out:
        sys.stdout.write(text())


def _json_dump(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _show(d: float) -> str:
    return "inf" if d == INF else str(int(d))


# ---------------------------------------------------------------------------
# filter


def cmd_filter(cfg: argparse.Namespace) -> int:
    cs, fmt = _load(cfg)
    if cfg.bound is None:
        raise ValueError("filter needs a distance bound (-n)")
    total = len(cs)
    specs = list(cfg.supports) or [None]
    if len(specs) > 1 and cfg.csv:
        raise ValueError("--csv needs a single support set")
    graph = build_graph(cs, _graph_mode(cfg))
    # purity and the searches over its survivors share the one graph
    survivors = None
    if cfg.purity:
        cs = survivors = purity_filter(graph)
    supports = [resolve_support(cs, spec, fmt) for spec in specs]
    # several supports print no histogram or CSV, so their searches need
    # only the levels up to the bound
    bound = cfg.bound if len(supports) > 1 else None
    dmaps = [bfs_from_support(graph, support, bound=bound, survivors=survivors)
             for support in supports]
    # the clauses within the bound of every support set
    keep = set.intersection(*(set(d.relevant_ids(cfg.bound)) for d in dmaps))
    sub = cs.subset(keep)
    support_ids = set().union(*supports)
    _emit(cfg, lambda: print_format(sub, fmt))
    if cfg.csv:
        with open(cfg.csv, "w") as fh:
            fh.write(dmaps[0].to_csv())
    histogram: Counter[str] = Counter()
    if len(dmaps) == 1:
        for d, count in Counter(dmaps[0].clause_distance.values()).items():
            histogram[_show(d)] += count
    if cfg.json_out:
        _json_dump(
            {
                "input_clauses": total,
                "after_purity": len(cs) if cfg.purity else None,
                "support": sorted(support_ids),
                "bound": cfg.bound,
                "relevant": len(sub),
                "histogram": histogram,
            }
        )
        return 0
    out = sys.stderr if cfg.output is None else sys.stdout
    print(f"input clauses: {total}", file=out)
    if cfg.purity:
        print(f"after purity: {len(cs)}", file=out)
    print(f"support clauses: {len(support_ids)}", file=out)
    print(f"relevant at {cfg.bound}: {len(sub)}", file=out)
    for key in sorted(histogram, key=lambda s: (s == "inf", len(s), s)):
        label = "unreachable" if key == "inf" else f"distance {key}"
        print(f"{label}: {histogram[key]}", file=out)
    return 0


# ---------------------------------------------------------------------------
# solve


def _model_lines(cs: ClauseSet, model: dict[Literal, bool], fmt: str) -> list[str]:
    if not model:
        return []
    if fmt == "dimacs":
        ints = sorted(
            (int(atom.pred) if value else -int(atom.pred)
             for atom, value in model.items()),
            key=abs,
        )
        return ["v " + " ".join(str(i) for i in ints) + " 0"]
    lits = sorted(
        (atom if value else atom.negated() for atom, value in model.items()),
        key=str,
    )
    return ["v " + " ".join(str(l) for l in lits)]


def cmd_solve(cfg: argparse.Namespace) -> int:
    if cfg.no_relevance:
        _refuse_unread({"--trusted": cfg.trusted, "--count-calls": cfg.count_calls},
                       "read only by relevance solving, which --no-relevance turns off")
    cs, fmt = _load(cfg)
    if cfg.no_relevance:
        result = dpll(cs, cfg.max_calls)
    else:
        # variables are refused before the support spec is read: on
        # first-order input the default spec may select nothing
        cs.require_ground(_SOLVING)
        support = _single_support(cs, cfg, fmt)
        result = dpll_rel(
            cs, support, cfg.max_calls, mode="trusted" if cfg.trusted else "fallback"
        )
    stats = result.stats
    lines = [
        f"c calls={stats.calls} splits={stats.splits} units={stats.unit_props} "
        f"fallback={stats.fallback_calls}"
    ]
    budget, k = None, result.k
    if cfg.count_calls:
        budget = _sized(k * math.log10(2), lambda: 2**k)
        lines.append(f"c calls={stats.calls} k={k} budget={budget}")
    lines.append(_VERDICT_LINE[result.verdict])
    if result.verdict == "sat":
        lines.extend(_model_lines(cs, result.model, fmt))
    if cfg.json_out:
        _json_dump(
            {
                "verdict": result.verdict,
                "calls": stats.calls,
                "splits": stats.splits,
                "units": stats.unit_props,
                "fallback": stats.fallback_calls,
                "k": k,
                "budget": budget,
                "model": {str(a): v for a, v in sorted(result.model.items(), key=lambda kv: str(kv[0]))},
            }
        )
    else:
        for line in lines:
            print(line)
    return _VERDICT_CODE[result.verdict]


# ---------------------------------------------------------------------------
# deepen


_SZS = re.compile(r"SZS status (\w+)")
_SZS_VERDICT = {
    "Theorem": "unsat",
    "Unsatisfiable": "unsat",
    "ContradictoryAxioms": "unsat",
    "Satisfiable": "sat",
    "CounterSatisfiable": "sat",
}


def _prover_verdict(template: str, cs: ClauseSet, timeout: float) -> tuple[str, str]:
    """Run the external prover on a temp TPTP file; (verdict, detail)."""
    import shlex  # the prover's modules load only when a prover runs
    import subprocess
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".p")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(print_tptp(cs))
        argv = [tok.replace("{file}", path) for tok in shlex.split(template)]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return "unknown", "timeout"
        except OSError as exc:
            return "unknown", f"prover error ({exc})"
        match = _SZS.search(proc.stdout)
        if match:
            status = match.group(1)
            return _SZS_VERDICT.get(status, "unknown"), f"SZS {status}"
        if proc.returncode != 0:
            return "unknown", f"prover error (exit {proc.returncode})"
        return "unknown", "no SZS status in prover output"
    finally:
        os.unlink(path)


def _deepen_stages(cs: ClauseSet, support: list[int]):
    """Level slices in ascending order, ending with the full set if the
    reachable part does not already cover it."""
    dmap = bfs_from_support(build_graph(cs), support)
    levels = sorted({int(d) for d in dmap.distances if d < INF})
    stages = [(str(n), cs.subset(dmap.relevant_ids(n))) for n in levels]
    if not stages or len(stages[-1][1]) < len(cs):
        stages.append(("full", cs))
    return stages


def _finish_deepen(cfg: argparse.Namespace, label: str | None, verdict: str,
                   pending: list[str], lines: list[str]) -> int:
    if verdict == "unsat":
        lines.append(f"c unsat at level {label}")
        if pending:
            lines.append(
                "c levels " + ", ".join(pending)
                + f" undecided; the support radius is at most {label}"
            )
        lines.append("c " + _COUNTING_NOTE)
    elif pending:  # the levels an unknown verdict leaves
        lines.append("c levels " + ", ".join(pending) + " undecided")
    lines.append(_VERDICT_LINE[verdict])
    if cfg.json_out:
        _json_dump(
            {
                "verdict": verdict,
                "level": label,
                "undecided": pending,
                "note": _COUNTING_NOTE if verdict == "unsat" else None,
            }
        )
    else:
        for line in lines:
            print(line)
    return _VERDICT_CODE[verdict]


# deepen's defaults, filled in where a backend reads them, so that an option
# given to the other backend shows as given
_SLICE, _MAX_ROUNDS, _PROVER_TIMEOUT = 256, 16, 5.0


def cmd_deepen(cfg: argparse.Namespace) -> int:
    cs, fmt = _load(cfg)
    ground = cs.is_ground()
    # each backend refuses the other's options before the support spec is read
    if ground:
        _refuse_unread({"--prover": cfg.prover, "--prover-timeout": cfg.prover_timeout},
                       "read only on first-order input; variable-free input "
                       "is deepened by the built-in solver")
    elif not cfg.prover:
        raise ValueError(
            "first-order deepening needs an external prover "
            "(--prover 'command {file}')"
        )
    else:
        _refuse_unread({"--slice": cfg.slice_calls, "--max-rounds": cfg.max_rounds},
                       "read only by the built-in solver; a prover decides "
                       "each level of first-order input once")
    support = _single_support(cs, cfg, fmt)
    stages = _deepen_stages(cs, support)
    lines: list[str] = []
    resolved: dict[str, str] = {}
    # a prover decides each level once; the solver's budget doubles per round
    for rnd in range(1, (cfg.max_rounds or _MAX_ROUNDS) + 1 if ground else 2):
        budget = (cfg.slice_calls or _SLICE) * 2 ** (rnd - 1)
        for idx, (label, sub) in enumerate(stages):
            if label in resolved:
                continue
            if ground:
                verdict, detail = dpll(sub, budget).verdict, f"round {rnd}, budget {budget}"
            else:
                verdict, detail = _prover_verdict(cfg.prover, sub,
                                                  cfg.prover_timeout or _PROVER_TIMEOUT)
            if verdict != "unknown" or not ground:  # every prover answer is shown
                lines.append(f"c level {label}: {verdict} ({detail})")
            if verdict == "unknown":
                continue
            resolved[label] = verdict
            if verdict == "unsat":
                pending = [l for l, _ in stages[:idx] if l not in resolved]
                return _finish_deepen(cfg, label, "unsat", pending, lines)
        if len(resolved) == len(stages):
            return _finish_deepen(cfg, stages[-1][0], "sat", [], lines)
    pending = [l for l, _ in stages if l not in resolved]
    return _finish_deepen(cfg, None, "unknown", pending, lines)


# ---------------------------------------------------------------------------
# diagnostics


def cmd_distance(cfg: argparse.Namespace) -> int:
    cs, _ = _load(cfg)
    if not cfg.pairs:
        raise ValueError("distance needs at least one --pair FROM TO")
    for pair in cfg.pairs:
        for cid in pair:
            if not cs.has_id(cid):
                raise ValueError(f"no clause with id {cid}")
    graph = build_graph(cs)
    sources = {from_id for from_id, _ in cfg.pairs}  # each searched once
    dmaps = {from_id: bfs_from_support(graph, [from_id]) for from_id in sources}
    results = [dmaps[from_id].distance(to_id) for from_id, to_id in cfg.pairs]
    if cfg.json_out:
        _json_dump(
            [
                {"from": f, "to": t, "distance": "inf" if d == INF else int(d)}
                for (f, t), d in zip(cfg.pairs, results)
            ]
        )
    else:
        for d in results:
            print(_show(d))
    return 0


def cmd_path(cfg: argparse.Namespace) -> int:
    cs, fmt = _load(cfg)
    if cfg.to_id is None:
        raise ValueError("path needs --to CLAUSE_ID")
    support = _single_support(cs, cfg, fmt)
    dmap = bfs_from_support(build_graph(cs, _graph_mode(cfg)), support, target=cfg.to_id)
    path = dmap.witness(cfg.to_id)
    check_alternating_path(cs, path)
    if cfg.json_out:
        _json_dump(
            {
                "clauses": list(path.clause_ids),
                "length": path.length,
                "links": [[str(e), str(n)] for e, n in path.links],
            }
        )
    else:
        print(path)
        print(f"length {path.length}")
        print("valid")
    return 0


def cmd_radius(cfg: argparse.Namespace) -> int:
    cs, fmt = _load(cfg)
    cs.require_ground(_RADIUS)  # before the support spec is read, as in solve
    support = _single_support(cs, cfg, fmt)
    radius = support_radius(cs, support)
    if cfg.json_out:
        _json_dump({"radius": _show(radius)})
    else:
        print(f"support radius: {_show(radius)}")
    return 0


def _occurrence_bound(cs: ClauseSet) -> int:
    """The most clauses that one predicate occurs in with one sign, counted
    over the set's numbering.  An atom of a propositional set is its
    predicate, so there the signed atom numbers are the keys."""
    rows = cs.rows
    if not cs.is_propositional():
        pred: dict[str, int] = {}
        key = [0] * (2 * cs.atom_count + 1)  # by signed atom number
        for a, atom in enumerate(cs.atoms(), 1):
            p = pred.setdefault(atom.pred, len(pred) + 1)
            key[a], key[-a] = p, -p
        rows = [set(map(key.__getitem__, row)) for row in rows]
    return max(Counter(chain.from_iterable(rows)).values(), default=0)


def _sized(log10: float, exact) -> int | str:
    """The integer ``exact()`` whose base-10 logarithm is ``log10``, when its
    decimal form fits the interpreter's int-to-str digit limit; otherwise
    "M.MMMe+E" from the logarithm alone, so the huge integer is never built.
    With the limit switched off the CPython default of 4300 digits applies."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if log10 <= limit:
        value = exact()
        if value < 10 ** limit:
            return value
    exponent = math.floor(log10)
    mantissa = round(10 ** (log10 - exponent), 3)
    if mantissa >= 10:
        mantissa, exponent = mantissa / 10, exponent + 1
    return f"{mantissa:.3f}e+{exponent}"


def _growth_budget(n_support: int, b: int, k: int, n: int) -> int | str:
    """Worst-case size of the level-n neighborhood when every predicate
    occurs with a given sign in at most b clauses and clauses have at most
    k literals (see ``_sized`` for budgets too long to print)."""
    if n <= 1:
        return n_support
    factors = ((2 * n_support * k, 1), (b, n - 1), (k - 1, n - 2))
    if any(base == 0 and power for base, power in factors):
        return 0
    log10 = sum(power * math.log10(base) for base, power in factors if power)
    return _sized(log10, lambda: 2 * n_support * b ** (n - 1) * k * (k - 1) ** (n - 2))


def cmd_stats(cfg: argparse.Namespace) -> int:
    cs, fmt = _load(cfg)
    mode = _graph_mode(cfg)
    if mode == PROPOSITIONAL_HUB:  # refused on input with variables, graph or not
        cs.require_ground(f"{mode} mode")
    b = _occurrence_bound(cs)
    k = max(map(len, cs.rows), default=0)
    payload = {"clauses": len(cs), "b": b, "k": k, "atoms": cs.atom_count}
    if cfg.supports or cfg.bound is not None:
        if cfg.bound is None:
            raise ValueError("--bound is needed to print the size budget")
        support = _single_support(cs, cfg, fmt)
        dmap = bfs_from_support(build_graph(cs, mode), support, bound=cfg.bound)
        payload["support"] = len(support)
        payload["relevant"] = len(dmap.relevant_ids(cfg.bound))
        payload["budget"] = _growth_budget(len(support), b, k, cfg.bound)
    if cfg.json_out:
        _json_dump(payload)
    else:
        print(f"clauses: {payload['clauses']}")
        print(f"atoms: {payload['atoms']}")
        print(f"b={payload['b']} k={payload['k']}")
        if "budget" in payload:
            print(f"support clauses: {payload['support']}")
            print(f"relevant at {cfg.bound}: {payload['relevant']}")
            print(f"size budget at {cfg.bound}: {payload['budget']}")
    return 0


# ---------------------------------------------------------------------------
# split


def cmd_split(cfg: argparse.Namespace) -> int:
    cs, _ = _load(cfg)
    if cs.is_ground():
        raise ValueError("the input is variable-free; there is nothing to split")
    if cfg.var is not None and cfg.clause_id is None:
        raise ValueError("--var needs --clause")
    clause_id, var = cfg.clause_id, cfg.var
    if clause_id is None:
        for c in cs.clauses:
            picked = choose_split_variable(cs, c.id)
            if picked is not None:
                clause_id, var = c.id, picked.name
                break
        if clause_id is None:
            raise ValueError(
                "no clause/variable pair breaks any unification; "
                "pick one with --clause and --var"
            )
    builder = binary_split_plan if cfg.binary else full_split_plan
    plan = builder(cs, clause_id, var=var, extra_constant=cfg.extra_constant)
    after = split_clause(cs, plan)
    kids = descendants(cs, after)
    flat = expand_restricted(after, kids)  # parsed input carries no restriction
    header = (
        f"% split c{plan.clause_id} on {plan.var} into {len(kids)} clauses"
        f" ({'binary' if cfg.binary else 'full'})\n"
    )
    _emit(cfg, lambda: header + print_tptp(flat))
    if cfg.json_out:
        _json_dump(
            {
                "clause": plan.clause_id,
                "var": plan.var,
                "groups": [sorted(g) for g in plan.groups],
                "replacements": kids,
                "output_clauses": len(flat),
            }
        )
    return 0


# ---------------------------------------------------------------------------
# gen


def cmd_gen(cfg: argparse.Namespace) -> int:
    rng = random.Random(cfg.seed)
    if cfg.family == "3sat":
        cs = random_3sat(rng, cfg.gen_vars, cfg.gen_clauses)
        fmt = "dimacs"
    elif cfg.family == "horn-tree":
        cs = horn_tree(cfg.depth, cfg.branching)
        cs.roles[1] = "negated_conjecture"
        fmt = "tptp"
    elif cfg.family == "bounded":
        cs = bounded_occurrence(
            rng, cfg.b, cfg.k, cfg.preds, cfg.gen_clauses,
            first_order=cfg.first_order,
        )
        fmt = "tptp" if cfg.first_order else "dimacs"
    else:
        raise ValueError(f"unknown family {cfg.family!r}")
    _emit(cfg, lambda: print_format(cs, fmt))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type of a count or call budget: an int, refused below 1."""
    return _at_least(text, 1)


def _non_negative(text: str) -> int:
    """argparse type of a count that may be 0: an int, refused below 0."""
    return _at_least(text, 0)


def _constant(text: str) -> str:
    """argparse type of a constant name: a TPTP lower word, which reads back
    as a constant."""
    if re.fullmatch(r"[a-z][A-Za-z0-9_]*", text):
        return text
    raise argparse.ArgumentTypeError(
        f"must be a TPTP lower word ([a-z][A-Za-z0-9_]*), got {text!r}")


# the prover wait goes to poll(2), which takes a C int of milliseconds
_MAX_SECONDS = 2**31 // 1000


def _seconds(text: str) -> float:
    """argparse type of a timeout: finite seconds above 0, no longer than
    the prover wait can take."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value <= _MAX_SECONDS:  # refuses nan and inf too
        raise argparse.ArgumentTypeError(
            f"must be seconds above 0 and at most {_MAX_SECONDS}, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser, support: bool = True,
                hub: bool = True) -> None:
    """The input options, plus --support and --hub for the commands that
    read them."""
    p.add_argument("input", help="input file (DIMACS or TPTP CNF, detected; "
                                 "TPTP includes resolve against $TPTP)")
    if support:
        p.add_argument("--support", dest="supports", action="append", default=[],
                       metavar="SPEC",
                       help="support spec: role:<r>, pos, neg, ids:<list>, file:<path>")
    if hub:
        p.add_argument("--hub", action="store_true",
                       help="count edges with shared hub nodes (variable-free input "
                            "only); distances and witnesses do not change")
    p.add_argument("--json", dest="json_out", action="store_true",
                   help="machine-readable summary on stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``main`` dispatches on the command
    name, so each call finds the ``cmd_*`` function under that name."""
    parser = argparse.ArgumentParser(
        prog="altpath",
        description="Relevance filtering, solving and diagnostics over clause sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="write the clauses within distance n of every support set")
    _add_common(p)
    p.add_argument("-n", "--bound", type=_positive, help="distance bound")
    p.add_argument("--purity", action="store_true", help="drop partnerless clauses first")
    p.add_argument("-o", "--output", help="write clauses here instead of stdout")
    p.add_argument("--csv", help="write a clause_id,distance table here")

    p = sub.add_parser("solve", help="relevance-restricted DPLL on ground input")
    _add_common(p, hub=False)
    p.add_argument("--trusted", action="store_true",
                   help="accept stepping-free leftovers as satisfied (relevance "
                        "solving only)")
    p.add_argument("--no-relevance", dest="no_relevance", action="store_true",
                   help="plain DPLL without a support set; refuses --trusted and "
                        "--count-calls")
    p.add_argument("--max-calls", dest="max_calls", type=_positive,
                   help="cap on search nodes, fallback nodes included; past it "
                        "the verdict is unknown (exit 0)")
    p.add_argument("--count-calls", dest="count_calls", action="store_true",
                   help="print the call count against the 2^k budget, k counting "
                        "the atoms of every support-reachable clause (a valid, "
                        "if loose, bound; relevance solving only)")

    p = sub.add_parser("deepen", help="grow neighborhood levels until one refutes")
    _add_common(p, hub=False)
    p.add_argument("--slice", dest="slice_calls", type=_positive,
                   help=f"variable-free input: the built-in solver's call budget in "
                        f"the first round, doubling per round (default {_SLICE})")
    p.add_argument("--max-rounds", dest="max_rounds", type=_positive,
                   help=f"variable-free input: rounds of the built-in solver "
                        f"(default {_MAX_ROUNDS})")
    p.add_argument("--prover", help="first-order input: external prover command, "
                                    "{file} is the TPTP path; it decides each level once")
    p.add_argument("--prover-timeout", dest="prover_timeout", type=_seconds,
                   help=f"first-order input: seconds per prover run "
                        f"(default {_PROVER_TIMEOUT:g})")

    p = sub.add_parser("distance", help="relevance distance between clause pairs")
    _add_common(p, support=False, hub=False)
    p.add_argument("--pair", dest="pairs", nargs=2, type=int, action="append",
                   default=[], metavar=("FROM", "TO"))

    p = sub.add_parser("path", help="shortest connection witness to a clause")
    _add_common(p)
    p.add_argument("--to", dest="to_id", type=int, help="target clause id")

    p = sub.add_parser("radius", help="smallest refuting neighborhood level")
    _add_common(p, hub=False)

    p = sub.add_parser("stats", help="occurrence bound b, width k and size budgets")
    _add_common(p)
    p.add_argument("-n", "--bound", type=_positive, help="level for the size budget")

    p = sub.add_parser("split", help="replace a clause by symbol-wise instances")
    _add_common(p, support=False, hub=False)
    p.add_argument("--clause", dest="clause_id", type=int, help="clause to split")
    p.add_argument("--var", help="variable to split on")
    p.add_argument("--binary", action="store_true",
                   help="two balanced symbol groups instead of one per symbol")
    p.add_argument("--extra-constant", dest="extra_constant", type=_constant,
                   help="allow this fresh constant (a TPTP lower word) when the "
                        "set has none")
    p.add_argument("-o", "--output", help="write the result here instead of stdout")

    p = sub.add_parser("gen", help="seeded benchmark families")
    p.add_argument("family", choices=("3sat", "horn-tree", "bounded"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vars", dest="gen_vars", type=_positive, default=20)
    p.add_argument("--clauses", dest="gen_clauses", type=_non_negative, default=80)
    p.add_argument("--depth", type=_non_negative, default=3)
    p.add_argument("--branching", type=_positive, default=2)
    p.add_argument("--b", type=_positive, default=3)
    p.add_argument("--k", type=_positive, default=3)
    p.add_argument("--preds", type=_positive, default=12)
    p.add_argument("--first-order", dest="first_order", action="store_true")
    p.add_argument("-o", "--output", help="write the instance here instead of stdout")
    p.set_defaults(json_out=False)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{ns.command}"](ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply (maximum recursion depth exceeded)",
              file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (input or search too large for this process)",
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
