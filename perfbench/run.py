"""Benchmark of the altpath CLI and resolution checker.

Usage (from the repository root):

    python3 perfbench/run.py --workload ground-filter --seed 1 --seconds 24 --trace 0

One process, one client, closed loop: the next request starts when the
previous one has returned.  CLI requests go through ``altpath.cli.main`` in
this process with stdout captured, so interpreter start and import are paid
once and counted in ``setup_s``.  The loop runs whole passes over the
workload's request list, as many as fit in ``--seconds``, so failure and
undecided shares repeat exactly at a seed.  Every answer is checked against
a reference from ``ref.py``.  Times are reported at a reference machine
speed, measured through the run by ``speed.py``.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run measures half its passes untraced and the same number
traced, and the last line carries the per-layer metrics.  The human report
above it, a results file and (traced) a span file under ``perfbench/out``
carry the rest: environment, per-kind latencies, work counters, tables.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
MIN_SAMPLES = 100  # leaves ten samples beyond p90
WORST = sys.float_info.max  # printed for an infinite latency percentile


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            text = fh.read().strip()
        if text.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", text[5:])) as fh:
                return fh.read().strip()
        return text
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "altpath")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def _import_seconds(speed) -> tuple[float, float]:
    """Median import time of the program in fresh interpreters, at the
    reference speed and raw."""
    code = ("import time; t = time.perf_counter(); import altpath.cli, altpath.resolution; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=120, check=False)
        if proc.returncode != 0:
            _fail(f"cannot import the program: {proc.stderr.strip().splitlines()[-1:]}")
        speed.sample()
        raw.append(float(proc.stdout.strip()))
        times.append(raw[-1] * speed.scale(t0, perf_counter()))
    return statistics.median(times), statistics.median(raw)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _ms(v: float) -> float:
    return WORST if v == math.inf else v * 1000.0


# ---------------------------------------------------------------------------
# Requests


def execute(req, cli, Outcome):
    if req.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(req.argv)
        except SystemExit as exc:
            code = exc.code
        except RecursionError:
            return Outcome(error="RecursionError")
        except Exception as exc:  # a crash is a failed request; the loop goes on
            return Outcome(error=f"{type(exc).__name__}: {exc}"[:300])
        return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue())
    try:
        return Outcome(value=req.call())
    except RecursionError:
        return Outcome(error="RecursionError")
    except Exception as exc:  # as above
        return Outcome(error=f"{type(exc).__name__}: {exc}"[:300])


class Loop:
    """Runs passes over the request list and keeps every sample."""

    def __init__(self, reqs, cli, workloads, speed):
        self.reqs, self.cli, self.wl, self.speed = reqs, cli, workloads, speed
        self.starts: list[float] = []
        self.raw: list[float] = []   # request wall times, seconds
        self.status: list[str] = []
        self.first: list[dict] | None = None   # counters of the first pass
        self.first_status: list[str] = []
        self.mismatches = 0
        self.why: dict[str, str] = {}

    def failed(self, status: str) -> bool:
        return status in (self.wl.WRONG, self.wl.ERROR)

    def latency(self) -> list[float]:
        """Request times at the reference speed; +inf for a failed request."""
        return [math.inf if self.failed(s) else self.speed.scaled(t0, dt)
                for t0, dt, s in zip(self.starts, self.raw, self.status)]

    def busy(self) -> float:
        """Loop time at the reference speed: the sum of request times, so
        answer checks and speed samples are left out."""
        return sum(self.speed.scaled(t0, dt) for t0, dt in zip(self.starts, self.raw))

    def run_pass(self, tracer=None) -> float:
        wl = self.wl
        start = perf_counter()
        counters = []
        statuses = []
        for idx, req in enumerate(self.reqs):
            if tracer is not None:
                tracer.begin(idx)
            t0 = perf_counter()
            out = execute(req, self.cli, wl.Outcome)
            dt = perf_counter() - t0
            traced = tracer.end() if tracer is not None else {}
            try:
                status, found = req.check(out)
            except Exception as exc:  # an answer the check cannot read is wrong
                status, found = wl.WRONG, {"why": f"unreadable answer: {type(exc).__name__}: {exc}"}
            if status in (wl.WRONG, wl.ERROR):
                self.why.setdefault(f"{req.kind} #{idx}", str(found.get("why") or found.get("error")))
                found = {k: v for k, v in found.items() if k != "why"}
            self.starts.append(t0)
            self.raw.append(dt)
            self.status.append(status)
            counters.append({**found, **traced})
            statuses.append(status)
            self.speed.tick()
        if self.first is None:
            self.first, self.first_status = counters, statuses
        else:
            self.mismatches += sum(a != b for a, b in zip(counters, self.first))
            self.mismatches += sum(a != b for a, b in zip(statuses, self.first_status))
        return perf_counter() - start


def passes_for(seconds: float, first_pass: float, n_reqs: int, share: float = 1.0) -> int:
    want = max(1, round(seconds * share / max(first_pass, 1e-9)))
    return max(want, math.ceil(MIN_SAMPLES / n_reqs))


# ---------------------------------------------------------------------------
# Experiment tables folded in from the old scripts


def edge_savings_sweep(seed: int) -> tuple[float, list[str]]:
    """Direct (first-order) against shared (hub) edge counts on fan fixtures
    and random ground sets."""
    from altpath.generators import fan_fixture, random_ground
    from altpath.graph import FIRST_ORDER, PROPOSITIONAL_HUB, build_graph

    def pair(cs):
        return build_graph(cs, FIRST_ORDER).edge_count, build_graph(cs, PROPOSITIONAL_HUB).edge_count

    rows = [f"{'m':>5} {'p':>5} {'direct':>8} {'shared':>8} {'ratio':>7}"]
    total_direct = total_shared = 0
    for m in (2, 5, 10, 25, 50, 100):
        direct, shared = pair(fan_fixture(m, m))
        total_direct, total_shared = total_direct + direct, total_shared + shared
        rows.append(f"{m:>5} {m:>5} {direct:>8} {shared:>8} {direct / shared:>6.1f}x")
    rng = random.Random(seed)
    sets_direct = sets_shared = 0
    for _ in range(200):
        cs = random_ground(rng, n_atoms=rng.randint(2, 8), n_clauses=rng.randint(4, 40))
        direct, shared = pair(cs)
        sets_direct, sets_shared = sets_direct + direct, sets_shared + shared
    rows.append(f"200 random ground sets: direct {sets_direct}, shared {sets_shared}, "
                f"{sets_direct / sets_shared:.2f}x")
    total_direct, total_shared = total_direct + sets_direct, total_shared + sets_shared
    return total_direct / total_shared, rows


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(loop: Loop, wl, setup_s: float) -> dict:
    lat = sorted(loop.latency())
    n = len(lat)
    failed = sum(map(loop.failed, loop.status))
    undecided = sum(s == wl.UNDECIDED for s in loop.status)
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": ((n - failed) / loop.busy(), "1/s"),
        "latency_p50_ms": (_ms(_percentile(lat, 0.5)), "ms"),
        "latency_p90_ms": (_ms(_percentile(lat, 0.9)), "ms"),
        "answered_share": ((n - failed) / n, "share"),
        "decided_share": ((n - undecided) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


SPAN_METRICS = {
    "parsing.parse_s": ("parsing.parse_auto", "parsing.parse_dimacs", "parsing.parse_tptp"),
    "parsing.print_s": ("parsing.print_format", "parsing.print_tptp", "parsing.print_dimacs"),
    "graph.build_s": ("graph.build_graph",),
    "graph.bfs_s": ("graph.bfs_from_support",),
    "graph.purity_s": ("graph.purity_filter",),
    "resolution.sos_s": ("resolution.sos_refute",),
    "resolution.verify_s": ("resolution.verify_support_path_property",),
    "resolution.hyper_s": ("resolution.hyper_resolution_levels",),
    "splitting.choose_s": ("splitting.choose_split_variable",),
    "splitting.split_s": ("splitting.full_split_plan", "splitting.binary_split_plan",
                          "splitting.split_clause", "splitting.expand_restricted",
                          "splitting.descendants"),
}
COUNT_METRICS = ("clauses.unify_checks", "graph.edges", "graph.nodes", "graph.nodes_reached",
                 "dpll.calls", "dpll.splits", "dpll.unit_props", "dpll.fallback_calls",
                 "resolution.derived", "resolution.levels", "resolution.limit_hits",
                 "splitting.output_clauses")


def per_layer(tracer, reqs, traced_passes: int, untraced_busy: float, traced_busy: float,
              edge_savings: float, first_counters, scale: float) -> dict:
    """Span times are scaled to the reference speed by ``scale``, the
    traced loop's speed factor."""
    spans = tracer.spans
    selfs = [t * scale for t in tracer.self_times()]
    n_req = len(reqs) * traced_passes
    out: dict[str, tuple[float, str]] = {}

    def inclusive(names, minus=()) -> float:
        total = 0.0
        for s in spans:
            if s[0] not in names:
                continue
            p = s[4]
            while p is not None and spans[p][0] not in names:
                p = spans[p][4]
            if p is None:
                total += s[3] - s[2]
        for i, s in enumerate(spans):
            if s[0] in minus and any(spans[a][0] in names for a in _ancestors(spans, i)):
                total -= s[3] - s[2]
        return total * scale

    for metric, names in SPAN_METRICS.items():
        minus = SPAN_METRICS["splitting.choose_s"] if metric == "splitting.split_s" else ()
        out[metric] = (inclusive(names, minus) / n_req, "s")
    for layer in ("cli", "parsing", "graph", "dpll", "resolution", "splitting"):
        out[f"{layer}.self_s"] = (sum(t for s, t in zip(spans, selfs) if s[1] == layer) / n_req, "s")

    engine = sum(t for s, t in zip(spans, selfs) if s[0] in ("dpll.dpll", "dpll.dpll_rel"))
    setup = scale * sum(s[3] - s[2] for s in spans
                        if s[4] is not None and spans[s[4]][0] == "dpll.dpll_rel")
    out["dpll.engine_s"] = (engine / n_req, "s")
    out["dpll.relevance_setup_s"] = (setup / n_req, "s")

    totals: dict[str, float] = {k: 0 for k in COUNT_METRICS}
    extra = {"parsing.clauses": 0, "resolution.useful": 0}
    for c in first_counters:
        for k in list(totals) + list(extra):
            if k in c:
                (totals if k in totals else extra)[k] += c[k]
    for k, v in totals.items():
        out[k] = (v, "count")
    parse_s = inclusive(SPAN_METRICS["parsing.parse_s"]) / traced_passes
    out["parsing.clauses_per_s"] = (extra["parsing.clauses"] / parse_s if parse_s else 0.0, "1/s")
    calls = totals["dpll.calls"] + totals["dpll.fallback_calls"]
    out["dpll.calls_per_s"] = (calls / (engine / traced_passes) if engine else 0.0, "1/s")
    sos_s = inclusive(SPAN_METRICS["resolution.sos_s"]) / traced_passes
    out["resolution.derived_per_s"] = (totals["resolution.derived"] / sos_s if sos_s else 0.0, "1/s")
    refuted_derived = sum(c.get("resolution.derived", 0) for c in first_counters
                          if "resolution.useful" in c)
    out["resolution.useful_share"] = (extra["resolution.useful"] / refuted_derived
                                      if refuted_derived else 0.0, "share")

    kinds = [r.kind for r in reqs]
    level_kinds = ("radius", "deepen", "deepen --max-rounds")
    solves = [x for x in tracer.level_solves if kinds[x[0]] in level_kinds]
    out["dpll.level_solves"] = (len(solves) / traced_passes, "count")
    fills = [c["budget_fill"] for c in first_counters if "budget_fill" in c]
    out["dpll.budget_fill_max"] = (max(fills, default=0.0), "share")
    out["dpll.recursion_errors"] = (sum(1 for c in first_counters if c.get("error") == "RecursionError"),
                                    "count")
    relevant = sum(c.get("relevant", 0) for c in first_counters)
    inputs = sum(c.get("input", 0) for c in first_counters if "relevant" in c)
    out["graph.neighborhood_share"] = (relevant / inputs if inputs else 0.0, "share")
    out["graph.edge_savings"] = (edge_savings, "ratio")
    out["trace.overhead_share"] = (traced_busy / untraced_busy - 1.0, "share")
    return out


def _ancestors(spans, i):
    p = spans[i][4]
    while p is not None:
        yield p
        p = spans[p][4]


# ---------------------------------------------------------------------------
# Main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "altpath", "cli.py")):
        _fail(f"no program to measure: {os.path.join('src', 'altpath')} is missing")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import workloads as wl
    from speed import Speed

    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0], "commit": _commit(), "source": _source_digest(),
    }
    workdir = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    return measure(args, wl, env, workdir, Speed())


def measure(args, wl, env: dict, workdir: str, speed) -> int:
    # set-up: import, input generation and file writing, several times
    for _ in range(SETUP_REPEATS):
        speed.sample()
    import_s, import_raw_s = _import_seconds(speed)
    import altpath.cli as cli

    generate, plan = wl.WORKLOADS[args.workload]
    gen_spans: list[tuple[float, float]] = []

    def set_up():
        speed.tick()
        t0 = perf_counter()
        made = generate(random.Random(args.seed), workdir)
        gen_spans.append((t0, perf_counter() - t0))
        speed.sample()
        return made

    inputs = set_up()

    t0 = perf_counter()
    reqs = plan(random.Random(args.seed + 1), inputs, workdir)
    # a seeded order spreads each group of like requests over the pass, so
    # no percentile hangs on the machine's speed during one short stretch
    random.Random(args.seed + 2).shuffle(reqs)
    oracle_note = wl.cross_check(inputs, ROOT)
    reference_s = perf_counter() - t0

    # the benchmark's own inputs and references are not the program's heap:
    # keep the collector from scanning them during timed requests
    gc.collect()
    gc.freeze()
    # untraced, set-up is repeated after the first passes (it rewrites the
    # same files), so its median spans more of the run than its first moment
    loop = Loop(reqs, cli, wl, speed)
    first = loop.run_pass()
    set_up()
    cycle = first + gen_spans[-1][1]
    result = {"env": env}
    if args.trace:
        from spans import Tracer

        n = passes_for(args.seconds, cycle, len(reqs), share=0.5) - 1
        for _ in range(n):
            loop.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced_loop = Loop(reqs, cli, wl, speed)
            for _ in range(n + 1):
                traced_loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        speed.sample()
        edge_savings, sweep_rows = edge_savings_sweep(args.seed)
        traced_scale = speed.scale(traced_loop.starts[0], traced_loop.starts[-1] + traced_loop.raw[-1])
        metrics = per_layer(tracer, reqs, n + 1, loop.busy(), traced_loop.busy(), edge_savings,
                            traced_loop.first, traced_scale)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        span_file = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_file)
        result["tables"] = {"edge_savings": sweep_rows,
                            "level_solves": _level_table(tracer, reqs),
                            "budget_fill": _budget_table(reqs, traced_loop.first)}
        counted = traced_loop
    else:
        for _ in range(passes_for(args.seconds, cycle, len(reqs)) - 1):
            loop.run_pass()
            if len(gen_spans) < SETUP_REPEATS:
                set_up()
        while len(gen_spans) < SETUP_REPEATS:
            set_up()
        gen_s = statistics.median(speed.scaled(t0, dt) for t0, dt in gen_spans)
        metrics = end_to_end(loop, wl, import_s + gen_s)
        counted = loop

    env["speed"] = speed.summary()
    attempted = len(counted.status)
    failed = sum(s in (wl.WRONG, wl.ERROR) for s in counted.status)
    wrong = sum(s == wl.WRONG for s in counted.status)
    undecided = sum(s == wl.UNDECIDED for s in counted.status)
    digest = hashlib.sha256(json.dumps([counted.first, counted.first_status], sort_keys=True,
                                       default=str).encode()).hexdigest()[:16]
    result.update({
        "setup": {"import_s": import_s, "import_raw_s": import_raw_s,
                  "generate_raw_s": [dt for _, dt in gen_spans], "reference_s": reference_s,
                  "oracle_cross_check": oracle_note},
        "raw": _raw_metrics(counted),
        "requests": {"per_pass": len(reqs), "passes": attempted // len(reqs), "attempted": attempted,
                     "failed": failed, "wrong": wrong, "undecided": undecided,
                     "failed_share": failed / attempted, "undecided_share": undecided / attempted,
                     "counters_digest": digest, "counters_repeat_mismatches": counted.mismatches,
                     "failures": counted.why},
        "kinds": _kind_table(counted, reqs, wl),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counters": counted.first,
        "samples": [[i % len(reqs), t] for i, t in enumerate(counted.latency())],
        "raw_samples": [[t0 - speed.at[0], dt] for t0, dt in zip(counted.starts, counted.raw)],
        "kernel_samples": [[at - speed.at[0], took] for at, took in zip(speed.at, speed.took)],
        "slowest": [f"{t * 1000:10.3f} ms raw  #{i} {' '.join(reqs[i].argv or [reqs[i].kind])}"
                    for t, i in sorted(((t, i) for i, t in enumerate(counted.raw[:len(reqs)])),
                                       reverse=True)[:12]],
    })
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    _report(result)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def _raw_metrics(loop: Loop) -> dict:
    """Request times as measured, before scaling to the reference speed."""
    lat = sorted(math.inf if loop.failed(s) else dt for dt, s in zip(loop.raw, loop.status))
    answered = sum(not loop.failed(s) for s in loop.status)
    return {"requests_per_s": answered / sum(loop.raw),
            "latency_p50_ms": _ms(_percentile(lat, 0.5)), "latency_p90_ms": _ms(_percentile(lat, 0.9))}


def _kind_table(loop: Loop, reqs, wl) -> dict:
    by_kind: dict[str, list] = {}
    for i, (lat, status) in enumerate(zip(loop.latency(), loop.status)):
        by_kind.setdefault(reqs[i % len(reqs)].kind, []).append((lat, status))
    table = {}
    for kind, rows in sorted(by_kind.items()):
        lat = sorted(r[0] for r in rows)
        table[kind] = {"n": len(rows), "p50_ms": _ms(_percentile(lat, 0.5)),
                       "failed": sum(r[1] in (wl.WRONG, wl.ERROR) for r in rows),
                       "undecided": sum(r[1] == wl.UNDECIDED for r in rows)}
    return table


def _level_table(tracer, reqs) -> list[str]:
    rows = [f"{'request':>8} {'kind':<20} {'clauses':>8}  verdict"]
    seen = set()
    for req_idx, clauses, verdict in tracer.level_solves:
        kind = reqs[req_idx].kind
        if kind.startswith(("radius", "deepen")) and (req_idx, clauses) not in seen:
            seen.add((req_idx, clauses))
            rows.append(f"{req_idx:>8} {kind:<20} {clauses:>8}  {verdict}")
    return rows


def _budget_table(reqs, counters) -> list[str]:
    rows = [f"{'request':>8} {'calls':>6} {'fill':>8}"]
    for i, c in enumerate(counters):
        if "budget_fill" in c:
            rows.append(f"{i:>8} {c['calls']:>6} {c['budget_fill']:>8.4f}")
    return rows


def _report(result: dict) -> None:
    env, req = result["env"], result["requests"]
    print(f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"python {env['python']}  nproc {env['nproc']}  load {env['loadavg_start']:.2f}  "
          f"commit {env['commit'][:12]}  source {env['source']}")
    sp = env["speed"]
    print(f"speed: {sp['samples']} kernel samples, {sp['kernel_ms_min']:.3f} / "
          f"{sp['kernel_ms_median']:.3f} / {sp['kernel_ms_max']:.3f} ms min / median / max, "
          f"reference {sp['kernel_ms_reference']:.3f} ms")
    raw = result["raw"]
    print("raw: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    s = result["setup"]
    print(f"setup raw: import {s['import_raw_s']:.3f}s  "
          f"generate {[round(t, 3) for t in s['generate_raw_s']]}  "
          f"reference {s['reference_s']:.2f}s  oracle cross-check: {s['oracle_cross_check']}")
    print(f"requests: {req['per_pass']} per pass x {req['passes']} passes = {req['attempted']}  "
          f"failed {req['failed']} (wrong {req['wrong']})  undecided {req['undecided']}  "
          f"failed_share {req['failed_share']:.4f}  undecided_share {req['undecided_share']:.4f}")
    print(f"work counters digest {req['counters_digest']}  "
          f"mismatches between passes {req['counters_repeat_mismatches']}")
    for what, why in sorted(req["failures"].items()):
        print(f"  failure {what}: {why}")
    for kind, row in result["kinds"].items():
        print(f"  {kind:<24} n {row['n']:>5}  p50 {row['p50_ms']:>10.3f} ms  "
              f"failed {row['failed']}  undecided {row['undecided']}")
    print("slowest requests of the first pass:")
    for row in result["slowest"]:
        print(f"  {row}")
    for name, table in result.get("tables", {}).items():
        print(f"table {name}:")
        for row in table:
            print(f"  {row}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
