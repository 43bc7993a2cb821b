"""Summarise parent/change benchmark pairs as one committed BENCH_<pr>.json.

Reads the result files ``perfbench/run.py`` writes
(``<workload>-seed<n>-trace<t>.json``) from two directories, one per side,
pairs the runs of each workload by seed, and writes for every end-to-end
metric of ``BENCHMARK.json`` each side's median and quartiles, the pairs
the change wins, and whether its median stays within the metric's bound.
Traced runs (``--trace 1``) present on both sides add their per-layer
metrics side by side.  Runs repeated at one seed go one level down, in one
subdirectory per repeat with the same name on both sides, and pair by seed
and subdirectory.

    python3 tools/bench_json.py --pr N \\
        --parent PARENT/perfbench/out/results --change CHANGE/perfbench/out/results \\
        --claim fo-filter:requests_per_s

Each side's ``commit`` is the HEAD of the checkout it ran in; a change that
was not yet committed shows its base commit there, and ``source`` (a digest
of ``src/altpath``) tells the two sides apart.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_NAME = re.compile(r"(?P<workload>[\w-]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_runs(directory: str) -> dict[tuple[str, int, int, str], dict]:
    """(workload, seed, trace, repeat) -> result file contents; the repeat
    is the subdirectory a file sits in, or "" for the directory itself."""
    runs = {}
    for pattern in ("*.json", os.path.join("*", "*.json")):
        for path in glob.glob(os.path.join(directory, pattern)):
            m = RESULT_NAME.search(os.path.basename(path))
            if m is None:
                continue
            repeat = os.path.dirname(os.path.relpath(path, directory))
            with open(path, encoding="utf-8") as fh:
                runs[m["workload"], int(m["seed"]), int(m["trace"]), repeat] = json.load(fh)
    return runs


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric over paired runs; ties count for neither side."""
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    base = p["median"]
    if base:
        worse_by = ((base - c["median"]) if higher else (c["median"] - base)) / abs(base)
    else:
        worse_by = 0.0 if c["median"] == base else None
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "parent_runs": parent,
        "change_runs": change,
        "change_wins": wins,
        "pairs": len(parent),
        "worse_by": worse_by,
        "within_bound": worse_by is not None and worse_by <= metric["bound"],
    }


def claim_verdict(row: dict) -> dict:
    """Gain rule: the change wins at least nine tenths of the pairs and the
    medians differ by more than the parent's interquartile range."""
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    diff = row["change"]["median"] - row["parent"]["median"]
    if row["better"] == "lower":
        diff = -diff
    met = row["change_wins"] >= 0.9 * row["pairs"] and diff > iqr
    return {"median_gain": diff, "parent_iqr": iqr, "met": met}


def side_env(runs: list[dict]) -> dict:
    def values(key):
        return sorted({str(r["env"][key]) for r in runs})

    return {"commit": values("commit"), "source": values("source"),
            "python": values("python"), "nproc": values("nproc")}


def summarise(parent: dict, change: dict, bench: dict, claims: list[str]) -> dict:
    out: dict = {"workloads": {}, "traced": {}}
    all_parent, all_change = [], []
    for workload in sorted({k[0] for k in parent}):
        pairs = sorted((s, r) for (w, s, t, r) in parent if w == workload and t == 0
                       and (w, s, 0, r) in change)
        if not pairs:
            continue
        p_runs = [parent[workload, s, 0, r] for s, r in pairs]
        c_runs = [change[workload, s, 0, r] for s, r in pairs]
        all_parent += p_runs
        all_change += c_runs
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            rows[name] = compare(metric,
                                 [r["metrics"][name]["value"] for r in p_runs],
                                 [r["metrics"][name]["value"] for r in c_runs])
        same_work = sum(p["requests"]["counters_digest"] == c["requests"]["counters_digest"]
                        for p, c in zip(p_runs, c_runs))
        out["workloads"][workload] = {
            "seeds": [s for s, _ in pairs],
            "run_seconds": sorted({r["env"]["seconds"] for r in p_runs + c_runs}),
            "failed": {"parent": sum(r["requests"]["failed"] for r in p_runs),
                       "change": sum(r["requests"]["failed"] for r in c_runs)},
            "wrong": {"parent": sum(r["requests"]["wrong"] for r in p_runs),
                      "change": sum(r["requests"]["wrong"] for r in c_runs)},
            "counters_digest_equal_pairs": same_work,
            "metrics": rows,
        }
    for workload, seed, trace, repeat in sorted(parent):
        if trace != 1 or (workload, seed, 1, repeat) not in change:
            continue
        p_run, c_run = parent[workload, seed, 1, repeat], change[workload, seed, 1, repeat]
        out["traced"][f"{workload}-seed{seed}" + (f"-{repeat}" if repeat else "")] = {
            "counters_digest": {"parent": p_run["requests"]["counters_digest"],
                                "change": c_run["requests"]["counters_digest"]},
            "metrics": {name: {"parent": p_run["metrics"][name]["value"],
                               "change": c_run["metrics"][name]["value"]}
                        for name in sorted(p_run["metrics"]) if name in c_run["metrics"]},
        }
    out["claims"] = {}
    for claim in claims:
        workload, _, metric = claim.partition(":")
        row = out["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if row is None:
            raise SystemExit(f"no paired runs for claim {claim!r}")
        out["claims"][claim] = claim_verdict(row)
    out["env"] = {"parent": side_env(all_parent), "change": side_env(all_change)}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="number used in the output name BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="result directory of the parent runs")
    ap.add_argument("--change", required=True, help="result directory of the change runs")
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC whose gain the change claims (repeatable)")
    ap.add_argument("--out", help="output path (default: BENCH_<pr>.json at the repo root)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not parent or not change:
        print("error: no result files on one side", file=sys.stderr)
        return 2
    summary = {"pr": args.pr, "command": bench["command"]}
    summary.update(summarise(parent, change, bench, args.claim))
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in summary["workloads"].items():
        for name, row in entry["metrics"].items():
            print(f"{workload:14s} {name:15s} {row['parent']['median']:10.4g} -> "
                  f"{row['change']['median']:10.4g}  wins {row['change_wins']}/{row['pairs']}"
                  f"  {'ok' if row['within_bound'] else 'WORSE THAN BOUND'}")
    for claim, verdict in summary["claims"].items():
        print(f"claim {claim}: {'met' if verdict['met'] else 'NOT met'} "
              f"(gain {verdict['median_gain']:.4g}, parent IQR {verdict['parent_iqr']:.4g})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
