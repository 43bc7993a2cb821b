"""Check that a run's work counters and failure and undecided counts repeat
exactly at the same seed.

Usage (from the repository root):

    python3 perfbench/check_repeat.py --workload ground-solve --seed 1 [--seconds 5] [--trace 1]

Runs the benchmark twice and compares, request by request, the work
counters of the first pass (answer counters, and with ``--trace 1`` the
traced counters too), the request statuses and the failed and undecided
counts.  Exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(args) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=os.path.dirname(HERE))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "out", "results", name)) as fh:
        result = json.load(fh)
    req = result["requests"]
    return {"counters": result["counters"], "failed": req["failed"] / req["attempted"],
            "undecided": req["undecided"] / req["attempted"], "digest": req["counters_digest"],
            "within_run_mismatches": req["counters_repeat_mismatches"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = ap.parse_args()
    a, b = run_once(args), run_once(args)
    differ = [i for i, (x, y) in enumerate(zip(a["counters"], b["counters"])) if x != y]
    same = (not differ and len(a["counters"]) == len(b["counters"])
            and (a["failed"], a["undecided"]) == (b["failed"], b["undecided"])
            and a["within_run_mismatches"] == b["within_run_mismatches"] == 0)
    print(f"digests {a['digest']} {b['digest']}  failed_share {a['failed']:.4f} {b['failed']:.4f}  "
          f"undecided_share {a['undecided']:.4f} {b['undecided']:.4f}  "
          f"requests with differing counters: {differ[:10]}")
    print("counters repeat exactly" if same else "counters differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
