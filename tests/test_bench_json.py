"""The BENCH_<pr>.json exporter over synthetic benchmark result files."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_json.py")
_spec = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

BENCH = {
    "command": ["python3", "perfbench/run.py"],
    "end_to_end": [
        {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}


def _write(directory, workload, seed, rps, rss, digest="d", trace=0, commit="abc", extra=None):
    metrics = {"requests_per_s": {"value": rps}, "peak_rss_mb": {"value": rss}}
    metrics.update(extra or {})
    result = {
        "env": {"commit": commit, "source": commit + "-src", "python": "3.11.7", "nproc": 2,
                "seconds": 24.0},
        "metrics": metrics,
        "requests": {"counters_digest": digest, "failed": 0, "wrong": 0},
    }
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result))


@pytest.fixture
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate(range(11, 21)):
        _write(parent, "fo-filter", seed, 10.0 + 0.1 * i, 50.0, commit="p")
        # the change wins nine pairs, loses the last
        _write(change, "fo-filter", seed, 20.0 if i < 9 else 9.0, 56.0, commit="c")
    _write(parent, "only-parent", 1, 1.0, 1.0)
    _write(parent, "fo-filter", 3, 1.0, 1.0, trace=1, extra={"parsing.parse_s": {"value": 0.05}})
    _write(change, "fo-filter", 3, 1.0, 1.0, trace=1, extra={"parsing.parse_s": {"value": 0.02}})
    return str(parent), str(change)


def test_pairs_medians_wins_and_bounds(sides):
    out = bench_json.summarise(*map(bench_json.load_runs, sides), BENCH,
                               ["fo-filter:requests_per_s"])
    assert list(out["workloads"]) == ["fo-filter"]
    entry = out["workloads"]["fo-filter"]
    assert entry["seeds"] == list(range(11, 21))
    assert entry["counters_digest_equal_pairs"] == 10
    rps = entry["metrics"]["requests_per_s"]
    assert rps["change_wins"] == 9 and rps["pairs"] == 10
    assert rps["parent"]["median"] == pytest.approx(10.45)
    assert rps["change"]["median"] == 20.0
    assert rps["within_bound"]
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["worse_by"] == pytest.approx(0.12) and not rss["within_bound"]
    verdict = out["claims"]["fo-filter:requests_per_s"]
    assert verdict["met"] and verdict["median_gain"] == pytest.approx(9.55)
    assert out["traced"]["fo-filter-seed3"]["metrics"]["parsing.parse_s"] == {
        "parent": 0.05, "change": 0.02}
    assert out["env"]["parent"]["commit"] == ["p"] and out["env"]["change"]["commit"] == ["c"]


def test_claim_not_met_below_nine_tenths(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate(range(10)):
        _write(parent, "w", seed, 10.0, 1.0)
        _write(change, "w", seed, 20.0 if i < 8 else 5.0, 1.0)
    out = bench_json.summarise(bench_json.load_runs(str(parent)),
                               bench_json.load_runs(str(change)), BENCH, ["w:requests_per_s"])
    assert not out["claims"]["w:requests_per_s"]["met"]


def test_repeats_at_one_seed_pair_by_subdirectory(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i in range(10):
        _write(parent / f"r{i}", "w", 1, 10.0 + i, 1.0)
        _write(change / f"r{i}", "w", 1, 11.0 + i, 1.0)
    _write(parent / "r0", "w", 1, 1.0, 1.0, trace=1)
    _write(change / "r0", "w", 1, 1.0, 1.0, trace=1)
    _write(change / "r10", "w", 1, 99.0, 1.0)  # no parent run to pair with
    out = bench_json.summarise(bench_json.load_runs(str(parent)),
                               bench_json.load_runs(str(change)), BENCH, ["w:requests_per_s"])
    entry = out["workloads"]["w"]
    assert entry["seeds"] == [1] * 10
    assert entry["metrics"]["requests_per_s"]["change_wins"] == 10
    assert entry["metrics"]["requests_per_s"]["change"]["median"] == 15.5
    assert list(out["traced"]) == ["w-seed1-r0"]
