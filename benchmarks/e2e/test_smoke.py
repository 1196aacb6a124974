"""Smoke test of the end-to-end benchmark on its 2^12-cell miniature.

Not part of tier-1 (``testpaths = tests``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

All four workloads go through the same code as the paper-scale run — real
``repro serve`` subprocesses, real sockets — in well under 30 s.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import server  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, MINI, PAPER, WORKLOADS, _intervals, grid_profile, wave_sizes,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def cli(out: Path, *args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    """Run the benchmark command; returns (process, result lines)."""
    proc = subprocess.run(
        [sys.executable, str(script), "--scale", "mini", "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = [
        json.loads(line) for line in proc.stdout.splitlines()
        if line.startswith('{"correct"')
    ]
    return proc, lines


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    proc, lines = cli(out, "--seed", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out, proc, lines


# -- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    # The generators are the source of the names and the reasons.
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- generators -----------------------------------------------------------


def test_generators_are_deterministic_and_seeded():
    for workload in WORKLOADS:
        for scale in (MINI, PAPER):
            a, b = workload.batch(scale, 0, 0), workload.batch(scale, 0, 0)
            other = workload.batch(scale, 1, 0)
            rects = lambda batch: [q.rect.bounds for q in batch]  # noqa: E731
            assert rects(a) == rects(b)
            assert rects(a) != rects(other), f"{workload.name}: seed 1 repeats seed 0"
            assert a.size == other.size
    assert math.prod(MINI.shape) == 2**12
    assert BY_NAME["haar_exact"].batch(MINI, 0, 0).size == 16
    assert BY_NAME["haar_exact"].batch(PAPER, 0, 0).size == 512
    # local_warm alternates between two partitions.
    warm = BY_NAME["local_warm"]
    assert [q.rect for q in warm.batch(MINI, 0, 0)] == [q.rect for q in warm.batch(MINI, 0, 2)]
    assert [q.rect for q in warm.batch(MINI, 0, 0)] != [q.rect for q in warm.batch(MINI, 0, 1)]


def test_paper_batches_are_pinned_and_mirrors_keep_the_cost():
    for workload in WORKLOADS:
        nominal = PAPER.nominal[(workload.kind, workload.wavelet)]

        def profile(seed):
            batch = workload.batch(PAPER, seed, 0)
            batch.validate_for(PAPER.shape)
            return grid_profile(
                _intervals(batch, 5), workload.wavelet, PAPER.shape, PAPER.measure
            )

        base = profile(0)
        assert base.close_to(nominal), (workload.name, base)
        for seed in (5, 10, 15):
            mirrored = profile(seed)
            if workload.wavelet == "haar":
                assert mirrored == base
            elif workload.kind == "partition":
                assert (mirrored.keys, mirrored.entries) == (base.keys, base.entries)
            else:
                assert abs(mirrored.keys - base.keys) <= 0.15 * base.keys


def test_wave_sizes_bounds_live_sessions():
    assert wave_sizes(16, 8) == [8, 8]
    assert wave_sizes(17, 8) == [8, 8, 1]
    assert wave_sizes(3, 8) == [3]
    assert wave_sizes(0, 8) == []
    with pytest.raises(ValueError):
        wave_sizes(4, 0)


def test_fast_oracle_equals_exact_dense():
    oracle = run.DenseOracle(MINI, 0)
    for workload in WORKLOADS:
        batch = workload.batch(MINI, 0, 0)
        np.testing.assert_allclose(
            oracle(batch), batch.exact_dense(oracle.delta), rtol=1e-12, atol=1e-9
        )


# -- the command ----------------------------------------------------------


def test_untraced_pass_prints_every_end_to_end_metric(untraced):
    _, proc, lines = untraced
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert len(lines) == len(WORKLOADS)
    assert proc.stdout.rstrip().splitlines()[-1].startswith('{"correct"')
    for line in lines:
        assert set(line) == RESULT_KEYS
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert set(line["metrics"]) == set(declared)
        for name, cell in line["metrics"].items():
            assert set(cell) == {"value", "unit"}
            assert cell["unit"] == declared[name]
            assert math.isfinite(cell["value"]) and cell["value"] > 0, name
    for workload in WORKLOADS:
        assert f"== {workload.name} " in proc.stdout
    assert "failed_ops_share 0 " in proc.stdout


def test_counts_repeat_exactly_for_a_seed(untraced, tmp_path):
    _, _, first = untraced
    proc, again = cli(tmp_path, "--seed", "0", "--workload", "drill_dash")
    assert proc.returncode == 0, proc.stderr[-2000:]
    before = first[[w.name for w in WORKLOADS].index("drill_dash")]
    assert again[0]["attempted"] == before["attempted"]
    for name in run.EXACT_PER_SEED:
        assert again[0]["metrics"][name] == before["metrics"][name], name


def test_traced_pass_closes_the_layer_budget(tmp_path):
    # As the subreaper, this process is handed whatever outlives the command
    # (a resource tracker does, unless the command waits for it), zombies too.
    server.adopt_orphans()
    proc, lines = cli(tmp_path, "--trace", "1", "--workload", "drill_dash")
    assert server._descendants() == []
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    (line,) = lines
    assert line["correct"] is True
    assert {n: c["unit"] for n, c in line["metrics"].items()} == declared
    value = {name: cell["value"] for name, cell in line["metrics"].items()}
    shares = [v for name, v in value.items() if name.startswith("budget.share.")]
    assert sum(shares) + value["budget.unattributed_share"] == pytest.approx(1.0, abs=1e-9)
    assert value["budget.unattributed_s"] == pytest.approx(
        value["budget.wall_s"] * value["budget.unattributed_share"], rel=1e-9
    )
    assert value["core.penalties.set_penalty_ms"] > 0
    assert 0 < value["storage.paged.hit_ratio"] < 1
    assert "-- layer budget:" in proc.stdout
    events = json.loads((tmp_path / "trace_drill_dash.json").read_text())["traceEvents"]
    assert {"session", "submit", "poll", "advance", "set_penalty", "cancel"} <= {
        e["name"] for e in events
    }
    lanes = {e["tid"] for e in events if e["name"] == "session"}
    assert len(lanes) == MINI.wave  # one id per session


def test_no_server_or_shard_process_survives(untraced):
    out, _, _ = untraced
    results = json.loads((out / "results.json").read_text())
    pids = [pid for result in results for pid in result["pids"]]
    assert len(pids) >= len(WORKLOADS)
    for pid in pids:
        cmdline = Path(f"/proc/{pid}/cmdline")
        if cmdline.exists():  # the pid may have been reused by now
            text = cmdline.read_bytes().replace(b"\0", b" ")
            assert b"repro" not in text and b"multiprocessing" not in text, text
    assert not any((HERE / ".work").glob("run-*/*.pages"))


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result line, exit code != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "out", ".pytest_cache"),
    )
    proc, lines = cli(
        tmp_path / "out", "--workload", "haar_exact",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert proc.returncode != 0
    assert lines == [] and proc.stdout == ""
