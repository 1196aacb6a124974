"""End-to-end benchmark: a real ``repro serve``, a real socket, a dense oracle.

    python benchmarks/e2e/run.py                         # every workload, untraced
    python benchmarks/e2e/run.py --workload haar_exact --seed 3 --seconds 40
    python benchmarks/e2e/run.py --traced                # untraced, then per-layer pass
    python benchmarks/e2e/run.py --aa 3                  # A/A: spreads vs BENCHMARK.json

Each workload gets a fresh server subprocess and is driven by one
``ClusterClient`` in a closed loop (see ``drive.py``).  ``--trace 0``
(default) measures the end-to-end metrics with the harness's tracing off;
``--trace 1`` is the separate traced pass that yields the per-layer
metrics and the layer budget (see ``layers.py``).  The last line of
stdout for every workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any operation failed.  ``README.md`` has the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"benchmarks/e2e: no repro package under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

from repro.data.synthetic import temperature_dataset  # noqa: E402

import layers  # noqa: E402
from drive import Ops, UnitResult, run_unit, unit_lanes  # noqa: E402
from server import ServeProcess, ServerError, adopt_orphans, reap_descendants  # noqa: E402
from workloads import BY_NAME, MINI, PAPER, WORKLOADS, Scale, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Server spawns per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Metrics that are counts of one seed's deterministic work: an A/A pair
#: must agree on them exactly, whatever bound the cross-seed spread needs.
EXACT_PER_SEED = ("retrievals_to_1pct", "resp_bytes_per_coeff")

Metrics = dict[str, tuple[float, str]]


class DenseOracle:
    """Exact ``SUM(measure)`` answers from the locally regenerated relation.

    Equal to ``QueryBatch.exact_dense`` (the smoke test holds it to that)
    without materialising a dense query vector per query.
    """

    def __init__(self, scale: Scale, seed: int) -> None:
        relation = temperature_dataset(shape=scale.shape, n_records=scale.records, seed=seed)
        self.delta = relation.frequency_distribution()
        values = np.arange(scale.shape[scale.measure], dtype=np.float64)
        self._weighted = self.delta * values  # the measure is the last axis

    def __call__(self, batch) -> np.ndarray:
        return np.array([float(self._weighted[q.rect.slices()].sum()) for q in batch])


def serve_args(workload: Workload, scale: Scale, seed: int) -> list[str]:
    return [
        "--dataset", "temperature",
        "--shape", ",".join(map(str, scale.shape)),
        "--records", str(scale.records),
        "--seed", str(seed),
        "--page-size", str(scale.page_size),
        *workload.server_flags(scale),
    ]


def warm_up(client, batch) -> None:
    """One untimed session through every call the loop makes, so the
    server's lazy imports, first-call paths and first big allocations are
    behind it before anything is measured.  Not run to exact."""
    sid = client.submit(batch)
    client.poll(sid)
    for _ in range(4):
        client.advance(sid, 32)
    client.set_penalty(sid, {"kind": "sse"})
    client.cancel(sid)


def end_to_end(
    units: list[UnitResult], setups: list[float], delta: layers.Delta,
    cpu_s: float, rss_mib: float,
) -> tuple[Metrics, str]:
    sessions = [s for unit in units for s in unit.sessions if s.done]
    advances = np.array([seconds for s in sessions for seconds in s.advance_s])
    gained = sum(s.gained for s in sessions)
    wall = sum(unit.wall_s for unit in units)

    metrics: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "session_s": (statistics.median(s.session_s for s in sessions), "s"),
        "coeffs_per_s": (gained / float(advances.sum()), "1/s"),
        "advance_p50_ms": (float(np.percentile(advances, 50)) * 1e3, "ms"),
        "advance_p90_ms": (float(np.percentile(advances, 90)) * 1e3, "ms"),
        "retrievals_to_1pct": (float(sum(s.retrievals_to_1pct for s in sessions)), "count"),
        "resp_bytes_per_coeff": (layers.response_bytes(delta) / gained, "B"),
        "server_cpu_s": (cpu_s, "s"),
        "rss_peak_mb": (rss_mib, "MiB"),
    }
    samples = (
        f"{len(sessions)} sessions, {advances.size} advances, "
        f"{gained} retrievals, {len(setups)} set-ups, wall {wall:.2f} s"
    )
    return metrics, samples


def run_workload(
    workload: Workload, scale: Scale, seed: int, seconds: float, traced: bool,
    workdir: Path, out_dir: Path,
) -> dict:
    """One fresh server, one workload, one pass; returns the result record."""
    ops = Ops(traced)
    phases: dict[str, float] = {}
    origin = mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        phases[name], mark = time.perf_counter() - mark, time.perf_counter()

    oracle = DenseOracle(scale, seed)
    server = ServeProcess(serve_args(workload, scale, seed), workdir, SRC)
    phase("oracle")
    with server:
        try:
            # Spawn -> first /healthz 200, several times: one cold start
            # says little.  A traced pass reports no set-up and starts once.
            setups = []
            for _ in range(1 if traced else SETUP_REPEATS):
                server.stop(grace=0)  # the previous one only booted
                setups.append(server.start())
            phase("set-up")
            with server.client() as client:
                warm_up(client, workload.warmup(scale, seed))
                phase("warm-up")
                if traced:
                    time.sleep(layers.SCRAPE_SETTLE_S)
                before = layers.Scrape(client)
                cpu0 = server.cpu_seconds()
                units = [
                    run_unit(client, ops, workload, scale, seed, oracle, lanes)
                    for lanes in unit_lanes(workload, scale, workload.units(seconds))
                ]
                cpu_s = server.cpu_seconds() - cpu0
                rss_mib = server.rss_peak_mib()
                if traced:
                    time.sleep(layers.SCRAPE_SETTLE_S)
                delta = layers.Delta(before, layers.Scrape(client))
                phase("load")
        except BaseException:
            print(f"--- last lines of {server.stderr_path} ---", file=sys.stderr)
            print(server.stderr_tail(), file=sys.stderr)
            raise
    phase("teardown")
    if not any(s.done for unit in units for s in unit.sessions):
        raise ServerError("no session finished:\n  " + "\n  ".join(ops.failures))
    if traced:
        first = workload.batch(scale, seed, 0)
        probes = layers.run_probes(workload, scale, oracle.delta, first, oracle(first), workdir)
        metrics = layers.layer_metrics(units, delta, ops, probes)
        samples = f"{len(ops.spans)} spans"
        layers.write_chrome_trace(
            out_dir / f"trace_{workload.name}.json", workload.name, ops.spans, origin
        )
    else:
        metrics, samples = end_to_end(units, setups, delta, cpu_s, rss_mib)
    phase("probes")
    return {
        "workload": workload.name, "seed": seed, "traced": traced, "samples": samples,
        "phases": {name: round(seconds, 3) for name, seconds in phases.items()},
        "pids": server.pids,
        "attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures,
        "metrics": metrics,
    }


# -- reporting ------------------------------------------------------------


def print_result(result: dict) -> None:
    kind = "per-layer (traced)" if result["traced"] else "end-to-end"
    print(f"\n== {result['workload']} | seed {result['seed']} | {kind} | {result['samples']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    if result["traced"]:
        print_budget(result["metrics"])
    print("  run phases: " + ", ".join(f"{n} {s:.1f} s" for n, s in result["phases"].items()))
    share = result["failed"] / result["attempted"]
    print(f"  failed_ops_share {share:.6g} ({result['failed']} failed / {result['attempted']} attempted)")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def print_budget(metrics: Metrics) -> None:
    wall = metrics["budget.wall_s"][0]
    print(f"  -- layer budget: {wall:.3f} s of client wall --")
    for row in (*layers.BUDGET_ROWS, "budget.unattributed_s"):
        seconds = metrics[row][0]
        print(f"  {row:<46} {seconds:>10.3f} s {seconds / wall:>8.1%}")


def result_line(result: dict) -> str:
    """The machine-readable last line."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    })


def check_names(result: dict) -> None:
    declared = SPEC["per_layer" if result["traced"] else "end_to_end"]
    want, got = [m["name"] for m in declared], list(result["metrics"])
    if sorted(want) != sorted(got):
        raise SystemExit(
            f"metric names drifted from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"undeclared {sorted(set(got) - set(want))}"
        )


def report_aa(sets: list[list[dict]]) -> bool:
    """Per-metric min/median/max and relative spread over the A/A sets;
    True when every end-to-end metric stays within its declared bound."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    agreed = True
    for runs in zip(*sets):
        print(f"\n== A/A {runs[0]['workload']} over {len(runs)} sets")
        print(f"  {'metric':<24} {'min':>12} {'median':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [run["metrics"][name][0] for run in runs]
            mid = statistics.median(values)
            spread = (max(values) - min(values)) / mid
            limit = 0.0 if name in EXACT_PER_SEED else bound
            verdict = "" if spread <= limit else "  DISAGREES"
            agreed &= spread <= limit
            print(
                f"  {name:<24} {min(values):>12.6g} {mid:>12.6g} {max(values):>12.6g} "
                f"{spread:>8.2%} {limit:>6.0%}{verdict}"
            )
    return agreed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *BY_NAME], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset seed and root of every batch RNG")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="offered load: each workload runs seconds // unit_s units")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = the traced per-layer pass instead of the end-to-end one")
    parser.add_argument("--traced", action="store_true",
                        help="run the end-to-end pass, then the traced pass")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="run N end-to-end sets back to back and compare them")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results.json and trace_<workload>.json")
    parser.add_argument("--scale", choices=["paper", "mini"], default="paper",
                        help="mini = the smoke test's 2^12-cell substrate")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like Ctrl-C, so the server's context manager reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    adopt_orphans()
    scale = MINI if args.scale == "mini" else PAPER
    chosen = list(WORKLOADS) if args.workload == "all" else [BY_NAME[args.workload]]
    passes = [False, True] if args.traced else [bool(args.trace)]
    workdir = HERE / ".work" / f"run-{os.getpid()}"

    def one_set(traced: bool) -> list[dict]:
        results = []
        for workload in chosen:
            result = run_workload(
                workload, scale, args.seed, args.seconds, traced, workdir, args.out
            )
            check_names(result)
            print_result(result)
            results.append(result)
        return results

    try:
        if args.aa:
            sets = [one_set(False) for _ in range(args.aa)]
            agreed = report_aa(sets)
            results = [r for runs in sets for r in runs]
        else:
            agreed = True
            results = [r for traced in passes for r in one_set(traced)]
    finally:
        # Whatever is still there: the resource tracker of a probe's shard
        # would only exit after this process has.
        reap_descendants()
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(results, indent=1))
    print()
    for result in results:
        print(result_line(result), flush=True)
    return 0 if agreed and not any(r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
