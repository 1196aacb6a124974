"""Command-line interface: generate data, explain plans, run batches, serve.

Usage (after ``pip install -e .``):

    python -m repro generate --dataset temperature --records 100000 out.csv
    python -m repro explain  --dataset temperature --cells 4,4,2,2
    python -m repro run      --dataset temperature --cells 4,4,2,2 \
        --penalty cursored --budget 512 --trace-out trace.json
    python -m repro serve --dataset uniform --shape 64,64 \
        --shards 2 --port 8080

The CLI mirrors the benchmark harness at whatever scale you ask for; it is
the quickest way to eyeball the paper's Observations 1-3 on your own
parameters.  ``serve`` is the one serving command: the sharded service
behind the HTTP edge (``--inline-shards`` where subprocesses are
not allowed), whose ``/metrics`` exposes the metric registry and whose
``/sessions/<id>/costs`` and ``/costs.json`` serve the cost ledger.
``--trace-out`` captures a ``chrome://tracing`` span trace of the whole
pipeline.
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.batch import BatchBiggestB
from repro.core.explain import explain
from repro.core.metrics import mean_relative_error
from repro.core.penalties import (
    CursoredSsePenalty,
    LaplacianPenalty,
    LpPenalty,
    Penalty,
    SsePenalty,
)
from repro.data.csvio import write_relation_csv
from repro.data.relation import Relation
from repro.data.synthetic import (
    employee_dataset,
    temperature_dataset,
    uniform_dataset,
    zipf_dataset,
)
from repro.queries.workload import partition_count_batch, partition_sum_batch
from repro.storage.wavelet_store import WaveletStorage

_DEFAULT_SHAPES = {
    "temperature": (16, 32, 8, 16, 16),
    "employee": (128, 128),
    "uniform": (64, 64),
    "zipf": (64, 64),
}


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_relation(args: argparse.Namespace) -> Relation:
    shape = args.shape or _DEFAULT_SHAPES[args.dataset]
    if args.dataset == "temperature":
        return temperature_dataset(shape=shape, n_records=args.records, seed=args.seed)
    if args.dataset == "employee":
        return employee_dataset(shape=shape, n_records=args.records, seed=args.seed)
    if args.dataset == "uniform":
        return uniform_dataset(shape, args.records, seed=args.seed)
    if args.dataset == "zipf":
        return zipf_dataset(shape, args.records, seed=args.seed)
    raise ValueError(f"unknown dataset {args.dataset!r}")


def _build_batch(relation: Relation, args: argparse.Namespace):
    rng = np.random.default_rng(args.seed + 1)
    if args.dataset == "temperature":
        return partition_sum_batch(
            relation.shape,
            args.cells,
            measure_attribute=relation.ndim - 1,
            rng=rng,
            min_width=args.min_width,
        )
    return partition_count_batch(
        relation.shape, args.cells, rng=rng, min_width=args.min_width
    )


def _build_penalty(name: str, batch_size: int) -> Penalty:
    if name == "sse":
        return SsePenalty()
    if name == "cursored":
        window = max(1, batch_size // 25)
        return CursoredSsePenalty(
            batch_size, high_priority=range(window), high_weight=10.0
        )
    if name == "laplacian":
        return LaplacianPenalty.chain(batch_size)
    if name == "l1":
        return LpPenalty(1.0)
    if name == "linf":
        return LpPenalty(float("inf"))
    raise ValueError(f"unknown penalty {name!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=sorted(_DEFAULT_SHAPES),
        default="temperature",
        help="synthetic dataset family",
    )
    parser.add_argument("--shape", type=_parse_ints, default=None,
                        help="domain shape, comma separated powers of two")
    parser.add_argument("--records", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)


def _add_batch_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cells", type=_parse_ints, default=(4, 4, 2, 2),
                        help="partition cells per grouping dimension")
    parser.add_argument("--min-width", type=int, default=1, dest="min_width")
    parser.add_argument("--wavelet", default="db2")


def _chaos_spec(args: argparse.Namespace, key_space: int) -> dict | None:
    """The ``--fault-rate`` / ``--blackout`` flags as a chaos spec for
    :func:`repro.storage.faults.chaos_stack` (None when both are off), so
    the degradation is reproducible from the flags and ``--fault-seed``."""
    if not (args.fault_rate > 0 or args.blackout > 0):
        return None
    blackout_keys = np.random.default_rng(args.fault_seed).choice(
        key_space, size=min(args.blackout, key_space), replace=False
    )
    return {
        "seed": args.fault_seed,
        "transient_rate": args.fault_rate,
        "blackout_keys": [int(k) for k in blackout_keys],
        "max_attempts": args.max_attempts,
    }


def cmd_generate(args: argparse.Namespace) -> int:
    relation = _build_relation(args)
    write_relation_csv(relation, args.output)
    print(f"wrote {relation.num_records} records "
          f"({', '.join(relation.schema.names)}) to {args.output}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    relation = _build_relation(args)
    storage = WaveletStorage.build(relation.frequency_distribution(), wavelet=args.wavelet)
    batch = _build_batch(relation, args)
    penalty = _build_penalty(args.penalty, batch.size)
    report = explain(storage, batch, penalty=penalty, bound_targets=(1.0,))
    for line in report.lines():
        print(line)
    return 0


def _start_trace(args: argparse.Namespace) -> bool:
    """Enable span recording when the subcommand got ``--trace-out``."""
    if getattr(args, "trace_out", None) is None:
        return False
    obs.set_tracing(True)
    return True


def _finish_trace(args: argparse.Namespace) -> None:
    obs.set_tracing(False)
    spans = obs.get_recorder().export(args.trace_out)
    print(f"wrote {spans} spans to {args.trace_out} (chrome://tracing format)")


def cmd_run(args: argparse.Namespace) -> int:
    tracing = _start_trace(args)
    relation = _build_relation(args)
    delta = relation.frequency_distribution()
    storage = WaveletStorage.build(delta, wavelet=args.wavelet)
    batch = _build_batch(relation, args)
    penalty = _build_penalty(args.penalty, batch.size)
    evaluator = BatchBiggestB(storage, batch, penalty=penalty)
    exact = batch.exact_dense(delta)
    master = evaluator.master_list_size
    budgets = sorted({min(args.budget, master), master})
    _, snaps = evaluator.run_progressive(budgets)
    if tracing:
        _finish_trace(args)
    print(f"batch: {batch.size} queries | master list: {master:,} | "
          f"unshared: {evaluator.unshared_retrievals:,} "
          f"({evaluator.unshared_retrievals / master:.1f}x sharing)")
    for b, snap in zip(budgets, snaps):
        mre = mean_relative_error(snap, exact)
        print(f"after {b:>8,} retrievals: mean relative error {mre:.3e}, "
              f"Thm-1 bound {evaluator.worst_case_bound(int(b)):.3e}")
    stage_totals = evaluator.costs.stage_totals()
    if stage_totals:
        cost_line = " | ".join(
            f"{name} {cell['wall_s'] * 1e3:.1f}ms"
            for name, cell in stage_totals.items()
        )
        print(
            f"cost: {cost_line} | {evaluator.costs.retrievals:,} retrievals "
            f"({evaluator.costs.bytes_fetched:,} B)"
        )
    ok = np.allclose(snaps[-1], exact, rtol=1e-7, atol=1e-6)
    print(f"exact at exhaustion: {ok}")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Stand up the sharded cluster behind the HTTP edge.

    Builds the dataset, serializes its wavelet coefficients to one paged
    file, spawns ``--shards`` worker processes that map it with
    ``shared=True`` (one OS page cache for the whole cluster), and serves
    the JSON session API until interrupted.  ``--fault-rate`` /
    ``--blackout`` wire the chaos harness into the shard stores
    (optionally only ``--chaos-shard``), demonstrating
    degraded-but-bounded answers over HTTP.  ``--trace-out`` records
    spans in the edge *and every shard process*; on shutdown a final
    telemetry pull merges the shard rings into one Chrome trace with
    ``repro-shard-<i>`` process lanes.  ``--supervise`` attaches the
    shard supervisor — a killed worker is respawned with bounded backoff
    (``--restart-backoff`` base delay, ``--max-restarts`` flap cap), the
    keys its outage skipped are re-fetched, and answers heal back to
    bit-exact.  SIGTERM drains gracefully: new sessions get 503 +
    Retry-After while in-flight requests finish, then the final
    telemetry pull and trace export run and the process exits 0.  See
    ``docs/CLUSTER.md``.
    """
    from repro.cluster import ClusterHttpServer, RestartPolicy, build_cluster

    relation = _build_relation(args)
    storage = WaveletStorage.build(
        relation.frequency_distribution(), wavelet=args.wavelet
    )
    chaos = _chaos_spec(args, storage.store.key_space_size)
    if chaos:
        print(
            f"chaos: transient fault rate {args.fault_rate:.0%}, "
            f"{len(chaos['blackout_keys'])} blacked-out keys, seed {args.fault_seed}"
            + (
                f", shard {args.chaos_shard} only"
                if args.chaos_shard is not None
                else ""
            ),
            flush=True,
        )
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
    path = (
        Path(args.paged_file)
        if args.paged_file
        else Path(tmpdir.name) / "coefficients.pages"
    )
    server = None
    router = None
    access_log_file = None
    tracing = _start_trace(args)
    stop = threading.Event()
    try:
        router = build_cluster(
            storage,
            path,
            args.shards,
            partitioner=args.partitioner,
            page_size=args.page_size,
            buffer_pages=args.buffer_pages,
            process_shards=not args.inline_shards,
            chaos=chaos,
            chaos_shard=args.chaos_shard,
            trace=tracing,
            supervise=args.supervise,
            restart_policy=RestartPolicy(
                max_restarts=args.max_restarts,
                base_delay=args.restart_backoff,
            )
            if args.supervise
            else None,
        )
        access_log = None
        if args.access_log:
            access_log_file = open(args.access_log, "a", encoding="utf-8")

            def access_log(line: str) -> None:
                access_log_file.write(line + "\n")
                access_log_file.flush()

        # Assigned before it starts: if the bind fails, the ``finally``
        # still closes the edge, and with it the router and its shards.
        server = ClusterHttpServer(
            router,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            telemetry_interval=args.telemetry_interval,
            access_log=access_log,
        )
        server.start_in_thread()

        def _on_sigterm(signum, frame):  # noqa: ARG001 - signal signature
            stop.set()

        try:
            signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            pass  # not the main thread (embedded use); SIGTERM stays default
        mode = "inline" if args.inline_shards else "process"
        print(
            f"cluster edge listening on http://{args.host}:{server.port} | "
            f"{args.shards} {mode} shard(s) | partitioner {args.partitioner} | "
            f"{'x'.join(map(str, relation.shape))} domain"
            + (" | supervised" if args.supervise else ""),
            flush=True,
        )
        print(
            "endpoints: POST /sessions | GET|DELETE /sessions/<id> | "
            "POST /sessions/<id>/{advance,penalty,retry} | "
            "GET /metrics /metrics.json /costs.json /status /healthz",
            flush=True,
        )
        stop.wait()
        print("SIGTERM received: draining edge", flush=True)
        drained = server.drain()
        print(
            "drain complete" if drained else "drain timed out; closing anyway",
            flush=True,
        )
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        if router is not None:
            # Last pull before teardown so the final counters land in the
            # edge registry and (when tracing) the exported trace
            # interleaves every shard's remaining spans with the edge's.
            try:
                router.pull_telemetry()
            except Exception:  # noqa: BLE001 - shutdown must not fail
                pass
        if server is not None:
            server.close()
        if tracing:
            _finish_trace(args)
        if access_log_file is not None:
            access_log_file.close()
        tmpdir.cleanup()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Progressive batch range-sum queries with wavelets "
        "(Schmidt & Shahabi, PODS 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic relation to CSV")
    _add_common(p_gen)
    p_gen.add_argument("output", help="output CSV path")
    p_gen.set_defaults(func=cmd_generate)

    p_explain = sub.add_parser("explain", help="forecast a batch plan's cost")
    _add_common(p_explain)
    _add_batch_args(p_explain)
    p_explain.add_argument("--penalty", default="sse",
                           choices=["sse", "cursored", "laplacian", "l1", "linf"])
    p_explain.set_defaults(func=cmd_explain)

    p_run = sub.add_parser("run", help="run a partition batch progressively")
    _add_common(p_run)
    _add_batch_args(p_run)
    p_run.add_argument("--penalty", default="sse",
                       choices=["sse", "cursored", "laplacian", "l1", "linf"])
    p_run.add_argument("--budget", type=int, default=512,
                       help="progressive checkpoint (retrievals)")
    p_run.add_argument("--trace-out", default=None, dest="trace_out",
                       help="write a chrome://tracing span trace to this path")
    p_run.set_defaults(func=cmd_run)

    p_cluster = sub.add_parser(
        "serve",
        help="serve the sharded cluster over the HTTP edge",
    )
    _add_common(p_cluster)
    p_cluster.add_argument("--wavelet", default="db2")
    p_cluster.add_argument("--shards", type=_positive_int, default=2,
                           help="shard worker count")
    p_cluster.add_argument("--partitioner", choices=["hash", "range"],
                           default="hash",
                           help="key -> shard placement (see docs/CLUSTER.md)")
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument("--port", type=int, default=0,
                           help="edge port; 0 picks an ephemeral one "
                           "(printed at startup)")
    p_cluster.add_argument("--max-inflight", type=_positive_int, default=32,
                           dest="max_inflight",
                           help="admission limit before 429 + Retry-After")
    p_cluster.add_argument("--inline-shards", action="store_true",
                           dest="inline_shards",
                           help="run shard workers in-process instead of "
                           "spawning (subprocess-restricted environments)")
    p_cluster.add_argument("--paged-file", default=None, dest="paged_file",
                           help="write the paged coefficient file here "
                           "instead of a temp dir")
    p_cluster.add_argument("--page-size", type=_positive_int, default=1024,
                           dest="page_size", help="coefficients per disk page")
    p_cluster.add_argument("--buffer-pages", type=int, default=64,
                           dest="buffer_pages",
                           help="LRU buffer pool capacity per worker")
    p_cluster.add_argument("--fault-rate", type=float, default=0.0,
                           dest="fault_rate",
                           help="inject transient fetch faults in the shard "
                           "stores at this rate (0..1)")
    p_cluster.add_argument("--blackout", type=int, default=0,
                           help="permanently black out this many random keys; "
                           "affected sessions degrade with a valid Thm-1 bound")
    p_cluster.add_argument("--fault-seed", type=int, default=0,
                           dest="fault_seed")
    p_cluster.add_argument("--max-attempts", type=_positive_int, default=8,
                           dest="max_attempts",
                           help="retry budget per fetch under --fault-rate")
    p_cluster.add_argument("--chaos-shard", type=int, default=None,
                           dest="chaos_shard",
                           help="apply the fault spec to this shard only")
    p_cluster.add_argument("--trace-out", default=None, dest="trace_out",
                           help="record spans in the edge and every shard "
                           "process; write the merged chrome://tracing file "
                           "here on shutdown")
    p_cluster.add_argument("--telemetry-interval", type=float, default=5.0,
                           dest="telemetry_interval",
                           help="seconds between background shard telemetry "
                           "pulls (0 disables; scrapes still pull on demand)")
    p_cluster.add_argument("--supervise", action="store_true",
                           help="respawn dead shard workers, re-fetch the "
                           "skipped keys, and heal answers to bit-exact")
    p_cluster.add_argument("--restart-backoff", type=float, default=0.05,
                           dest="restart_backoff",
                           help="base delay (s) of the supervisor's bounded "
                           "exponential restart backoff")
    p_cluster.add_argument("--max-restarts", type=_positive_int, default=5,
                           dest="max_restarts",
                           help="flap cap: give up on a shard after this many "
                           "restarts inside the rolling window (it is then "
                           "permanently shed)")
    p_cluster.add_argument("--access-log", default=None, dest="access_log",
                           help="append one line per HTTP request to this "
                           "file (method, path, status, duration, request id)")
    p_cluster.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
