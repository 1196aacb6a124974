"""CLI telemetry smoke tests: Chrome-trace export and Prometheus output.

These are the checks the CI telemetry step depends on: ``repro run
--trace-out`` must produce a file that parses as Chrome trace JSON, and
``repro metrics`` must exit 0 and emit Prometheus text that round-trips
through the dependency-free parser in ``tests/promparse.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main

from tests.promparse import parse_prometheus


@pytest.fixture(autouse=True)
def _restore_tracing():
    yield
    obs.set_tracing(False)
    obs.get_recorder().clear()


SMALL = [
    "--dataset", "uniform", "--shape", "32,32", "--records", "2000",
    "--cells", "2,2",
]


class TestTraceOut:
    def test_run_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["run", *SMALL, "--budget", "64", "--trace-out", str(out)])
        assert code == 0
        assert "spans to" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        # Chrome trace JSON object format: a traceEvents array of events
        # with the complete-event schema.
        assert isinstance(trace["traceEvents"], list)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans, "trace contains no complete events"
        for event in spans:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert isinstance(event["ts"], (int, float))
            assert event["dur"] >= 0
        names = {e["name"] for e in spans}
        assert "rewrite.batch" in names
        assert "plan.from_factors" in names


class TestMetricsCommand:
    def test_metrics_exits_zero_and_emits_valid_prometheus(self, capsys):
        code = main(["metrics"])
        assert code == 0
        text = capsys.readouterr().out
        types, samples = parse_prometheus(text)
        # The whole pipeline reports into one registry.
        assert types["repro_scheduler_retrievals_total"] == "counter"
        assert types["repro_scheduler_live_sessions"] == "gauge"
        assert types["repro_service_submit_seconds"] == "histogram"
        retrievals = [
            v for (name, _), v in samples.items()
            if name == "repro_scheduler_retrievals_total"
        ]
        assert sum(retrievals) > 0
        assert any(
            name == "repro_service_submit_seconds_count" and v >= 2
            for (name, _), v in samples.items()
        )

    def test_metrics_json_format(self, capsys):
        code = main(["metrics", "--format", "json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["repro_scheduler_retrievals_total"]["kind"] == "counter"
        assert any(
            s["value"] > 0
            for s in snapshot["repro_scheduler_retrievals_total"]["samples"]
        )

    def test_serve_demo_metrics_port_serves_registry(self):
        """``repro serve --port 0`` prints its bound address, and that
        port's ``/metrics`` carries the scheduler counters once a
        session has advanced; SIGTERM then exits 0."""
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import numpy as np

        import repro
        from repro.cluster import ClusterClient
        from repro.queries.workload import partition_count_batch

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dataset", "uniform", "--shape", "32,32", "--records", "2000",
                "--inline-shards", "--shards", "2", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            match = None
            for line in proc.stdout:
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if match:
                    break
            assert match, "serve exited without printing its address"
            client = ClusterClient("127.0.0.1", int(match.group(1)), timeout=30.0)
            try:
                batch = partition_count_batch(
                    (32, 32), (2, 2), rng=np.random.default_rng(3)
                )
                sid = client.submit(batch)
                client.advance(sid, 8)
                types, samples = parse_prometheus(client.metrics_text())
                client.cancel(sid)
            finally:
                client.close()
            assert types["repro_scheduler_retrievals_total"] == "counter"
            assert sum(
                v for (name, _), v in samples.items()
                if name == "repro_scheduler_retrievals_total"
            ) > 0
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
