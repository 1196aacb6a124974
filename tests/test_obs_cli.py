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

    def test_serve_demo_trace_covers_scheduler(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["serve-demo", *SMALL, "--clients", "2", "--trace-out", str(out)]
        )
        assert code == 0
        trace = json.loads(out.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert "scheduler.advance" in names
        assert "scheduler.fetch" in names
        assert "service.submit" in names


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

    def test_serve_demo_metrics_port_serves_registry(self, capsys):
        import re
        import urllib.request

        # Run serve-demo with an ephemeral metrics port and scrape it
        # while the demo is still alive is racy from outside the process;
        # instead verify the endpoint wiring directly against the global
        # registry the CLI uses.
        server = obs.start_metrics_server(obs.REGISTRY, port=0)
        try:
            code = main(["serve-demo", *SMALL, "--clients", "2"])
            assert code == 0
            url = f"http://127.0.0.1:{server.server_port}/metrics"
            with urllib.request.urlopen(url) as resp:
                types, samples = parse_prometheus(resp.read().decode())
            assert "repro_scheduler_retrievals_total" in types
        finally:
            server.shutdown()
        # And the flag itself prints the bound address.
        code = main(["serve-demo", *SMALL, "--clients", "2", "--metrics-port", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"http://127\.0\.0\.1:\d+/metrics", out)
