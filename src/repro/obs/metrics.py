"""The metric registry: counters, gauges and histograms with exposition.

One :class:`MetricRegistry` is the single source of truth for every
operational counter in the repository, so one ``render_prometheus()``
call (or the ``/metrics`` endpoint, or ``repro metrics``) sees the whole
pipeline at once.  Nothing else holds a count: the service's
``metrics()`` snapshot (one ``ServiceMetrics`` shape on both fronts) and
the paged store's ``PageCacheStats`` read registry series back.

Design constraints, in order:

* **dependency-free** — plain stdlib + nothing else;
* **thread-safe** — every mutation happens under the metric's lock, so
  concurrent service threads produce exact totals (no lost increments);
* **near-zero cost when disabled** — a module-level switch
  (:func:`set_enabled`) turns every mutation into a single attribute
  check and an early return;
* **labels** — each metric may declare label names; every distinct label
  value tuple gets its own independently-accumulated sample, which is how
  per-scheduler / per-store instances stay distinguishable inside one
  process-global registry.

Histograms use fixed log-scale buckets (half-decades from 100ns to ~31s
by default) so latency distributions are comparable across metrics and
across runs without any configuration.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Iterable, Mapping


class _Switch:
    """The module-level no-op switch (one attribute read on the hot path)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


_switch = _Switch()


def set_enabled(enabled: bool) -> bool:
    """Turn metric collection on or off; returns the previous state.

    Disabled metrics ignore every ``inc``/``set``/``observe`` (and the
    snapshots read back from them show zero), which makes the
    telemetry cost a single boolean check — see
    ``tests/test_telemetry_overhead.py`` for the enforced budget.
    """
    previous = _switch.enabled
    _switch.enabled = bool(enabled)
    return previous


def enabled() -> bool:
    """True when metric collection is active (the default)."""
    return _switch.enabled


#: Half-decade log-scale buckets in seconds: 1e-7, 3.16e-7, 1e-6, ... ~31.6.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (i / 2.0) for i in range(-14, 4)
)

#: The HTTP ``Content-Type`` of :meth:`MetricRegistry.render_prometheus`
#: (and :func:`snapshot_to_prometheus`) output.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integral values render without '.0'."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels.items())
    return "{" + body + "}"


class _Metric:
    """Shared machinery: label validation, per-labelset sample storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._samples: dict[tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if len(labels) != len(self.labelnames) or any(
            name not in labels for name in self.labelnames
        ):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def remove(self, **labels: object) -> None:
        """Drop one labelset's sample (its value reads as zero again).

        This is the reset hook for read-back views like the paged
        store's ``PageCacheStats.reset``; Prometheus-facing code should
        normally let counters grow monotonically.
        """
        key = self._key(labels)
        with self._lock:
            self._samples.pop(key, None)

    def clear(self) -> None:
        """Drop every sample (declaration is kept)."""
        with self._lock:
            self._samples.clear()


class Counter(_Metric):
    """A monotonically increasing counter (thread-safe, label-aware)."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        if not _switch.enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: object) -> int | float:
        key = self._key(labels)
        with self._lock:
            return self._samples.get(key, 0)

    def total(self) -> int | float:
        """Sum across every labelset."""
        with self._lock:
            return sum(self._samples.values()) if self._samples else 0

    def _render(self, lines: list[str]) -> None:
        with self._lock:
            items = sorted(self._samples.items())
        if not items:
            items = [((), 0)] if not self.labelnames else []
        for key, value in items:
            lines.append(
                f"{self.name}{_render_labels(self._labels_dict(key))} "
                f"{_format_value(value)}"
            )

    def _to_json(self) -> list[dict]:
        with self._lock:
            items = sorted(self._samples.items())
        return [
            {"labels": self._labels_dict(key), "value": value} for key, value in items
        ]


class Gauge(_Metric):
    """A value that can go up and down (thread-safe, label-aware)."""

    kind = "gauge"

    def set(self, value: int | float, **labels: object) -> None:
        if not _switch.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._samples[key] = value

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        if not _switch.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def dec(self, amount: int | float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> int | float:
        key = self._key(labels)
        with self._lock:
            return self._samples.get(key, 0)

    def total(self) -> int | float:
        with self._lock:
            return sum(self._samples.values()) if self._samples else 0

    _render = Counter._render
    _to_json = Counter._to_json


class Histogram(_Metric):
    """Cumulative histogram over fixed log-scale buckets.

    ``observe(v)`` adds ``v`` to the sample distribution; exposition
    renders Prometheus-style cumulative ``_bucket{le=...}`` series plus
    ``_sum`` and ``_count``.  The default buckets are half-decade powers
    of ten tuned for wall-clock seconds.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_TIME_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: int | float, **labels: object) -> None:
        if not _switch.enabled:
            return
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = [[0] * (len(self.buckets) + 1), 0, 0.0]
                self._samples[key] = sample
            sample[0][idx] += 1
            sample[1] += 1
            sample[2] += value

    def count(self, **labels: object) -> int:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            return sample[1] if sample else 0

    def sum(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            return sample[2] if sample else 0.0

    def bucket_counts(self, **labels: object) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; last slot is the overflow."""
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            return tuple(sample[0]) if sample else (0,) * (len(self.buckets) + 1)

    def _render(self, lines: list[str]) -> None:
        with self._lock:
            items = sorted(
                (key, (list(counts), count, total))
                for key, (counts, count, total) in self._samples.items()
            )
        for key, (counts, count, total) in items:
            labels = self._labels_dict(key)
            cumulative = 0
            for bound, n in zip(self.buckets, counts):
                cumulative += n
                le = dict(labels, le=_format_value(bound))
                lines.append(
                    f"{self.name}_bucket{_render_labels(le)} {cumulative}"
                )
            le = dict(labels, le="+Inf")
            lines.append(f"{self.name}_bucket{_render_labels(le)} {count}")
            lines.append(
                f"{self.name}_sum{_render_labels(labels)} {_format_value(total)}"
            )
            lines.append(f"{self.name}_count{_render_labels(labels)} {count}")

    def _to_json(self) -> list[dict]:
        with self._lock:
            items = sorted(
                (key, (list(counts), count, total))
                for key, (counts, count, total) in self._samples.items()
            )
        return [
            {
                "labels": self._labels_dict(key),
                "count": count,
                "sum": total,
                "buckets": {
                    _format_value(bound): n for bound, n in zip(self.buckets, counts)
                },
                "overflow": counts[-1],
            }
            for key, (counts, count, total) in items
        ]


class MetricRegistry:
    """A named collection of metrics with get-or-create declaration.

    Declaring the same name twice returns the existing metric, provided
    the kind and label names agree (a mismatch is a programming error and
    raises).  ``render_prometheus`` / ``to_json`` serialize every metric;
    ``reset`` zeroes all samples while keeping the declarations.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- declaration ---------------------------------------------------

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                metric = Histogram(name, help, labelnames, buckets=buckets)
                self._metrics[name] = metric
                return metric
        self._check(existing, Histogram, name, labelnames)
        return existing  # type: ignore[return-value]

    def _declare(self, cls, name: str, help: str, labelnames: Iterable[str]):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                metric = cls(name, help, labelnames)
                self._metrics[name] = metric
                return metric
        self._check(existing, cls, name, labelnames)
        return existing

    @staticmethod
    def _check(existing: _Metric, cls, name: str, labelnames: Iterable[str]) -> None:
        if type(existing) is not cls:
            raise ValueError(
                f"metric {name!r} already declared as {existing.kind}, "
                f"cannot redeclare as {cls.kind}"
            )
        if existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already declared with labels "
                f"{existing.labelnames}, cannot redeclare with {tuple(labelnames)}"
            )

    # -- access --------------------------------------------------------

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every sample; metric declarations survive."""
        for metric in self.metrics():
            metric.clear()

    # -- exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            metric._render(lines)
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """A JSON-serializable snapshot of every metric."""
        return {
            metric.name: {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": metric._to_json(),
            }
            for metric in self.metrics()
        }

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)


#: The process-global default registry every subsystem reports into.
REGISTRY = MetricRegistry()


# ----------------------------------------------------------------------
# Registry-snapshot federation
# ----------------------------------------------------------------------
#
# A sharded cluster has one MetricRegistry *per process*; live Metric
# objects cannot cross a pipe, but their ``to_json()`` snapshots can.
# The helpers below operate on that snapshot shape — merge several
# processes' snapshots into one (tagging each remote process's samples
# with an identifying label, e.g. ``shard="1"``) and render a snapshot
# in the Prometheus 0.0.4 text format, so a federated ``/metrics`` is
# indistinguishable from a scrape of one big registry.


def merge_registry_snapshots(base: dict, tagged: Iterable[tuple[dict, Mapping[str, str]]]) -> dict:
    """Merge ``to_json()`` snapshots into one federated snapshot.

    ``base`` is the local registry's snapshot (samples kept verbatim);
    each ``(snapshot, extra_labels)`` in ``tagged`` contributes its
    samples with ``extra_labels`` added (the ``shard`` label, in the
    cluster), which keeps same-name series from different processes
    distinct.  Families merge by name; on a kind mismatch (a programming
    error between processes) the remote family is dropped rather than
    emitting an exposition that no scraper would accept.  Inputs are not
    mutated.
    """
    merged: dict = {}
    for name, family in base.items():
        merged[name] = {
            "kind": family["kind"],
            "help": family["help"],
            "labelnames": list(family["labelnames"]),
            "samples": [dict(sample) for sample in family["samples"]],
        }
    for snapshot, extra_labels in tagged:
        extra = {str(k): str(v) for k, v in dict(extra_labels).items()}
        for name, family in snapshot.items():
            into = merged.get(name)
            if into is None:
                into = merged[name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "labelnames": list(family["labelnames"]) + list(extra),
                    "samples": [],
                }
            elif into["kind"] != family["kind"]:
                continue
            else:
                for labelname in list(family["labelnames"]) + list(extra):
                    if labelname not in into["labelnames"]:
                        into["labelnames"].append(labelname)
            for sample in family["samples"]:
                tagged_sample = dict(sample)
                tagged_sample["labels"] = dict(sample["labels"], **extra)
                into["samples"].append(tagged_sample)
    return dict(sorted(merged.items()))


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render a ``to_json()``-shaped snapshot as 0.0.4 exposition text.

    Mirrors :meth:`MetricRegistry.render_prometheus` sample for sample —
    including the implicit ``0`` for an unlabeled counter/gauge that has
    never been touched — so a federated cluster scrape and a
    single-process scrape validate against the same strict linter
    (``tests/promparse.py::validate_exposition``).
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["kind"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        samples = family["samples"]
        if kind == "histogram":
            for sample in samples:
                labels = dict(sample["labels"])
                cumulative = 0.0
                for bound, count in sorted(
                    sample["buckets"].items(), key=lambda kv: float(kv[0])
                ):
                    cumulative += count
                    le = dict(labels, le=bound)
                    lines.append(
                        f"{name}_bucket{_render_labels(le)} "
                        f"{_format_value(cumulative)}"
                    )
                le = dict(labels, le="+Inf")
                lines.append(
                    f"{name}_bucket{_render_labels(le)} "
                    f"{_format_value(sample['count'])}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} "
                    f"{_format_value(sample['count'])}"
                )
            continue
        if not samples and not family["labelnames"]:
            lines.append(f"{name} 0")
            continue
        for sample in samples:
            lines.append(
                f"{name}{_render_labels(sample['labels'])} "
                f"{_format_value(sample['value'])}"
            )
    return "\n".join(lines) + "\n"
