"""Wire codec for the cluster's HTTP edge.

Requests are plain JSON: query batches and penalties round-trip through
the dict shapes defined here.  A session snapshot travels as JSON (the
default: curl, ``jq``; floats go through ``repr``/``float()``, so they
survive *exactly*) or, to a request whose ``Accept`` names
:data:`SNAPSHOT_FRAME_TYPE`, as a *frame*: one UTF-8 JSON line with every
scalar field and the estimates' count, then the estimates as raw
little-endian float64 — 8 bytes each where JSON spends ~19, nothing to
format or parse per float.  Either way the bit-equality gates hold across
the HTTP boundary; ``docs/CLUSTER.md`` ("Wire format") has the details.

Query wire form (one dict per query)::

    {"kind": "count",       "rect": [[0, 31], [0, 31]], "label": "a"}
    {"kind": "sum",         "rect": ..., "attribute": 0}
    {"kind": "sum_product", "rect": ..., "attribute_i": 0, "attribute_j": 1}

Penalty wire form (optional wherever accepted)::

    {"kind": "sse"}
    {"kind": "cursored_sse", "high_priority": [0, 2],
     "high_weight": 10.0, "low_weight": 1.0}
    {"kind": "lp", "p": 1.0}
    {"kind": "laplacian_chain"}

Malformed payloads raise :class:`CodecError`, which the edge maps to
``400 Bad Request`` with the message in the body.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from repro.core.penalties import (
    CursoredSsePenalty,
    LaplacianPenalty,
    LpPenalty,
    Penalty,
    SsePenalty,
)
from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.service.server import SessionSnapshot


#: Content type of a snapshot frame; a request whose ``Accept`` header
#: names it gets its snapshot framed instead of as JSON.
SNAPSHOT_FRAME_TYPE = "application/x-repro-snapshot"


class CodecError(ValueError):
    """A request payload that does not decode (maps to HTTP 400)."""


def split_head(head) -> tuple[str, dict[str, str]]:
    """An HTTP/1.1 message head as ``(start line, headers)``, names lower-
    cased, repeats joined by ``", "`` — all the parsing either end does."""
    start_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if colon:
            name, value = name.strip().lower(), value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
    return start_line, headers


def _require(payload: dict, key: str):
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise CodecError(f"missing required field {key!r}") from None


def decode_rect(payload) -> HyperRect:
    try:
        bounds = tuple((int(lo), int(hi)) for lo, hi in payload)
    except (TypeError, ValueError):
        raise CodecError(
            "rect must be a list of [lo, hi] integer pairs"
        ) from None
    try:
        return HyperRect(bounds)
    except ValueError as exc:
        raise CodecError(f"bad rect: {exc}") from None


def decode_query(payload: dict, index: int = 0) -> VectorQuery:
    kind = _require(payload, "kind")
    rect = decode_rect(_require(payload, "rect"))
    label = str(payload.get("label", "") or "")
    try:
        if kind == "count":
            return VectorQuery.count(rect, label=label)
        if kind == "sum":
            return VectorQuery.sum(
                rect, int(_require(payload, "attribute")), label=label
            )
        if kind == "sum_product":
            return VectorQuery.sum_product(
                rect,
                int(_require(payload, "attribute_i")),
                int(_require(payload, "attribute_j")),
                label=label,
            )
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"query {index}: {exc}") from None
    raise CodecError(
        f"query {index}: unknown kind {kind!r} "
        "(expected count, sum, or sum_product)"
    )


def decode_batch(payload: dict) -> QueryBatch:
    queries = _require(payload, "queries")
    if not isinstance(queries, list) or not queries:
        raise CodecError("queries must be a non-empty list")
    decoded = [decode_query(q, i) for i, q in enumerate(queries)]
    try:
        return QueryBatch(decoded, name=str(payload.get("name", "") or ""))
    except ValueError as exc:
        raise CodecError(str(exc)) from None


def decode_penalty(payload, batch_size: int) -> Penalty | None:
    """Decode an optional penalty spec (``None`` stays the SSE default)."""
    if payload is None:
        return None
    kind = _require(payload, "kind")
    try:
        if kind == "sse":
            return SsePenalty()
        if kind == "cursored_sse":
            return CursoredSsePenalty(
                batch_size,
                [int(i) for i in _require(payload, "high_priority")],
                high_weight=float(payload.get("high_weight", 10.0)),
                low_weight=float(payload.get("low_weight", 1.0)),
            )
        if kind == "lp":
            return LpPenalty(float(_require(payload, "p")))
        if kind == "laplacian_chain":
            return LaplacianPenalty.chain(batch_size)
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"bad penalty: {exc}") from None
    raise CodecError(
        f"unknown penalty kind {kind!r} "
        "(expected sse, cursored_sse, lp, or laplacian_chain)"
    )


def encode_query(query: VectorQuery) -> dict:
    """The wire form of a basic-aggregate query (client-side helper).

    Degree 0/1/2 queries built by the
    :class:`~repro.queries.vector_query.VectorQuery` constructors map back
    onto the ``count`` / ``sum`` / ``sum_product`` kinds; anything more
    exotic has no wire form yet.
    """
    rect = [[int(lo), int(hi)] for lo, hi in query.rect.bounds]
    out: dict = {"rect": rect}
    if query.label:
        out["label"] = query.label
    monomials = [(exps, c) for exps, c in query.polynomial.monomials() if c]
    if len(monomials) == 1 and monomials[0][1] == 1.0:
        # The attributes multiplied, with multiplicity: x0^2 is [0, 0].
        attrs = [d for d, e in enumerate(monomials[0][0]) for _ in range(e)]
        if not attrs:
            return {**out, "kind": "count"}
        if len(attrs) == 1:
            return {**out, "kind": "sum", "attribute": attrs[0]}
        if len(attrs) == 2:
            return {**out, "kind": "sum_product", "attribute_i": attrs[0], "attribute_j": attrs[1]}
    raise CodecError(
        f"query {query.label or '?'} has no wire encoding "
        "(only count/sum/sum_product travel over HTTP)"
    )


def encode_batch(batch: QueryBatch) -> dict:
    out: dict = {"queries": [encode_query(q) for q in batch]}
    if batch.name:
        out["name"] = batch.name
    return out


def _snapshot_scalars(snapshot: SessionSnapshot) -> dict:
    return {
        "session_id": snapshot.session_id,
        "steps_taken": snapshot.steps_taken,
        "remaining": snapshot.remaining,
        "worst_case_bound": float(snapshot.worst_case_bound),
        "is_exact": snapshot.is_exact,
        "degraded": snapshot.degraded,
        "skipped_count": snapshot.skipped_count,
    }


def snapshot_to_json(snapshot: SessionSnapshot) -> dict:
    """A snapshot's JSON body (estimates round-trip bit-exactly)."""
    return {
        "estimates": snapshot.estimates.tolist(),
        **_snapshot_scalars(snapshot),
    }


def encode_snapshot_frame(snapshot: SessionSnapshot, **outer) -> bytes:
    """A snapshot's frame: the scalar fields of :func:`snapshot_to_json`
    (plus ``outer`` — what a JSON reply nests the snapshot beside) and the
    estimates' count on one JSON line, then the estimates."""
    estimates = np.ascontiguousarray(snapshot.estimates, dtype="<f8")
    fields = {**_snapshot_scalars(snapshot), **outer, "estimates": estimates.size}
    line = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    return line + b"\n" + estimates.tobytes()


def decode_snapshot_frame(raw) -> dict:
    """A frame's flat field dict, ``estimates`` a float64 array over the
    tail of ``raw`` — no copy, and writable when ``raw`` is a bytearray."""
    end = raw.find(b"\n")
    try:
        if end < 0:
            raise ValueError("no header line")
        fields = json.loads(raw[:end].decode("utf-8"))
        count, payload = fields["estimates"], len(raw) - end - 1
        if type(count) is not int or payload != 8 * count:
            raise ValueError(
                f"header promises {count!r} estimates, {payload} bytes follow"
            )
    except (ValueError, KeyError, TypeError) as exc:
        raise CodecError(f"bad snapshot frame: {exc}") from None
    fields["estimates"] = np.frombuffer(raw, dtype="<f8", offset=end + 1).astype(
        np.float64, copy=False
    )
    return fields


def encode_session_status(
    session, shard_ids=(), trajectory_tail: int = 32
) -> dict:
    """One session's /status entry: progressive state plus bound tail.

    ``session`` is a :class:`~repro.core.session.ProgressiveSession`
    (duck-typed — anything with the same snapshot surface and a
    ``convergence`` log serves).  The trajectory tail is the last
    ``trajectory_tail`` convergence records, oldest first, so a
    dashboard can plot the recent Theorem-1 bound descent without
    shipping the whole ring.
    """
    tail = session.convergence.trajectory()
    tail = tail[-int(trajectory_tail):] if trajectory_tail > 0 else []
    return {
        "steps_taken": int(session.steps_taken),
        "remaining": int(session.remaining),
        "is_exact": bool(session.is_exact),
        "degraded": bool(session.degraded),
        "skipped_count": int(session.skipped_count),
        "worst_case_bound": float(session.worst_case_bound()),
        "shards": [int(i) for i in shard_ids],
        "bound_trajectory": [dataclasses.asdict(r) for r in tail],
    }
