"""The scatter-gather data plane: ``ShardedStore`` and ``skip_many``.

The router runs the single-process scheduler over a
:class:`~repro.cluster.store.ShardedStore`, so everything the cluster
adds to the bit-identical contract lives in that one ``fetch``:

* values equal the local paged store's, bit for bit, in request order;
* every shard is *sent* its slice before any reply is *received*;
* an oversized slice travels as several bounded messages;
* a lost shard surfaces as ``RetrievalError`` and is shed, while the
  surviving shards' keys of the same chunk are still delivered;
* over a real spawned shard a fetch is one raw frame each way: every
  float64 bit pattern and the whole request id arrive, and a reply with
  the wrong number of values sheds the shard instead of failing the
  request;
* one ``advance`` costs a handful of overlapped round-trips, not one
  per couple of keys (the tier-1 twin of the benchmark's
  ``cluster.router.keys_per_shard_call``).
"""

from __future__ import annotations

import math
import multiprocessing
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterClient,
    ClusterHttpServer,
    ShardedStore,
    build_cluster,
    make_partitioner,
)
from repro.cluster import store as store_module
from repro.cluster.worker import ShardLostError, _parse_fetch, inline_shard, spawn_shard
from repro.core.penalties import SsePenalty
from repro.core.session import ProgressiveSession
from repro.obs import MetricRegistry
from repro.queries.workload import partition_count_batch
from repro.storage.paged import PagedCoefficientStore, write_paged_file
from repro.storage.resilient import RetrievalError, fetch_degrading
from repro.storage.wavelet_store import WaveletStorage

KEY_SPACE = 4096


@pytest.fixture(scope="module")
def paged_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("sharded") / "coeffs.pages"
    values = np.random.default_rng(5).normal(size=KEY_SPACE)
    write_paged_file(path, values, page_size=64)
    return path


def roundtrips(registry: MetricRegistry):
    return registry.histogram(
        "repro_cluster_pipe_roundtrip_seconds", "test", ("shard",)
    )


def make_store(shards, kind="hash", on_lost=lambda index: None):
    registry = MetricRegistry()
    store = ShardedStore(
        shards,
        make_partitioner(kind, len(shards), KEY_SPACE),
        roundtrips(registry),
        on_lost,
        registry.counter("repro_cluster_readahead_keys_total", "test", ("outcome",)),
    )
    return store, registry


class FakeShard:
    """Records the order of pipe operations; serves ``key * 0.5``."""

    def __init__(self, shard: int, log: list) -> None:
        self.shard = shard
        self.alive = True
        self._log = log
        self._keys = None

    def send(self, method, keys):
        assert method == "fetch"
        assert self._keys is None, "two messages in flight on one pipe"
        self._log.append(("send", self.shard, len(keys)))
        self._keys = keys

    def recv(self):
        keys, self._keys = self._keys, None
        self._log.append(("recv", self.shard, len(keys)))
        return keys * 0.5


class TestGatherEqualsLocalFetch:
    @pytest.mark.parametrize("kind", ["hash", "range"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_bit_equal_in_request_order(self, paged_path, kind, num_shards):
        shards = [
            inline_shard(paged_path, index, buffer_pages=4)
            for index in range(num_shards)
        ]
        store, _ = make_store(shards, kind)
        rng = np.random.default_rng(num_shards)
        with PagedCoefficientStore(paged_path, buffer_pages=4) as local:
            for size in (0, 1, 7, 64, 500):
                keys = rng.choice(KEY_SPACE, size=size, replace=False)
                got = store.fetch(keys)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, local.fetch(keys))
        for shard in shards:
            shard.close()


class TestScatterBeforeGather:
    def test_every_slice_is_sent_before_any_is_received(self):
        log: list = []
        store, registry = make_store([FakeShard(i, log) for i in range(4)])
        keys = np.random.default_rng(1).choice(KEY_SPACE, size=64, replace=False)
        np.testing.assert_array_equal(store.fetch(keys), keys * 0.5)
        kinds = [op for op, _, _ in log]
        assert kinds == ["send"] * 4 + ["recv"] * 4
        assert sum(size for op, _, size in log if op == "send") == 64
        # One round-trip sample per slice, on the owning shard's series.
        histogram = roundtrips(registry)
        assert [histogram.count(shard=str(i)) for i in range(4)] == [1] * 4

    @pytest.mark.parametrize(
        "caps, biggest", [({"MAX_SLICE_KEYS": 5}, 5), ({"MAX_SLICE_BYTES": 24}, 3)]
    )
    def test_oversized_slice_is_split_and_reassembled(
        self, monkeypatch, caps, biggest
    ):
        for name, value in caps.items():
            monkeypatch.setattr(store_module, name, value)
        log: list = []
        store, _ = make_store([FakeShard(i, log) for i in range(2)])
        keys = np.random.default_rng(2).choice(KEY_SPACE, size=41, replace=False)
        np.testing.assert_array_equal(store.fetch(keys), keys * 0.5)
        sizes = [size for op, _, size in log if op == "send"]
        assert max(sizes) == biggest and sum(sizes) == 41
        owners = store.partitioner.shard_of(keys)
        for shard in range(2):
            owned = int(np.count_nonzero(owners == shard))
            sent = [size for op, s, size in log if op == "send" and s == shard]
            assert len(sent) == math.ceil(owned / biggest)


class TestLostShard:
    def test_closed_shard_raises_retrieval_error_and_is_reported(self, paged_path):
        lost: list[int] = []
        shards = [inline_shard(paged_path, i, buffer_pages=4) for i in range(2)]
        store, _ = make_store(shards, on_lost=lost.append)
        keys = np.arange(64, dtype=np.int64)
        shards[1].close()
        with pytest.raises(RetrievalError):
            store.fetch(keys)
        assert lost == [1]
        # The survivor's pipe is in sync: its own keys still come back.
        mine = keys[store.partitioner.shard_of(keys) == 0]
        with PagedCoefficientStore(paged_path, buffer_pages=4) as local:
            np.testing.assert_array_equal(store.fetch(mine), local.fetch(mine))
        # Once the router marks the shard shed, its keys fail fast.
        store.dead.add(1)
        with pytest.raises(RetrievalError):
            store.fetch(keys)
        assert lost == [1]
        assert store.call(1, "ping") is None
        shards[0].close()

    @pytest.mark.parametrize("process_shards", [False, True])
    def test_survivors_deliver_dead_owner_keys_skip_bound_holds(
        self, tmp_path, process_shards
    ):
        rng = np.random.default_rng(77)
        data = rng.poisson(2.0, size=(32, 32)).astype(np.float64)
        storage = WaveletStorage.build(data, wavelet="db2")
        batch = partition_count_batch((32, 32), (3, 3), rng=np.random.default_rng(3))
        exact = batch.exact_dense(data)
        with build_cluster(
            storage,
            tmp_path / "lost.pages",
            2,
            process_shards=process_shards,
            buffer_pages=16,
        ) as router:
            sid = router.submit(batch)
            router.advance(sid, 8)
            session = router._sessions[sid].session
            keys, iotas = session.pending()
            chunk = keys[np.lexsort((keys, -iotas))][:64]
            owners = router.partitioner.shard_of(chunk)
            assert set(owners.tolist()) == {0, 1}, "chunk must span both shards"
            if process_shards:
                router._shards[1].kill()
            else:
                router._shards[1].close()
            # The gather that hits the dead pipe still serves shard 0's
            # slice, and the advance carries on with the survivor.
            assert router.advance(sid, 64) > 0
            assert router.dead_shards() == (1,)
            retrieved = set(session.retrieved_keys().tolist())
            skipped = set(session.skipped_keys().tolist())
            assert set(chunk[owners == 0].tolist()) <= retrieved
            assert set(chunk[owners == 1].tolist()) <= skipped
            assert set(router.partitioner.shard_of(session.skipped_keys())) == {1}
            snap = router.poll(sid)
            assert snap.degraded
            assert snap.worst_case_bound * (1 + 1e-9) + 1e-9 >= SsePenalty()(
                snap.estimates - exact
            )

    def test_worker_retrieval_error_crosses_the_pipe(self, tmp_path):
        """Chaos stays in the worker: a blacked-out key must reach the
        router as ``RetrievalError`` (not a generic command failure), so
        only that key skips and the worker keeps serving."""
        path = tmp_path / "chaos.pages"
        write_paged_file(path, np.arange(256, dtype=np.float64), page_size=64)
        chaos = {"blackout_keys": [7], "max_attempts": 2}
        shard = spawn_shard(path, 0, buffer_pages=4, chaos=chaos)
        try:
            with pytest.raises(RetrievalError) as caught:
                shard.call("fetch", np.array([3, 7, 9], dtype=np.int64))
            assert caught.value.keys == [3, 7, 9]
            np.testing.assert_array_equal(
                shard.call("fetch", np.array([3, 9], dtype=np.int64)), [3.0, 9.0]
            )
            with pytest.raises(RuntimeError, match="no_such_command"):
                shard.call("no_such_command")
            assert shard.call("ping")["shard"] == 0
            # Through the data plane, only the blacked-out keys are lost.
            store, _ = make_store([shard])
            keys = np.array([3, 7, 9, 40, 7, 200], dtype=np.int64)
            values, failed = fetch_degrading(store, keys)
            assert failed == [1, 4]
            served = [0, 2, 3, 5]
            np.testing.assert_array_equal(values[served], keys[served])
            assert shard.alive and not store.dead
        finally:
            shard.close()
        with pytest.raises(ShardLostError):
            shard.call("ping")


#: Every float64 bit pattern JSON cannot promise: a NaN with a payload,
#: both infinities, -0.0 and subnormals of both signs.
AWKWARD = np.concatenate([
    np.frombuffer(struct.pack("<Q", 0x7FF8_0000_0000_0123), dtype="<f8"),
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, -2.2250738585072014e-308, 1.5],
])


@pytest.fixture(scope="module")
def awkward(tmp_path_factory):
    """A spawned shard over a 256-key file of :data:`AWKWARD` values."""
    path = tmp_path_factory.mktemp("frames") / "awkward.pages"
    write_paged_file(path, np.resize(AWKWARD, 256), page_size=16)
    shard = spawn_shard(path, 0, buffer_pages=2)
    with PagedCoefficientStore(path) as local:
        yield shard, local.peek
    shard.close()


@pytest.fixture(scope="module")
def small():
    """A 32x32 db2 storage and a 3x3 partition batch over it."""
    data = np.random.default_rng(9).poisson(2.0, size=(32, 32)).astype(float)
    batch = partition_count_batch((32, 32), (3, 3), rng=np.random.default_rng(2))
    return WaveletStorage.build(data, wavelet="db2"), batch


class TestFrames:
    """The pipe's data plane: a fetch is one raw frame each way."""

    def test_values_are_bit_identical_to_peek(self, awkward):
        shard, peek = awkward
        keys = np.random.default_rng(0).integers(0, 256, size=300)  # repeats
        got = shard.call("fetch", keys)
        assert got.dtype == np.float64
        assert got.tobytes() == peek(keys).tobytes()

    def test_an_empty_slice(self, awkward):
        shard, _ = awkward
        got = shard.call("fetch", np.array([], dtype=np.int64))
        assert got.dtype == np.float64 and got.size == 0

    def test_a_slice_split_into_waves_at_the_byte_cap(self, awkward, monkeypatch):
        shard, peek = awkward
        monkeypatch.setattr(store_module, "MAX_SLICE_BYTES", 64)  # 8 keys
        store, registry = make_store([shard])
        keys = np.random.default_rng(1).integers(0, 256, size=61)
        assert store.fetch(keys).tobytes() == peek(keys).tobytes()
        assert roundtrips(registry).count(shard="0") == math.ceil(61 / 8)

    def test_control_commands_interleave_with_fetches(self, awkward):
        shard, peek = awkward
        keys = np.arange(0, 256, 5)
        before = shard.call("telemetry", True)["retrievals"]
        for command, args in (("ping", ()), ("telemetry", (True,)), ("ping", ())):
            assert shard.call("fetch", keys).tobytes() == peek(keys).tobytes()
            assert shard.call(command, *args)["shard"] == 0
        assert shard.call("telemetry", True)["retrievals"] - before == 3 * keys.size

    def test_a_300_byte_request_id_reaches_the_shard_fetch_span(self, small, tmp_path):
        storage, batch = small
        # 300 bytes in the header (latin-1), 330 once UTF-8 encoded: the
        # frame's length prefix counts bytes, not characters.
        request_id = "ü-request" * 30
        router = build_cluster(
            storage, tmp_path / "rid.pages", 1, process_shards=True,
            buffer_pages=16, trace=True,
        )
        server = ClusterHttpServer(
            router, port=0, telemetry_interval=0.0, access_log=False
        ).start_in_thread()
        try:
            with ClusterClient("127.0.0.1", server.port) as client:
                sid = client.submit(batch)
                client.next_request_id = request_id
                assert client.advance(sid, 16)["gained"] == 16
                assert client.last_request_id == request_id
            spans = router.store.call(0, "telemetry", True)["spans"]
        finally:
            server.close()
        fetched_under = [attrs.get("request_id") for name, *_, attrs in spans if name == "shard.fetch"]
        # The chunk, and the read-ahead of the next one sent before the reply.
        assert fetched_under == [request_id, request_id]

    def test_a_short_values_frame_sheds_the_shard_and_the_edge_answers(
        self, small, tmp_path
    ):
        storage, batch = small
        router = build_cluster(
            storage, tmp_path / "short.pages", 2, process_shards=True, buffer_pages=16
        )
        # Shard 1 now answers through a pipe the test holds: every values
        # frame comes back one float64 short.
        ours, theirs = multiprocessing.Pipe()
        victim = router._shards[1]
        victim._conn.close()  # the real worker sees EOF and exits
        victim._conn = ours

        def one_value_short() -> None:
            while True:
                try:
                    _, (keys,), _ = _parse_fetch(theirs.recv_bytes())
                except (EOFError, OSError):
                    return
                theirs.send_bytes(b"V" + np.zeros(keys.size - 1).tobytes())

        liar = threading.Thread(target=one_value_short, daemon=True)
        liar.start()
        server = ClusterHttpServer(router, port=0, access_log=False).start_in_thread()
        try:
            with ClusterClient("127.0.0.1", server.port) as client:
                sid = client.submit(batch)
                reply = client.advance(sid, 64)  # no 400, no 500
                assert reply["gained"] > 0 and reply["snapshot"]["degraded"]
                assert client.healthz()["shed_shards"] == [1]
            skipped = router._sessions[sid].session.skipped_keys()
            assert set(router.partitioner.shard_of(skipped).tolist()) == {1}
        finally:
            server.close()
        liar.join(5.0)
        assert not liar.is_alive()


def count_messages(send, log: list):
    """``send``, logging each command's method first."""

    def counted(method, *args):
        log.append(method)
        return send(method, *args)

    return counted


class TestRoundTripBudget:
    def test_advance_costs_a_few_overlapped_round_trips(self, tmp_path):
        data = np.random.default_rng(9).poisson(2.0, size=(64, 64)).astype(float)
        storage = WaveletStorage.build(data, wavelet="db2")
        batch = partition_count_batch((64, 64), (4, 4), rng=np.random.default_rng(4))
        registry = MetricRegistry()
        with build_cluster(
            storage, tmp_path / "budget.pages", 2, buffer_pages=16, registry=registry
        ) as router:
            histogram = roundtrips(registry)
            messages = []
            for shard in router._shards.values():
                shard.send = count_messages(shard.send, messages)

            sid = router.submit(batch)
            total_trips = total_keys = 0
            while router.poll(sid).remaining >= 128:
                before = len(messages)
                assert router.advance(sid, 128) == 128
                spent = len(messages) - before
                # One chunk per advance: one overlapped message per shard,
                # sent as the previous advance's read-ahead; the first
                # advance also sends its own.
                assert spent == (4 if total_keys == 0 else 2)
                total_trips += 2
                total_keys += 128
            assert total_keys >= 512, "fixture too small to exercise the gate"
            assert total_keys / total_trips >= 60
            assert router.scheduler.counts()["retrievals"] == total_keys
            # Only the first chunk waited a round trip; the rest was read ahead.
            assert sum(histogram.count(shard=str(i)) for i in range(2)) == 2
            assert router.store._readahead.value(outcome="used") == total_keys - 128

    def test_eight_sessions_one_gather_per_advance(self, tmp_path):
        """The pick sizes itself: however the other sessions' entries
        interleave with the target's, ``advance(32)`` is one chunk."""
        data = np.random.default_rng(9).poisson(2.0, size=(64, 64)).astype(float)
        storage = WaveletStorage.build(data, wavelet="db2")
        with build_cluster(
            storage, tmp_path / "dash.pages", 2, process_shards=False, buffer_pages=16
        ) as router:
            sids = [
                router.submit(
                    partition_count_batch(
                        (64, 64), (4, 4), rng=np.random.default_rng(seed)
                    )
                )
                for seed in range(8)
            ]

            def gathers() -> int:
                stages = (router.cost_report(sid)["stages"] for sid in sids)
                return sum(s.get("fetch", {"calls": 0})["calls"] for s in stages)

            advances = 0
            for _ in range(6):
                for sid in sids:
                    if router.poll(sid).remaining < 32:
                        continue
                    before = gathers()
                    assert router.advance(sid, 32) == 32
                    # At most one: every key may already sit in the cache.
                    assert gathers() - before <= 1
                    advances += 1
            assert advances >= 16, "fixture too small to exercise the gate"
            assert gathers() >= advances // 2
            counts = router.scheduler.counts()
            assert counts["deliveries"] > counts["retrievals"], "no sharing"


class TestSkipMany:
    @settings(max_examples=40, deadline=None)
    @given(
        advanced=st.integers(0, 40),
        picks=st.lists(st.integers(-5, 300), max_size=60),
        seed=st.integers(0, 3),
    )
    def test_matches_the_per_key_loop(self, advanced, picks, seed):
        data = np.random.default_rng(seed).random((16, 16))
        storage = WaveletStorage.build(data, wavelet="db2")
        batch = partition_count_batch(
            (16, 16), (4, 2), rng=np.random.default_rng(seed)
        )
        looped = ProgressiveSession(storage, batch)
        bulk = ProgressiveSession(storage, batch)
        for session in (looped, bulk):
            session.advance(advanced)
            session.skip(int(session.plan.keys[-1]))  # one already skipped
        # Master keys, duplicates, retrieved keys and keys outside the
        # batch (negative, beyond the list) all mixed together.
        master = looped.plan.keys
        keys = np.array(
            [int(master[p]) if 0 <= p < master.size else p for p in picks],
            dtype=np.int64,
        )
        count = sum(looped.skip(int(key)) for key in keys)
        assert bulk.skip_many(keys) == count
        np.testing.assert_array_equal(bulk.skipped_keys(), looped.skipped_keys())
        assert bulk.skipped_count == looped.skipped_count
        assert bulk.worst_case_bound() == looped.worst_case_bound()
        assert bulk.costs.skipped_keys == looped.costs.skipped_keys
        np.testing.assert_array_equal(bulk.pending()[0], looped.pending()[0])
        assert bulk.retry_skipped() == looped.retry_skipped()
