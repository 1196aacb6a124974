"""Read-ahead over real process shards, refereed by inline shards.

Before it replies, the router sends the shards the uncached keys among
the first L of the schedule's head (``ShardedStore.read_ahead``), L the
longest pick of any live session's last advance: with one session and a
constant ``k``, the pick of the next ``advance(k)``.  The next fetch
collects the longest common prefix of its keys and the read-ahead and
gathers the rest behind it.  Inline shards never read ahead, so every
scenario here runs twice — over two spawned process shards and over two
inline shards — and the runs must agree at every poll, bit for bit:
estimates, Theorem-1 bound, ``steps_taken``, skipped keys and scheduler
counts.  Both runs must also make the same store calls.  The used and
unused read-ahead keys are exact literals, derived in each test from the
rule: the common prefix is used (none of a read-ahead that failed), the
rest of the read-ahead is dropped unused.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.cluster.supervise import RestartPolicy
from repro.core.penalties import CursoredSsePenalty, SsePenalty
from repro.core.session import ProgressiveSession
from repro.obs import MetricRegistry
from repro.queries.workload import partition_count_batch
from repro.storage.wavelet_store import WaveletStorage

DATA = np.random.default_rng(9).poisson(2.0, size=(32, 32)).astype(float)
STORAGE = WaveletStorage.build(DATA, wavelet="db2")
#: 400 master keys, 16 queries.
BATCH = partition_count_batch((32, 32), (4, 4), rng=np.random.default_rng(2))
KEYS = 400


class Run:
    """One 2-shard cluster: its polls, its store fetches and the fetches
    a read-ahead served."""

    def __init__(self, tmp_path, process: bool, **options) -> None:
        self.registry = MetricRegistry()
        self.router = build_cluster(
            STORAGE, tmp_path / f"{'process' if process else 'inline'}.pages", 2,
            process_shards=process, buffer_pages=16, registry=self.registry, **options,
        )
        self.polls: list = []
        self.fetched: list[list[int]] = []
        self.used: list[list[int]] = []
        fetch = self.router.store.fetch

        def logged(keys):
            before = self.readahead("used")
            try:
                return fetch(keys)
            finally:
                self.fetched.append(keys.tolist())
                if self.readahead("used") > before:
                    self.used.append(keys.tolist())

        self.router.store.fetch = logged

    def readahead(self, outcome: str) -> int:
        return int(
            self.registry.counter(
                "repro_cluster_readahead_keys_total", "", ("outcome",)
            ).value(outcome=outcome)
        )

    def counts(self) -> tuple[int, int]:
        return self.readahead("used"), self.readahead("unused")

    def poll(self) -> None:
        """Record every live session's snapshot and the scheduler counts."""
        for sid in self.router.session_ids():
            snap = self.router.poll(sid)
            self.polls.append((
                sid, snap.estimates.tobytes(), snap.worst_case_bound,
                snap.steps_taken, snap.skipped_count,
            ))
        self.polls.append(tuple(self.router.scheduler.counts().items()))

    def advance(self, sid: str, k: int, **options) -> int:
        gained = self.router.advance(sid, k, **options)
        self.poll()
        return gained

    def drain(self, sid: str, k: int) -> None:
        while self.advance(sid, k):
            pass


def twin(tmp_path, script, **options) -> Run:
    """Run ``script`` over process shards and over inline shards; returns
    the process run once both agree (its counters read after close)."""
    runs = []
    for process in (True, False):
        run = Run(tmp_path, process, **options)
        try:
            script(run)
        finally:
            run.router.close()
        runs.append(run)
    process, inline = runs
    assert process.polls == inline.polls
    assert process.fetched == inline.fetched
    assert inline.counts() == (0, 0)
    return process


def head(run: Run, sid: str, k: int) -> list[int]:
    """The pick of ``advance(sid, k)`` with one live session and no cache hit."""
    return run.router._sessions[sid].session.upcoming(k)[0].tolist()


class TestConstantAndChangingK:
    @pytest.mark.parametrize(
        "ks, used, unused, behind",
        [
            # Every chunk after the first arrives read ahead.
            ([64] * 7, KEYS - 64, 0, 0),
            # 32, 32 (used), 64 (the 32 read ahead used, 32 behind), 16
            # (16 of the 64 used, 48 unused), 16 (used), 48 (16 used, 32
            # behind), then four 48s to exact (used).
            ([32, 32, 64, 16, 16] + [48] * 5, 32 + 32 + 16 + 16 + 16 + 192, 48, 32 + 32),
        ],
        ids=["constant", "changing"],
    )
    def test_every_used_read_ahead_is_the_pick_of_its_advance(
        self, tmp_path, ks, used, unused, behind
    ):
        def script(run):
            sid = run.router.submit(BATCH)
            for k in ks:
                pick, before = head(run, sid, k), len(run.used)
                assert run.advance(sid, k) == len(pick)
                if len(run.used) > before:
                    assert run.used[-1] == pick
            assert run.router.poll(sid).is_exact
            assert run.advance(sid, 64) == 0

        run = twin(tmp_path, script)
        assert run.counts() == (used, unused)
        # A pick longer than the read-ahead gathers the rest behind it.
        assert sum(map(len, run.used)) == used + behind


class TestThePickChanges:
    def test_set_penalty_drops_the_read_ahead(self, tmp_path):
        def script(run):
            sid = run.router.submit(BATCH)
            run.advance(sid, 32)
            run.advance(sid, 32)  # used
            run.router.set_penalty(sid, CursoredSsePenalty(BATCH.size, high_priority=[0]))
            run.poll()
            run.advance(sid, 32)  # re-ranked: the read-ahead is not the pick
            run.drain(sid, 32)  # the other 304 keys, all read ahead

        assert twin(tmp_path, script).counts() == (32 + KEYS - 96, 32)

    def test_retry_skipped_drops_the_read_ahead(self, tmp_path):
        first = ProgressiveSession(STORAGE, BATCH).upcoming(32)[0]
        dark = int(first[4])

        def script(run):
            sid = run.router.submit(BATCH)
            run.advance(sid, 32)  # the dark key is skipped: 33 picked
            assert run.router.retry_skipped(sid) == 1
            run.poll()
            run.advance(sid, 32)  # it leads the pick again: 33 unused
            run.advance(sid, 32)  # 32 of 33 used, 1 unused
            assert run.router.poll(sid).skipped_count == 1

        chaos = {"blackout_keys": [dark], "max_attempts": 2}
        # The read-ahead left by the last advance is dropped at close.
        assert twin(tmp_path, script, chaos=chaos).counts() == (32, 33 + 1 + 32)


class TestSeveralSessions:
    def test_round_robin_over_three_sessions_only_collects_after_the_first_fetch(
        self, tmp_path
    ):
        """Three sessions of one master list under three penalties: every
        key not done is a gain for each, so every pick is ``k`` keys of
        the merged order, and every fetch after the first is the
        read-ahead's prefix."""
        penalties = [
            SsePenalty(),
            CursoredSsePenalty(BATCH.size, high_priority=[0]),
            CursoredSsePenalty(BATCH.size, high_priority=[9]),
        ]

        def script(run):
            sids = [run.router.submit(BATCH, penalty) for penalty in penalties]
            run.collected = []
            while not run.router.poll(sids[0]).is_exact:
                for sid in sids:
                    used = run.counts()[0]
                    run.advance(sid, 32)
                    run.collected.append((len(run.fetched[-1]), run.counts()[0] - used))

        run = twin(tmp_path, script)
        # 400 keys in 32-key picks: the first fetch, then twelve collected
        # in full, the last the 16 keys left at the head.
        assert run.collected[:13] == [(32, 0)] + [(32, 32)] * 11 + [(16, 16)]
        assert len(run.fetched) == 13
        assert run.counts() == (KEYS - 32, 0)

    def test_a_k_change_uses_the_common_prefix(self, tmp_path):
        def script(run):
            sid, other = run.router.submit(BATCH), run.router.submit(BATCH)
            run.steps = []
            for target, k in ((sid, 32), (other, 64), (sid, 16), (other, 16), (sid, 48)):
                before = run.counts()
                run.advance(target, k)
                run.steps.append(tuple(now - was for now, was in zip(run.counts(), before)))

        # Every pick is k keys (one master list).  32: nothing ahead.  64:
        # the 32 read ahead used, 32 behind; 64 read ahead.  16: 16 used,
        # 48 unused; 64 read ahead (the other's last pick).  16: 16 used,
        # 48 unused; both last picks are 16.  48: the 16 used, 32 behind.
        assert twin(tmp_path, script).steps == [(0, 0), (32, 0), (16, 48), (16, 48), (16, 0)]


class TestOutstandingAtTheEnd:
    def test_after_the_last_cancel_the_next_fetch_drops_it(self, tmp_path):
        def script(run):
            sid = run.router.submit(BATCH)
            run.advance(sid, 32)
            run.advance(sid, 32)  # used; the next 32 are outstanding
            run.router.cancel(sid)
            assert run.router.ping(0) and run.router.ping(1)
            again = run.router.submit(BATCH)
            run.poll()
            run.drain(again, 64)  # its first fetch drops them; then read ahead

        assert twin(tmp_path, script).counts() == (32 + KEYS - 64, 32)

    def test_close_drops_it_and_every_worker_exits(self, tmp_path):
        def script(run):
            sid = run.router.submit(BATCH)
            run.advance(sid, 32)
            run.advance(sid, 32)
            run.shards = list(run.router._shards.values())

        run = twin(tmp_path, script)
        assert run.counts() == (32, 32)
        assert not any(shard._process.is_alive() for shard in run.shards)


class TestControlCommandsBetweenAdvances:
    def test_ping_and_telemetry_keep_the_read_ahead_for_its_fetch(self, tmp_path):
        def script(run):
            sid = run.router.submit(BATCH)
            run.advance(sid, 32)
            assert run.router.ping(0) and run.router.ping(1)
            run.router.pull_telemetry()
            run.advance(sid, 32)  # used
            pulled = run.router.pull_telemetry()
            run.advance(sid, 32)  # used
            run.shard_reads = sum(payload["retrievals"] for payload in pulled.values())

        run = twin(tmp_path, script)
        assert run.counts() == (64, 32)  # the last read-ahead dropped at close
        # The shards had read 64 keys for the scheduler's retrievals and
        # the 32 read ahead of the third advance.
        assert run.shard_reads == 96
        # A collect is a heartbeat, not a round trip: the first gather's
        # two replies, two pings and two telemetry pulls of two shards.
        samples = run.registry.histogram("repro_cluster_pipe_roundtrip_seconds", "", ("shard",))
        assert sum(samples.count(shard=str(i)) for i in range(2)) == 2 + 2 + 4


def stop(pid: int) -> None:
    """SIGSTOP ``pid`` and wait until it is stopped."""
    os.kill(pid, signal.SIGSTOP)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as stat:
            if stat.read().rpartition(")")[2].split()[0] == "T":
                return
        time.sleep(0.001)
    raise AssertionError(f"process {pid} did not stop")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
class TestShardKilledWithAReadAheadOutstanding:
    def test_the_next_advance_sheds_and_a_reintegration_heals_to_exact(self, tmp_path):
        penalty = SsePenalty()
        exact = BATCH.exact_dense(DATA)

        def script(run):
            sid = run.router.submit(BATCH)
            run.advance(sid, 32)
            owners = run.router.partitioner.shard_of(np.array(head(run, sid, 64))[32:])
            assert set(owners.tolist()) == {0, 1}, "the read-ahead must reach shard 1"
            victim = run.router._shards[1]
            if victim.is_process:
                # Stopped before the second advance sends its read-ahead,
                # so the worker dies with the request unread.
                read_ahead = run.router.store.read_ahead

                def stop_then_send(pick):
                    stop(victim._process.pid)
                    read_ahead(pick)

                run.router.store.read_ahead = stop_then_send
                run.advance(sid, 32)  # used
                run.router.store.read_ahead = read_ahead
                os.kill(victim._process.pid, signal.SIGKILL)
                victim._process.join(10.0)
            else:
                run.advance(sid, 32)
                victim.close()
            run.advance(sid, 32)  # collects: shard 1 is lost and shed
            assert run.router.dead_shards() == (1,)
            snap = run.router.poll(sid)
            assert snap.degraded
            assert snap.worst_case_bound * (1 + 1e-9) + 1e-9 >= penalty(snap.estimates - exact)
            assert run.router.supervisor.tick() == [(1, "respawned")]
            run.poll()
            run.remaining = run.router.poll(sid).remaining
            run.drain(sid, 32)
            snap = run.router.poll(sid)
            assert snap.is_exact and not snap.degraded
            np.testing.assert_allclose(snap.estimates, exact, rtol=1e-9, atol=1e-6)

        run = twin(
            tmp_path, script, supervise=True,
            restart_policy=RestartPolicy(base_delay=0.0, max_delay=0.0),
        )
        # The second advance's read-ahead, then every chunk after the
        # first one healed.  The third's came back without shard 1's
        # values: unused, its keys fetched one at a time.
        assert run.counts() == (32 + run.remaining - 32, 32)


class TestShardKilledAfterAnsweringAReadAhead:
    def test_the_next_send_sheds_it_and_the_other_pipe_stays_in_sync(self, tmp_path):
        penalty = SsePenalty()
        exact = BATCH.exact_dense(DATA)

        def script(run):
            sid = run.router.submit(BATCH)
            run.advance(sid, 32)
            order = np.array(head(run, sid, 96))
            for ahead in (order[32:64], order[64:]):
                owners = run.router.partitioner.shard_of(ahead)
                assert set(owners.tolist()) == {0, 1}, "each read-ahead must reach both"
            victim = run.router._shards[0]
            assert run.router.ping(1)  # receives the read-ahead's replies
            if victim.is_process:
                # Shard 0 dies idle, its reply already in the router.
                os.kill(victim._process.pid, signal.SIGKILL)
                victim._process.join(10.0)
            # Uses the read-ahead.  Sending the next one loses shard 0,
            # then sends shard 1 a slice whose reply must still be read.
            run.router.advance(sid, 32)
            if not victim.is_process:
                run.router.mark_lost(0)  # inline shards never read ahead
            assert run.router.dead_shards() == (0,)
            run.poll()
            run.drain(sid, 32)  # shard 1's keys to the end
            assert run.router.dead_shards() == (0,)
            assert run.router.ping(1)
            snap = run.router.poll(sid)
            assert snap.degraded and snap.skipped_count == snap.remaining > 0
            assert snap.worst_case_bound * (1 + 1e-9) + 1e-9 >= penalty(snap.estimates - exact)

        # The second advance used the first read-ahead; its own was sent
        # to shard 1 only, then dropped unused.
        assert twin(tmp_path, script).counts() == (32, 32)


class TestNoReadAhead:
    @pytest.mark.parametrize("how", ["deadline", "chunk_size"])
    def test_the_counter_stays_zero(self, tmp_path, how):
        options = {"chunk_size": 64} if how == "chunk_size" else {}

        def script(run):
            sid = run.router.submit(BATCH)
            for _ in range(4):
                if how == "deadline":
                    run.advance(sid, 32, deadline=60.0)
                else:
                    run.advance(sid, 32)

        assert twin(tmp_path, script, **options).counts() == (0, 0)
