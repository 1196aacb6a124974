"""Executable reference model of the progressive query service (the spec).

One coefficient at a time, sets and dicts only: the union of the live
sessions' pending keys is ordered by ``(-max importance, key)``; the
head is fetched once (or, blacked out, skipped for every session that
was waiting on it — skipped mass stays in the bound) and applied to
every live session that lacks it.  A fetched key stays cached while any
live session that ever had it pending — at submit or at a later
re-queue — is still live.  ``chunk_size`` appears nowhere: it must not
be observable.

A front that reads ahead (process shards, no chunk cap) sends, at the
end of every advance, the uncached keys among the first L of the merged
order, L the most keys any live session's last advance visited.  The
next gather — the first of an advance: the merged order up to the
target's ``k``-th gain, less the cache — uses the longest common prefix
of its keys and the read-ahead, unless a read-ahead key is dark (then
none), and drops the rest; the next read-ahead drops one no gather met.
"""

from __future__ import annotations

import numpy as np


class ModelSession:
    def __init__(self, plan, penalty, exact_coefficients):
        self.plan, self.keys = plan, set(plan.keys.tolist())
        self.exact = plan.exact_estimates(exact_coefficients)
        self.estimates = np.zeros(plan.batch_size)
        self.retrieved, self.skipped = set(), set()
        #: One ``(steps_taken, worst_case_bound)`` per applied coefficient.
        self.records = []
        self.rank(penalty)
        self.held = self.pending()

    def rank(self, penalty):
        self.penalty = penalty
        self.iota = dict(zip(self.plan.keys.tolist(), self.plan.importance(penalty).tolist()))

    def pending(self):
        return self.keys - self.retrieved - self.skipped

    def apply(self, key, coefficient):
        self.skipped.discard(key)
        self.retrieved.add(key)
        pos = int(np.searchsorted(self.plan.keys, key))
        column = self.plan.column(pos)
        for q in np.flatnonzero(column):
            self.estimates[q] += column[q] * coefficient

    def answers(self):
        return self.exact if self.retrieved == self.keys else self.estimates

    def bound(self, k_const):
        iota = max((self.iota[k] for k in self.keys - self.retrieved), default=0.0)
        return 0.0 if iota <= 0.0 else float(k_const**self.penalty.homogeneity * iota)


class Model:
    def __init__(self, storage, reads_ahead=False):
        self.storage, self.k_const = storage, storage.total_l1()
        self.sessions, self.cache, self.blackout = {}, {}, set()
        self.retrievals = self.deliveries = self.cache_deliveries = self.skipped_keys = 0
        #: The read-ahead outstanding (keys in fetch order), the keys used
        #: and unused, and the read-aheads dropped since the last look.
        self.reads_ahead, self.ahead = reads_ahead, None
        self.used = self.unused = 0
        self.dropped = []
        #: Keys each live session's last advance visited (served or skipped).
        self.visited = {}

    def order(self):
        """Keys pending anywhere, by (max pending importance desc, key)."""
        best = {}
        for s in self.sessions.values():
            for key in s.pending():
                best[key] = max(best.get(key, -np.inf), s.iota[key])
        return sorted(best, key=lambda key: (-best[key], key))

    def first_gather(self, sid, k):
        """The uncached keys of the pick of ``advance(sid, k)``: the merged
        order up to the key that brings the target its ``k``-th gain."""
        target = self.sessions[sid]
        lacks = target.keys - target.retrieved
        need = k if target.skipped else min(k, len(lacks))
        picked, gains = [], 0
        for key in self.order():
            if gains >= need:
                break
            picked.append(key)
            gains += key in lacks
        return [key for key in picked if key not in self.cache]

    def drop(self):
        if self.ahead:
            self.unused += len(self.ahead)
            self.dropped.append(self.ahead)
        self.ahead = None

    def submit(self, sid, plan, penalty):
        self.sessions[sid] = ModelSession(plan, penalty, self.storage.store.peek(plan.keys))

    def requeue(self, sid, penalty=None):
        """``set_penalty`` (with a penalty) or ``retry_skipped`` (without)."""
        s = self.sessions[sid]
        if penalty is not None:
            s.rank(penalty)
        elif not s.skipped:
            return
        else:
            s.skipped.clear()
        s.held |= s.pending()

    def cancel(self, sid):
        gone, live = self.sessions.pop(sid), self.sessions.values()
        self.visited.pop(sid, None)
        for key in gone.held & set(self.cache):
            if not any(key in s.held for s in live):
                del self.cache[key]

    def advance(self, sid, k):
        target, live = self.sessions[sid], self.sessions.values()
        if self.ahead and (gather := self.first_gather(sid, k)):
            used = 0
            if not self.blackout & set(self.ahead):  # a failed read-ahead supplies nothing
                while used < min(len(gather), len(self.ahead)) and gather[used] == self.ahead[used]:
                    used += 1
            self.used += used
            self.ahead = self.ahead[used:]
            self.drop()
        start, self.visited[sid] = len(target.retrieved), 0
        while len(target.retrieved) - start < k and target.retrieved != target.keys:
            heads = [(-s.iota[key], key) for s in live for key in s.pending()]
            if not heads:
                break
            key = min(heads)[1]
            self.visited[sid] += 1
            hit = key in self.cache
            if not hit and key in self.blackout:
                for s in live:
                    if key in s.pending():
                        s.skipped.add(key)
                self.skipped_keys += 1
                continue
            if not hit:
                self.cache[key] = float(self.storage.store.peek(np.array([key]))[0])
                self.retrievals += 1
            for s in live:
                if key in s.keys - s.retrieved:
                    s.apply(key, self.cache[key])
                    s.records.append((len(s.retrieved), s.bound(self.k_const)))
                    self.deliveries += 1
                    self.cache_deliveries += hit
        if self.reads_ahead:
            span = max(self.visited.values())
            self.drop()
            self.ahead = [key for key in self.order()[:span] if key not in self.cache] or None
        return len(target.retrieved) - start
