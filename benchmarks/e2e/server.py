"""Lifecycle of the ``python -m repro serve`` subprocess under test.

The server is started exactly as a user would start it — ``--port 0``,
shipped defaults, the workload's flags — in its own process group so
that teardown can always kill the shard workers, even when ``serve``
itself was killed.  Its stdout (the listening line) and stderr (the
access log) go to files in the run's work directory; ``TMPDIR`` points
there too, so the ``.pages`` file lives and dies with the run.

No process outlives the benchmark.  ``serve`` has children of its own
(the shard workers, and the ``multiprocessing`` resource tracker that the
``spawn`` start method brings), and so has the benchmark when a probe
spawns a shard.  A tracker only exits once it has seen its parent go, so
waiting for the parent is not enough: ``adopt_orphans`` makes the
benchmark the reaper of every descendant and ``reap_descendants`` kills
and waits for all of them.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.cluster.client import ClusterClient

#: glibc keeps what the server frees instead of returning it to the kernel.
#: The sandbox this benchmark is sized for is a microVM with free-page
#: reporting: memory a process gives back is dropped by the host and its
#: next touch costs ~13 us a page, so one and the same plan build took
#: 0.27 s or 5 s (README, "Allocator settings").  An allocator setting of
#: the deployment, not a repro flag; shard workers inherit it.
MALLOC_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}

_LISTENING = re.compile(r"listening on http://([\w.\-]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """``repro serve`` did not come up, or died, with its stderr tail."""


def adopt_orphans() -> None:
    """Become the *subreaper* of this process's descendants: one whose
    parent dies is handed to us, not to init, so ``reap_descendants`` can
    wait for it.  Call once, before anything is spawned."""
    pr_set_child_subreaper = 36  # <linux/prctl.h>
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _descendants(session: int | None = None) -> list[int]:
    """Pids whose chain of parents leads to this process, zombies too;
    with ``session``, only those of that session."""
    parent: dict[int, int] = {}
    sid: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:  # gone since the listing
                continue
            fields = stat.rsplit(")", 1)[1].split()  # state ppid pgrp session ...
            parent[int(entry)], sid[int(entry)] = int(fields[1]), int(fields[3])
    me = os.getpid()

    def is_ours(pid: int) -> bool:
        while pid in parent:
            pid = parent[pid]
            if pid == me:
                return True
        return False

    return [
        pid for pid in parent
        if is_ours(pid) and (session is None or sid[pid] == session)
    ]


def reap_descendants(session: int | None = None, timeout: float = 60.0) -> None:
    """SIGKILL every descendant (of ``session`` only, if given) and return
    when each has ended and been reaped."""
    deadline = time.perf_counter() + timeout
    while left := _descendants(session):
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except ProcessLookupError:
                pass
            except ChildProcessError:
                pass  # not ours yet: handed to us when its dying parent is reaped
        if time.perf_counter() > deadline:
            raise ServerError(f"processes {left} survived SIGKILL for {timeout}s")
        time.sleep(0.002)


class ServeProcess:
    """One ``repro serve`` and its shard workers.

    ``start()`` returns the set-up time: spawn until the first 200 from
    ``/healthz``.  Use as a context manager — ``stop()`` runs on every
    exit path and returns when no process of the server's session is
    left; the caller must have called ``adopt_orphans``.
    """

    def __init__(
        self,
        serve_args: list[str],
        workdir: Path,
        src_dir: Path,
        boot_timeout: float = 120.0,
    ) -> None:
        self.serve_args = list(serve_args)
        self.workdir = Path(workdir)
        self.src_dir = Path(src_dir)
        self.boot_timeout = float(boot_timeout)
        self.host = "127.0.0.1"
        self.port = 0
        self.pids: list[int] = []
        self._proc: subprocess.Popen | None = None
        self._stdout_path = self.workdir / "serve.stdout"
        self.stderr_path = self.workdir / "serve.stderr"

    # -- lifecycle ------------------------------------------------------

    def start(self) -> float:
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(self.workdir)
        env.update(MALLOC_ENV)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", *self.serve_args]
        t0 = time.perf_counter()
        with open(self._stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self._proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, env=env,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        deadline = t0 + self.boot_timeout
        self.port = self._wait_for_port(deadline)
        self._wait_healthy(deadline)
        setup_s = time.perf_counter() - t0
        with self.client() as client:
            shard_pids = [int(s["pid"]) for s in client.status()["shards"].values()]
        # Inline shards report the serve pid itself.
        self.pids = sorted({self._proc.pid, *shard_pids})
        return setup_s

    def _wait_for_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = _LISTENING.search(
                self._stdout_path.read_text(encoding="utf-8", errors="replace")
            )
            if match:
                self.host = match.group(1)
                return int(match.group(2))
            if self._proc.poll() is not None:
                raise ServerError(
                    f"repro serve exited with {self._proc.returncode} before "
                    f"listening\n{self.stderr_tail()}"
                )
            time.sleep(0.01)
        raise ServerError(f"no listening line in {self.boot_timeout}s\n{self.stderr_tail()}")

    def _wait_healthy(self, deadline: float) -> None:
        last = "no attempt"
        while time.perf_counter() < deadline:
            try:
                with self.client(timeout=5.0) as client:
                    body = client.healthz()
                if body.get("ok"):
                    return
                last = f"healthz says {body}"
            except OSError as exc:
                last = repr(exc)
            time.sleep(0.01)
        raise ServerError(f"/healthz not 200 in {self.boot_timeout}s ({last})\n{self.stderr_tail()}")

    def stop(self, grace: float = 15.0) -> None:
        """SIGTERM (graceful drain), wait up to ``grace`` seconds, then
        SIGKILL whatever is left of the process group — shard workers and
        resource tracker included — and wait until all of it has ended.
        ``grace=0`` skips the drain (a server that only booted)."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if grace > 0 and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(grace)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            reap_descendants(session=proc.pid)

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- access ---------------------------------------------------------

    def client(self, timeout: float = 120.0) -> ClusterClient:
        return ClusterClient(self.host, self.port, timeout=timeout)

    def stderr_tail(self, lines: int = 30) -> str:
        try:
            text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return "(no stderr captured)"
        return "\n".join(text.splitlines()[-lines:])

    # -- /proc accounting -----------------------------------------------

    def cpu_seconds(self) -> float:
        """user+sys CPU of serve and every shard pid so far."""
        total = 0
        for pid in self.pids:
            # Fields after the parenthesised comm: utime and stime are the
            # 14th and 15th of the line, i.e. 11 and 12 past the ")".
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def rss_peak_mib(self) -> float:
        """Sum of the pids' peak resident sets (``VmHWM``)."""
        total_kib = 0
        for pid in self.pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0
