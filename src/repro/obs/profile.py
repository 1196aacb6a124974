"""Sampling-profiler hooks: collapsed call stacks with zero dependencies.

Off by default and entirely out of the hot path: when the profiler is
not running there is no instrumentation at all (no sys.settrace, no
decorators — sampling observes the interpreter from the outside).  Two
modes, selected at construction:

``"thread"`` (the default)
    A daemon thread wakes every ``interval`` seconds and snapshots every
    other thread's stack via ``sys._current_frames()``.  Works anywhere,
    sees all threads (the concurrent service's client threads render as
    separate stack roots), adds one short-lived GIL grab per sample.

``"signal"``
    ``SIGPROF`` via ``signal.setitimer(ITIMER_PROF, ...)`` — samples
    fire in *CPU* time, so idle waits cost nothing, but only the main
    thread is observed and the profiler must be started from the main
    thread (the stdlib restriction on signal handlers).

Samples aggregate into collapsed stacks — ``outer;inner;leaf count``
lines, the flamegraph.pl / speedscope input format — exported with
:meth:`SamplingProfiler.export`.  ``repro run --profile-out prof.txt``
wires this up end to end.
"""

from __future__ import annotations

import sys
import threading

MODES = ("thread", "signal")


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = code.co_filename.rsplit("/", 1)[-1]
    return f"{filename}:{code.co_name}"


def _collapse(frame) -> str:
    """Walk a frame to its outermost caller; returns ``a;b;c`` leaf-last."""
    parts: list[str] = []
    while frame is not None:
        parts.append(_frame_label(frame))
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Aggregate stack samples from a live run into collapsed stacks.

    Usable as a context manager::

        with SamplingProfiler(interval=0.002) as prof:
            run_workload()
        prof.export("prof.txt")
    """

    def __init__(self, interval: float = 0.005, mode: str = "thread") -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.interval = float(interval)
        self.mode = mode
        self._stacks: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._prev_handler = None
        self._running = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("profiler is already running")
        self._stop.clear()
        if self.mode == "signal":
            self._start_signal()
        else:
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        if self.mode == "signal":
            self._stop_signal()
        else:
            self._stop.set()
            if self._thread is not None:
                self._thread.join(timeout=max(1.0, 10 * self.interval))
                self._thread = None
        self._running = False

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- results -------------------------------------------------------

    @property
    def sample_count(self) -> int:
        with self._lock:
            return sum(self._stacks.values())

    def collapsed(self) -> dict[str, int]:
        """``{"outer;inner;leaf": samples}`` — a copy, safe to mutate."""
        with self._lock:
            return dict(self._stacks)

    def export(self, path) -> int:
        """Write collapsed-stack lines (flamegraph.pl format) to ``path``.

        Returns the total sample count written.
        """
        stacks = self.collapsed()
        with open(path, "w") as fh:
            for stack, count in sorted(stacks.items()):
                fh.write(f"{stack} {count}\n")
        return sum(stacks.values())

    def hotspots(self, top: int = 10) -> list[tuple[str, int]]:
        """The ``top`` leaf functions by inclusive sample count."""
        leaves: dict[str, int] = {}
        for stack, count in self.collapsed().items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        return sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    # -- thread mode ---------------------------------------------------

    def _sample_loop(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            with self._lock:
                for ident, frame in frames.items():
                    if ident == own:
                        continue
                    stack = _collapse(frame)
                    self._stacks[stack] = self._stacks.get(stack, 0) + 1

    # -- signal mode ---------------------------------------------------

    def _start_signal(self) -> None:
        import signal

        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("signal-mode profiling must start on the main thread")
        self._prev_handler = signal.signal(signal.SIGPROF, self._on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def _stop_signal(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._prev_handler is not None:
            signal.signal(signal.SIGPROF, self._prev_handler)
            self._prev_handler = None

    def _on_sigprof(self, signum, frame) -> None:
        if frame is None:
            return
        # Drop the handler frame itself; sample the interrupted code.
        stack = _collapse(frame)
        with self._lock:
            self._stacks[stack] = self._stacks.get(stack, 0) + 1


def profile_run(fn, interval: float = 0.005, mode: str = "thread"):
    """Run ``fn()`` under a profiler; returns ``(result, profiler)``."""
    profiler = SamplingProfiler(interval=interval, mode=mode)
    with profiler:
        result = fn()
    return result, profiler
