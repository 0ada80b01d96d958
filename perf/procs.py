"""Leaving no process behind.

A run starts processes: the pool's workers, the calibration sampler and,
with the first ``spawn``, multiprocessing's resource tracker — which only
exits once its pipe closes, that is after this process has died, so it
outlives the command unless it is stopped by hand. :func:`no_stragglers`
wraps a run and, on every way out of it, stops and waits for whatever is
still there, orphaned grandchildren included.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import os
import signal
import sys
import time
from multiprocessing import resource_tracker

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Have descendants whose parent dies handed to this process instead
    of to init, so that they too can be found and waited for."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False  # not Linux: direct children are still dealt with


def children() -> dict[int, str]:
    """pid -> state letter (``Z`` = ended, not yet waited for) of every
    child of this process, read from ``/proc``."""
    me = os.getpid()
    found: dict[int, str] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended between listdir and open
        if int(fields[1]) == me:
            found[int(name)] = fields[0]
    return found


def _wait_for(pids, deadline: float) -> set[int]:
    """Reap those of ``pids`` that end before ``deadline``; the rest."""
    left = set(pids)
    while left:
        for pid in list(left):
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    left.discard(pid)
            except ChildProcessError:
                left.discard(pid)  # someone else waited for it
        if not left or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    return left


def stop_everything(grace_s: float = 5.0) -> list[int]:
    """Stop every child and wait until each has ended. Returns the pids
    that were still running, i.e. that the program should have stopped."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    running: list[int] = []
    # The tracker goes last, and by having its pipe closed: it ignores
    # SIGTERM, and it unlinks what the others leaked.
    for signum in (signal.SIGTERM, signal.SIGKILL):
        others = {p: s for p, s in children().items() if p != tracker_pid}
        for pid, state in others.items():
            if state != "Z":
                running.append(pid)
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signum)
        _wait_for(others, time.monotonic() + grace_s)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        gc.collect()  # locks still alive here would be unlinked under them
        stop()  # closes the pipe and waits; a no-op if it never started
    rest = children()
    for pid in rest:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    _wait_for(rest, time.monotonic() + grace_s)
    return sorted(set(running))


@contextlib.contextmanager
def no_stragglers():
    """Run the body; whether it returns, raises or is told to terminate,
    no process it started is left when this returns."""
    adopt_orphans()

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        running = stop_everything()
        signal.signal(signal.SIGTERM, previous)
        if running:
            print(f"perf: stopped {len(running)} process(es) the run left "
                  f"running: {running}", file=sys.stderr)
