"""Process-tree memory sampling and clean-up, read from /proc."""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def descendants(root: int) -> list[int]:
    """Pids of every live process below ``root`` (Ray's raylet, GCS, workers)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_rss_mb(root: int) -> float:
    total = 0.0
    for pid in [root, *descendants(root)]:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE_MB
        except OSError:
            continue
    return total


class PeakRss:
    """Samples the resident memory of this process and its descendants."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def reap(pids: list[int], timeout: float = 20.0) -> list[int]:
    """Wait until every pid in ``pids`` has ended; kill what outlives ``timeout``.

    ``pids`` is a snapshot taken before shutdown: Ray workers are re-parented
    once their raylet exits, so they no longer show up as descendants.
    Returns the pids that had to be killed.
    """
    deadline = time.monotonic() + timeout
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.2)
    killed = [p for p in pids if _alive(p)]
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while any(map(_alive, killed)):
        time.sleep(0.05)
    while True:
        # collect exited direct children so none is left as a zombie
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                break
        except ChildProcessError:
            break
    return killed
