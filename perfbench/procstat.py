"""CPU and memory of every process in the benchmark's session, from /proc.

The session is the benchmark process and all its descendants: the Ray head
processes ``ray.init`` starts and the workers the raylet spawns under them.
``psutil`` is not available, so the sampler reads ``/proc/<pid>/stat`` and
``/proc/<pid>/status`` directly.

A process that exits between two samples keeps the CPU its last sample saw,
so the undercount is at most one sampling interval of that process.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")
SAMPLE_INTERVAL_S = 0.05


def _stat(pid: int):
    """(ppid, starttime, cpu seconds) of one process, or None if it is gone
    or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name is parenthesised and may itself hold spaces
    fields = raw[raw.rindex(b")") + 2:].split()
    if fields[0] == b"Z":
        return None
    return (int(fields[1]), int(fields[19]),
            (int(fields[11]) + int(fields[12])) / _TICK)


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def session_pids(root: int) -> dict[int, tuple[int, float]]:
    """pid -> (starttime, cpu seconds) for ``root`` and all its descendants."""
    info = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                info[int(name)] = st
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in info.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in info:
            out[pid] = info[pid][1:]
            todo.extend(children.get(pid, ()))
    return out


class SessionSampler:
    """Samples the session's summed CPU and RSS on a background thread.

    ``window()`` brackets one timed region: CPU is the sum over processes
    alive at any sample of (last CPU seen − CPU at the start, or 0 for a
    process born inside the window); RSS is the peak of the summed VmRSS.
    """

    def __init__(self):
        self.root = os.getpid()
        self._lock = threading.Lock()
        self._last: dict[tuple[int, int], float] = {}
        self._peak_rss = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        procs = session_pids(self.root)
        rss = sum(_rss_bytes(pid) for pid in procs)
        with self._lock:
            for pid, (start, cpu) in procs.items():
                self._last[(pid, start)] = cpu
            self._peak_rss = max(self._peak_rss, rss)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def window(self) -> "_Window":
        return _Window(self)


class _Window:
    def __init__(self, sampler: SessionSampler):
        self.s = sampler
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0

    def __enter__(self):
        self.s._sample()
        with self.s._lock:
            self._start = dict(self.s._last)
            self.s._peak_rss = 0
        return self

    def __exit__(self, *exc):
        self.s._sample()
        with self.s._lock:
            self.cpu_s = sum(cpu - self._start.get(key, 0.0)
                             for key, cpu in self.s._last.items())
            self.peak_rss_mb = self.s._peak_rss / 2**20


def reap(pids: dict[int, tuple[int, float]], timeout: float = 30.0) -> None:
    """Wait until every listed process has exited; SIGKILL stragglers.

    Ray workers are reparented when their raylet exits, so they must be
    tracked by pid and start time rather than as descendants."""
    def alive():
        out = []
        for pid, (start, _) in pids.items():
            st = _stat(pid)
            if st is not None and st[1] == start and pid != os.getpid():
                out.append(pid)
        return out

    deadline = time.monotonic() + timeout
    left = alive()
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = alive()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
