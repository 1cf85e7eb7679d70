"""Running program processes and measuring them from outside.

Wall time comes from the benchmark's clock, CPU from
``RUSAGE_CHILDREN`` (the program's whole reaped process tree, pool
workers included), and memory from sampling the summed RSS of every
process in the tree under ``/proc``.
"""

from __future__ import annotations

import os
import resource
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: RSS sampling period of :class:`TreeSampler`.
SAMPLE_S = 0.1

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, rss bytes, cpu seconds) for every visible process."""
    table = {}
    ticks = os.sysconf("SC_CLK_TCK")
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                raw = handle.read()
        except OSError:
            continue
        fields = raw[raw.rfind(b")") + 2:].split()
        table[int(entry)] = (
            int(fields[1]),
            int(fields[21]) * _PAGE,
            (int(fields[11]) + int(fields[12])) / ticks,
        )
    return table


def tree(root: int, table: Optional[Dict[int, tuple]] = None) -> List[int]:
    """``root`` and every live descendant of it."""
    table = table if table is not None else _proc_table()
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _rss, _cpu) in table.items():
        children.setdefault(ppid, []).append(pid)
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        if pid in table:
            found.append(pid)
            frontier.extend(children.get(pid, ()))
    return found


def tree_rss(root: int) -> int:
    table = _proc_table()
    return sum(table[pid][1] for pid in tree(root, table))


def tree_cpu(root: int) -> float:
    """User plus system CPU seconds of the live processes under ``root``."""
    table = _proc_table()
    return sum(table[pid][2] for pid in tree(root, table))


class TreeSampler:
    """Tracks the peak summed RSS of one process tree while it runs."""

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss(self.root))
            self._stop.wait(SAMPLE_S)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return self.peak


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss: int
    returncode: int
    stderr: str


def run(cmd: Sequence[str], env: Dict[str, str], cwd: str, timeout: float) -> Run:
    """Run one program process to completion, measured from outside."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    process = subprocess.Popen(
        list(cmd), env=env, cwd=cwd, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    sampler = TreeSampler(process.pid)
    try:
        _out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_tree(process)
        _out, err = process.communicate()
        err = (err or "") + f"\n(killed after {timeout}s)"
    wall = time.perf_counter() - started
    peak = sampler.stop()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Run(wall, cpu, peak, process.returncode, err or "")


def kill_tree(process: subprocess.Popen) -> None:
    """Kill ``process`` and every descendant, then reap ``process``."""
    for pid in reversed(tree(process.pid)):
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    process.wait()
