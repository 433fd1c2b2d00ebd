"""Outside-in memory readings from ``/proc``.

The server's own counters see only the process they run in; shard workers
are separate processes, so their memory is read here, from the outside, by
pid.
"""

from __future__ import annotations

import os
from typing import Dict, List

#: ``/proc/<pid>/status`` fields read, all reported in MB
FIELDS = ("VmHWM", "VmRSS", "RssAnon", "RssFile")


def read_status(pid: int) -> Dict[str, float]:
    """The :data:`FIELDS` of one process in MB; empty once it has exited."""
    values: Dict[str, float] = {}
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if name in FIELDS:
                    values[name] = int(rest.split()[0]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        return {}
    return values


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except (FileNotFoundError, ProcessLookupError):
        return ""


def children(pid: int) -> List[int]:
    """Direct children of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except (FileNotFoundError, ProcessLookupError):
            continue
        # the command name may hold spaces and parentheses; fields after
        # the last ')' are fixed: state, then the parent pid
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry))
    return found


def worker_pids(pid: int) -> List[int]:
    """Children of ``pid`` started by multiprocessing's spawn method (the
    shard workers; the resource tracker is left out)."""
    return [child for child in children(pid)
            if "spawn_main" in _cmdline(child)]


def alive(pid: int) -> bool:
    """Running (a zombie, which only waits for its parent to reap it,
    counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"
