"""The memory guard: a run or an audit whose estimated footprint exceeds
the memory this process may use is refused before anything is allocated,
since it would end in an out-of-memory kill, not in an error.

The memory it may use is the smallest of physical memory and the cgroup v2
and v1 memory limits of the process's cgroups and their ancestors; the
cgroup files are only read.
"""

from __future__ import annotations

import math
import os


#: Dense ``n x n`` float64 arrays a run holds at its peak, and bytes per
#: trace row (the record, the per-state norms and the analysis; ``trace.csv``
#: is written in blocks).  Peak RSS (``ru_maxrss``) of one 3-step job in a
#: fresh process above a warm-up run and audit at n = 5, at n = 600 and 1200:
#: tree run 9.2 and 7.8-8.7 arrays (one is ``dynamics._NormWorker``'s
#: difference buffer), tree audit 9.4 and 8.7 (with ``import scipy.sparse``
#: in the warm-up, which no run makes now); complete run (alpha = 0.01) 9.1
#: and 8.6, complete audit 6.3 and 6.1 (17.4-17.8 and 13.9-14.2 with edges
#: as a tuple of pairs).  Per trace row, the same measure at n = 5 and 20
#: over 200,000 steps, with ``game.json`` and ``trace.csv`` written by the
#: forked child and in process: 109-114 bytes at auto alpha, where the
#: distance stays far above the tail fit's floor and ``np.polyfit``'s copies
#: of half the trace's rows come on top of its 72-byte records; 75-79 bytes
#: at alpha = 0.05, whose tail is below that floor; an audit 75-77 bytes.
#: The count is 12 % above the largest.
_DENSE_ARRAYS = 10
_TRACE_ROW_BYTES = 128


def _physical_memory(root="/"):
    """Bytes of memory this process may use, or None where nothing says: the
    smaller of physical memory and the memory limits of the process's cgroups
    and their ancestors (:func:`_cgroup_memory_limits`).  The cgroup files are
    read under ``root``."""
    limits = _cgroup_memory_limits(root)
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    return min((size for size in limits if size > 0), default=None)


#: Where each cgroup version keeps a memory limit: the controllers field of
#: its ``/proc/self/cgroup`` line, the hierarchy's mount and the file.
_CGROUP_MEMORY_FILES = (
    ("", "sys/fs/cgroup", "memory.max"),
    ("memory", "sys/fs/cgroup/memory", "memory.limit_in_bytes"),
)

#: A cgroup memory limit of at least this is none: v2 writes no limit as ``max``,
#: v1 as 2**63 rounded down to a page (9223372036854771712 with 4 KiB pages).
_NO_CGROUP_LIMIT = 2**62


def _cgroup_memory_limits(root) -> list:
    """The memory limits set on this process's cgroups and on each of their
    ancestors: the cgroup v2 ``memory.max`` (the ``0::`` line of
    ``/proc/self/cgroup``) and the cgroup v1 ``memory.limit_in_bytes`` (the
    line of the ``memory`` controller)."""
    try:
        with open(os.path.join(root, "proc/self/cgroup"), encoding="utf-8") as f:
            lines = [line.rstrip("\n").split(":", 2) for line in f]
    except OSError:
        return []
    limits = []
    for controllers, mount, name in _CGROUP_MEMORY_FILES:
        path = next((line[2] for line in lines if line[1:2] == [controllers]), None)
        if path is None:
            continue
        parts = [part for part in path.split("/") if part]
        if ".." in parts:  # a cgroup outside this namespace's view
            continue
        for depth in range(len(parts) + 1):
            try:
                with open(
                    os.path.join(root, mount, *parts[:depth], name), encoding="utf-8"
                ) as f:
                    limit = int(f.read())
            except (OSError, ValueError):  # absent, or "max"
                continue
            if limit < _NO_CGROUP_LIMIT:
                limits.append(limit)
    return limits


def _check_footprint(n: int, max_iters: int, arrays: int = _DENSE_ARRAYS) -> None:
    """Refuse, before anything is allocated, a run of ``n`` players and
    ``max_iters`` steps whose estimated footprint, ``arrays`` dense ``n x n``
    float64 arrays and the trace, exceeds the memory it may use
    (:func:`_physical_memory`): it would end in an out-of-memory kill, not
    in an error.  The trace counts ``max_iters + 1`` rows whatever the
    run's ``tol``: a distance ``tol`` may never be reached."""
    limit = _physical_memory()
    need = arrays * 8 * n * n + _TRACE_ROW_BYTES * (max_iters + 1)
    if limit is not None and need > limit:
        gib = need / 2**30 if need < 2**1000 else math.inf  # an int beyond floats
        raise ValueError(
            f"n={n} and max_iters={max_iters} need an estimated {gib:.3g} GiB, "
            f"more than the {limit / 2**30:.3g} GiB of physical memory this process may use"
        )
