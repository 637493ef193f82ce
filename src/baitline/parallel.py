"""Fork-join over the CPUs this process may run on.

The calling process runs part 0 itself; every other part runs in an
``os.fork()`` child that pickles its result, or its exception, back through a
pipe.  Callers split only work whose parts are independent, so the joined
result is the serial one at any CPU count, and only parts larger than a fork
costs (``split``).  A child ends with ``os._exit`` and is reaped before
``fork_join`` returns or raises.

baitline starts no thread of its own, and OpenBLAS stops its thread pool
before a fork (a ``pthread_atfork`` handler), so a child inherits no lock that
another thread held.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def cpu_count() -> int:
    """The CPUs in this process's affinity mask; 1 where that or ``os.fork`` is unavailable."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def split(weights: Sequence[float], break_even: float) -> list[slice]:
    """Contiguous, non-empty slices of ``weights``, one per part: as many parts
    as there are CPUs, items or multiples of ``break_even`` in the total weight,
    whichever is fewest, and at least one.  Each cut falls on the item boundary
    nearest an even share of the total."""
    if not len(weights):
        return [slice(0, 0)]
    ends = np.concatenate([[0.0], np.cumsum(weights, dtype=np.float64)])  # boundary weights
    n_parts = max(1, min(cpu_count(), len(weights), int(ends[-1] // break_even)))
    targets = ends[-1] * np.arange(1, n_parts) / n_parts
    above = np.clip(np.searchsorted(ends, targets), 1, len(weights))
    cuts = np.where(ends[above] - targets <= targets - ends[above - 1], above, above - 1)
    bounds = np.unique([0, *cuts.tolist(), len(weights)]).tolist()
    return [slice(start, end) for start, end in zip(bounds, bounds[1:])]


def fork_join(fn: Callable[[T], R], work: Sequence[T]) -> list[R]:
    """``[fn(part) for part in work]``, part 0 run here and each other part in
    a forked child.  The first exception in part order is raised; a child that
    ends without sending its outcome raises ChildProcessError naming its part.
    Parts whose pipe or fork fails (no process or file descriptor left) run
    here, after the children's parts."""
    children = []  # (pid, read end of its pipe)
    try:
        for part in work[1:]:
            try:
                read, write = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(fn, part, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [fn(work[0])]
        for index, (_, pipe) in enumerate(children, 1):
            payload = pipe.read()
            if not payload:
                raise ChildProcessError(f"part {index} of {len(work)} ended without a result")
            done, value = pickle.loads(payload)  # bytes our own child wrote
            if not done:
                raise value
            results.append(value)
        return results + [fn(part) for part in work[1 + len(children):]]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still this child
            os.waitpid(pid, 0)


def _child(fn: Callable[[T], R], part: T, write: int) -> None:
    """Run one part in a forked child, send its outcome and exit; never returns."""
    status = 1
    try:
        try:
            outcome = (True, fn(part))
        except Exception as exc:  # sent to the parent, which raises it
            outcome = (False, exc)
        payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
