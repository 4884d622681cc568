"""One map over independent tasks, here or in a pool of worker processes."""

import ctypes
from collections import deque
from collections.abc import Iterable
from functools import partial
from itertools import chain, islice

_bound = None  # in a pool worker: the mapped function with its shared arguments bound


def pool_map(fn, tasks: Iterable[tuple], jobs: int, shared: tuple = ()):
    """Yield fn(*shared, *task) for every task, in task order, each once it is ready.

    Runs here, taking one task at a time, when jobs <= 1 or there is at most
    one task. Otherwise every worker gets `shared` once, through the pool
    initializer (so any start method works), and takes one task at a time,
    since task costs are uneven; at most 2 * jobs tasks are taken from
    `tasks` and not yet yielded, so a lazy iterable is never built whole.
    """
    tasks = iter(tasks)
    ahead = list(islice(tasks, 2 * jobs)) if jobs > 1 else []
    if len(ahead) <= 1:
        yield from (fn(*shared, *task) for task in chain(ahead, tasks))
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(min(jobs, len(ahead)), initializer=_bind, initargs=(fn, shared))
    try:
        pending = deque(pool.submit(_call, task) for task in ahead)
        del ahead
        while pending:
            done = pending.popleft()
            pending.extend(pool.submit(_call, task) for task in islice(tasks, 1))
            yield done.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _bind(fn, shared: tuple) -> None:
    global _bound
    _bound = partial(fn, *shared)
    _keep_freed_memory()


def _keep_freed_memory() -> None:
    """On glibc, keep what this worker frees for its next task instead of returning it
    to the kernel and faulting it in again (about 2 us a page): blocks below 32 MiB, the
    largest mmap threshold glibc takes, come from the heap, trimmed only beyond 64 MiB.
    Workers only: the parent's peak is the run's peak RSS."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt (not glibc), or CDLL(None) unsupported (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _call(task: tuple):
    return _bound(*task)
