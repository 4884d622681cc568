"""One map over independent tasks, here or in a pool of worker processes.

On glibc the two roles keep their freed memory differently. The parent, whose
peak is the run's peak RSS, hands its freed heap back to the kernel right
before it starts a pool, so the heap of its parse and assembly neither stays
resident beside what the pool returns nor is inherited by forked workers. Each
worker keeps what it frees, so its next task reuses that memory instead of
faulting it in again. A map that runs here changes neither.

An open file reaches the workers as a SharedFd among the shared arguments:
forked workers inherit its descriptor, and the others (spawn, forkserver) are
handed a duplicate of it as they start. A pooled map takes AHEAD tasks per
worker ahead of the one it yields, which bounds any ring of buffers a caller keeps.
"""

import ctypes
from collections import deque
from collections.abc import Iterable
from functools import partial
from itertools import chain, islice

AHEAD = 2  # tasks per worker taken ahead: one running, one queued for when it ends
_bound = None  # in a pool worker: the mapped function with its shared arguments bound


def pool_map(fn, tasks: Iterable[tuple], jobs: int, shared: tuple = ()):
    """Yield fn(*shared, *task) for every task, in task order, each once it is ready.

    Runs here, taking one task at a time, when jobs <= 1 or there is at most
    one task. Otherwise every worker gets `shared` once, through the pool
    initializer (so any start method works, with files as SharedFd), and takes
    one task at a time, since task costs are uneven. At most AHEAD * jobs tasks
    are taken from `tasks` and not yet yielded, so a lazy iterable is never built
    whole, and while the caller holds the result of task k, no task after
    k + AHEAD * jobs has been taken.
    """
    tasks = iter(tasks)
    ahead = list(islice(tasks, AHEAD * jobs)) if jobs > 1 else []
    if len(ahead) <= 1:
        yield from (fn(*shared, *task) for task in chain(ahead, tasks))
        return
    _hand_back_freed_memory()  # first: what the import allocates would sit on top of the freed heap
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


class SharedFd(int):
    """A file descriptor for pool workers, read and written with positional I/O
    (os.pread, os.pwrite), which leaves alone the offset that forked processes
    share. Forked workers inherit it as it is; pickled for a worker that starts a
    fresh interpreter (spawn, forkserver), it is handed over as a duplicate."""

    def __reduce__(self):
        from multiprocessing.reduction import DupFd

        return _adopt, (DupFd(int(self)),)


def _adopt(dup) -> SharedFd:
    return SharedFd(dup.detach())


def _bind(fn, shared: tuple) -> None:
    global _bound
    _bound = partial(fn, *shared)
    _keep_freed_memory()


def _glibc(name: str):
    """glibc's function `name`, or None where the C library has none (not glibc) or
    CDLL(None) is unsupported (Windows)."""
    try:
        return getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):
        return None


def _keep_freed_memory() -> None:
    """On glibc, keep what this worker frees for its next task instead of returning it
    to the kernel and faulting it in again (about 2 us a page): blocks below 32 MiB, the
    largest mmap threshold glibc takes, come from the heap, trimmed only beyond 64 MiB.
    Workers only: the parent's peak is the run's peak RSS."""
    mallopt = _glibc("mallopt")
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _hand_back_freed_memory() -> None:
    """On glibc, return every free page of this process's heap to the kernel, the free
    chunks below live blocks included, which glibc's own trim at free() never does.
    Parent only, before it starts a pool: what the parse and assembly freed would
    otherwise stay resident until the run's peak (about 6 MB of detect's)."""
    malloc_trim = _glibc("malloc_trim")
    if malloc_trim is None:
        return
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    malloc_trim(0)


def _call(task: tuple):
    return _bound(*task)
