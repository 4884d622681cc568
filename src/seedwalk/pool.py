"""One map over independent tasks, here or in a pool of worker processes."""

from functools import partial

_bound = None  # in a pool worker: the mapped function with its shared arguments bound


def pool_map(fn, tasks: list[tuple], jobs: int, shared: tuple = ()):
    """Yield fn(*shared, *task) for every task, in task order, each once it is ready.

    Runs here when jobs <= 1 or there is at most one task. Otherwise every
    worker gets `shared` once, through the pool initializer (so any start
    method works), and takes one task at a time, since task costs are uneven.
    """
    if jobs <= 1 or len(tasks) <= 1:
        yield from (fn(*shared, *task) for task in tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(jobs, len(tasks)), initializer=_bind, initargs=(fn, shared)) as pool:
        yield from pool.map(_call, tasks, chunksize=1)


def _bind(fn, shared: tuple) -> None:
    global _bound
    _bound = partial(fn, *shared)


def _call(task: tuple):
    return _bound(*task)
