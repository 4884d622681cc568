import platform

import numpy as np
import pytest

from seedwalk.pool import pool_map


def _square(x):
    return x * x


def test_pool_map_takes_tasks_as_it_goes_and_yields_them_in_order():
    taken = []

    def tasks():
        for i in range(24):
            taken.append(i)
            yield (i,)

    for jobs in (1, 2):
        taken.clear()
        for i, y in enumerate(pool_map(_square, tasks(), jobs)):
            assert y == i * i
            # the yielded task, and at most 2 * jobs taken ahead of it
            assert len(taken) <= i + 1 + 2 * jobs
        assert taken == list(range(24))


def _faults_over_last(rounds: int) -> int:
    """Minor page faults of `rounds` rounds of four 1 MiB arrays, each written and
    freed, after as many rounds of warm-up."""
    import resource

    def allocate_and_free():
        arrays = [np.ones(1 << 17) for _ in range(4)]
        del arrays

    for _ in range(rounds):
        allocate_and_free()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        allocate_and_free()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_pool_workers_reuse_the_memory_they_free():
    # glibc's default thresholds give each freed MiB back to the kernel and fault
    # it in again on the next round: about 1,000 faults a round, 9,920 over ten
    faults = list(pool_map(_faults_over_last, [(10,), (10,)], jobs=2))
    assert max(faults) < 100
