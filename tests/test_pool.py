import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seedwalk import pool
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


# In a fresh interpreter, so the heap holds only what this script puts there: the
# freed 4 MiB array raises glibc's mmap threshold, so the 40 MiB that follow come
# from the heap, and the live 256 KiB block above them keeps glibc from trimming
# them at free(). VmRSS, in MiB, around each kind of map.
_FREED_HEAP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from seedwalk.pool import pool_map

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024

big = np.ones(1 << 19)
del big
arrays = [np.ones(1 << 17) for _ in range(40)]
live = np.ones(1 << 15)
del arrays
seen = [rss()]
for tasks, jobs in (([(-1,), (-2,)], 1), ([(-1,)], 2), ([(-1,), (-2,)], 2)):
    list(pool_map(abs, tasks, jobs))
    seen.append(rss())
print(json.dumps(seen))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="trims glibc's heap")
def test_pool_parent_hands_back_its_freed_heap_before_starting_workers():
    src = str(Path(pool.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FREED_HEAP_PROBE, src], check=True, capture_output=True,
                         text=True, timeout=120).stdout
    before, serial, one_task, pooled = json.loads(out)
    # maps that start no worker run here and trim nothing
    assert abs(serial - before) < 2 and abs(one_task - before) < 2
    assert pooled < before - 30


def test_trim_is_quiet_without_malloc_trim(monkeypatch):
    class NoMallocTrim:  # a C library that is not glibc
        def __init__(self, name):
            pass

    monkeypatch.setattr(pool.ctypes, "CDLL", NoMallocTrim)
    pool._hand_back_freed_memory()
