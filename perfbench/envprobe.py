"""Print, as one JSON line, the numeric stack a seedwalk process sees:
Python, numpy and scipy versions and each loaded OpenBLAS with its thread
count. Run it with the environment the CLI calls get."""

import ctypes
import json
import platform

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)


def _loaded_blas() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return []
    return sorted(paths)


def _describe(path: str) -> dict:
    lib = ctypes.CDLL(path)
    info = {"library": path.rsplit("/", 1)[-1]}
    for suffix in ("", "64_"):
        for prefix in ("openblas", "scipy_openblas"):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info["config"] = config().decode()
                info["threads"] = threads()
                return info
    return info


print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": [_describe(p) for p in _loaded_blas()],
}))
