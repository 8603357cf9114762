"""Host record and memory-bandwidth calibration.

    python host.py STATE_BYTES REPS

prints one JSON object: the host record plus ``np.copyto`` bandwidth on an
array of the workload's state size and on one of at least 4x the last-level
cache.  Bandwidth counts one read and one write of the array, as
``simulator.bytes_moved_computed`` does for one full-state pass.
"""
import ctypes
import glob
import json
import os
import sys
import time

import numpy as np

MIB = 1 << 20


def llc_bytes() -> int:
    """Size of the highest cache level cpu0 reports in /sys, 0 if unknown."""
    best = (0, 0)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1]


def _openblas():
    """(version string, thread count) of the OpenBLAS bundled with numpy."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_threads.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    return get_config().decode(), get_threads()
    return "unknown", -1


def host_record() -> dict:
    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "llc_mib": llc_bytes() / MIB,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "openblas": config,
        "openblas_threads": threads,
        "env_threads": {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def copy_gbps(nbytes: int, reps: int) -> float:
    """Median np.copyto bandwidth (read + write) over reps copies, warm."""
    src = np.ones(nbytes // 16, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 2 * src.nbytes / times[len(times) // 2] / 1e9


def large_bytes(llc: int) -> int:
    """The smallest power of two at least 4x the LLC (512 MiB for 105 MiB)."""
    size = 64 * MIB
    while size < 4 * max(llc, 16 * MIB):
        size *= 2
    return size


def main() -> int:
    state_bytes, reps = int(sys.argv[1]), int(sys.argv[2])
    record = host_record()
    large = large_bytes(llc_bytes())
    record["large_mib"] = large / MIB
    record["state_mib"] = state_bytes / MIB
    record["copy_gbps_state"] = copy_gbps(state_bytes, 8 * reps) if state_bytes else 0.0
    record["copy_gbps_large"] = copy_gbps(large, reps)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
