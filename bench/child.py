"""One child process of the benchmark.

Usage: ``python child.py '<json spec>'``.  The spec holds ``src`` (the
directory ``cstarpow`` must be imported from) and either ``"probe": true``
(import only, and report the numeric environment) or ``argv`` (one
``cli.main`` argument list), with an optional ``spans`` path that turns on
the span recorder for this job.

The child prints one JSON record as its last line of standard output:
``imported`` (its ``time.monotonic()`` right after ``import cstarpow.cli``
returns, which the parent compares with its own clock at spawn), and for a
job ``code``, ``main_s`` (time inside ``cli.main``), ``cpu_s`` (its CPU
time), ``maxrss_kb`` (this process's own high-water RSS), ``stdout`` (the
captured payload) and ``kernel_s`` (the summed time of a fixed host-speed
kernel run just before and just after the job, see ``host_kernel_s``).
"""

import sys
import time

import cstarpow.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _blas_info() -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": None, "blas_threads": None}
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is None or threads is None:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info["openblas"] = config().decode()
                info["blas_threads"] = threads()
                return info
    return info


def host_kernel_s() -> float:
    """Time of a fixed loop of interpreter work and tiny numpy products.

    It does not touch ``cstarpow``, so it reads how fast the host runs this
    kind of code right now, which the runner uses to take the host's load
    out of the job times.
    """
    import numpy as np

    a = np.arange(64.0).reshape(8, 8)
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += float((a @ a.T)[i % 8, 3]) + sum(range(20))
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    where = os.path.realpath(cstarpow.cli.__file__)
    if not where.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"cstarpow was imported from {where}, not from {spec['src']}",
              file=sys.stderr)
        return 2
    record = {"imported": IMPORTED}
    if spec.get("probe"):
        record.update(_blas_info())
        print(json.dumps(record))
        return 0

    recorder = None
    if spec.get("spans"):
        from spans import SpanRecorder
        recorder = SpanRecorder()
        installed = recorder.install()
    # Bracket the job, so the kernel reads the host's speed around it.
    kernel_before = host_kernel_s()
    out = io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = cstarpow.cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    main_s = time.perf_counter() - start
    record.update(code=code, main_s=main_s,
                  cpu_s=time.process_time() - cpu_start,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  stdout=out.getvalue(),
                  kernel_s=kernel_before + host_kernel_s())
    if recorder is not None:
        recorder.dump(spec["spans"], main_s, installed)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
