"""One workload in one process: python3 perfbench/child.py --workload NAME
--seed N --seconds S --trace 0|1 --out RESULT.json --workdir DIR.

Imports gmmadapt from the checkout's src/ (never an installed copy),
installs the recorder, runs the workload and writes the calls, samples,
peak RSS and environment as JSON to --out; a traced run also writes every
span next to it, as WORKLOAD-seedN-spans.json. run.py starts it; it is not
meant to be run by hand.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gmmadapt

    if Path(gmmadapt.__file__).resolve().parent != src / "gmmadapt":
        raise ImportError(f"gmmadapt loaded from {gmmadapt.__file__}, not from {src}")
    return gmmadapt


def blas_info() -> dict:
    """Version and effective thread count of numpy's and scipy's OpenBLAS."""
    out = {}
    for pkg, pattern, suffix in (("numpy", "libscipy_openblas64_*.so", "64_"),
                                 ("scipy", "libscipy_openblas-*.so", "")):
        mod = importlib.import_module(pkg)
        libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                                      pkg + ".libs", pattern))
        if not libs:
            out[pkg] = {"version": mod.__version__, "openblas": None, "threads": None}
            continue
        lib = ctypes.CDLL(libs[0])
        threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        threads.argtypes, threads.restype = [], ctypes.c_int
        config = getattr(lib, "scipy_openblas_get_config" + suffix)
        config.argtypes, config.restype = [], ctypes.c_char_p
        out[pkg] = {"version": mod.__version__, "openblas": config().decode(),
                    "threads": threads()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    gm = import_package()
    from tracing import Recorder
    from workloads import Workload

    blas = blas_info()
    rec = Recorder(gm, traced=bool(args.trace))
    workload = Workload(gm, rec, args.workload, args.seed, Path(args.workdir))
    rec.install()
    try:
        result = workload.run(args.seconds)
    finally:
        rec.uninstall()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = {"nproc": os.cpu_count(), "blas": blas}
    Path(args.out).write_text(json.dumps(result))
    if rec.traced:
        spans = Path(args.out).parent / f"{args.workload}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "batch"],
                                     "spans": rec.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
