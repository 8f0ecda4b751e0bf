"""Outside-in benchmark of gmmadapt's online adaptation loop.

    python3 perfbench/run.py --workload adapt-default --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all              # every workload in turn

Run from the repository root. Each workload runs in its own child process
(perfbench/child.py). --trace 0 reports the end-to-end metrics of that
run; --trace 1 runs an untraced and then a traced child, each for half of
--seconds, and reports the per-layer metrics and the tracing overhead.
Human-readable lines go first (the environment, then one line per metric
with its unit and, for timings, its sample count); the last line of
standard output is one JSON object with
keys correct, attempted, failed and metrics. Details, including every
call's checks and digests, land in .perfbench_out/. The exit code is 0
only if every run completed and passed its correctness checks.

The metric names, units and gated workloads come from BENCHMARK.json;
the predictions for each per-layer metric are in spec.py.

BLAS threads: the child runs with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1, whatever the caller's shell holds. Left to
itself OpenBLAS takes one thread per CPU, and on a small shared machine
that makes step latencies swing with other processes' load too much for a
steady benchmark (spec.HOTSPOTS). Every result reports the thread count
both OpenBLAS copies actually use.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
CHILD = HERE / "child.py"
OUTDIR = ROOT / ".perfbench_out"


def child_env() -> dict:
    env = dict(os.environ, **{k: "1" for k in BLAS_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, workload: str, traced: bool, outdir: Path, timeout: float) -> dict | None:
    """Run one child process; its result dict, or None if it failed or timed out."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=outdir)
    os.close(fd)
    workdir = tempfile.mkdtemp(dir=outdir)
    # a trace run holds two children, so that it too measures for --seconds in all
    seconds = args.seconds / 2 if args.trace else args.seconds
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(int(traced)),
           "--out", out, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                              timeout=timeout)
        text = Path(out).read_text()
        return json.loads(text) if proc.returncode == 0 and text else None
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        os.unlink(out)
        # a call that raised, or a child killed at the timeout, leaves files here
        shutil.rmtree(workdir, ignore_errors=True)


def tally(child: dict | None) -> tuple[int, int]:
    """(attempted, failed) runs of one child; a child that died counts as one failed run."""
    if child is None:
        return 1, 1
    return len(child["calls"]), sum(report.call_failed(c) for c in child["calls"])


def print_env(env: dict) -> None:
    print(f"env nproc={env['nproc']}")
    for pkg, info in env["blas"].items():
        print(f"env {pkg} {info['version']} openblas={info['openblas']!r} "
              f"threads={info['threads']}")


def measure(args, workload: str, outdir: Path, deadline: float) -> tuple[int, int, dict]:
    """Run one workload; print its lines and return (attempted, failed, metrics)."""
    t0 = time.monotonic()
    plain = run_child(args, workload, False, outdir, deadline / 2 if args.trace else deadline)
    traced = None
    if args.trace and plain is not None:
        traced = run_child(args, workload, True, outdir, deadline - (time.monotonic() - t0))
    if args.trace and traced is not None:
        # traced and untraced runs of the same call index must agree byte for byte
        for c_t, c_p in zip(traced["calls"], plain["calls"]):
            c_t["checks"]["traced_digest"] = c_t["digest"] is not None and c_t["digest"] == c_p["digest"]
            c_t["checks"]["step_accounting"] = c_t["probe"]["step_accounting"] is not False
    counts = [tally(plain)] + ([tally(traced)] if args.trace else [])
    attempted, failed = sum(a for a, _ in counts), sum(f for _, f in counts)

    metrics, samples, units = {}, {}, {}
    if plain is not None and (traced is not None or not args.trace):
        print_env(plain["env"])
        try:
            if args.trace:
                metrics = report.per_layer(traced, plain)
                units = spec.units("per_layer")
            else:
                metrics, samples = report.end_to_end(plain)
                metrics["pass_share"] = (attempted - failed) / attempted
                units = spec.units("end_to_end")
            missing = set(units) - set(metrics)
            if missing:
                raise KeyError(f"metrics not reported: {sorted(missing)}")
        except (ValueError, ZeroDivisionError, IndexError, KeyError) as err:
            print(f"error: could not derive metrics: {err!r}", file=sys.stderr)
            metrics = {}
    for name, value in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{workload} {name} = {value:.6g} {units[name]}{n}")
    for child in (plain, traced):
        for call in (child or {}).get("calls", []):
            if report.call_failed(call):
                print(f"FAILED {workload} call {call['index']}: error={call['error']} "
                      f"checks={call['checks']}", file=sys.stderr)
    detail = {"args": vars(args), "untraced": plain, "traced": traced, "metrics": metrics}
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(detail))
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gmmadapt" / "__init__.py").is_file():
        print(f"error: no gmmadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = OUTDIR
    outdir.mkdir(exist_ok=True)

    if args.workload != "all":
        attempted, failed, metrics = measure(args, args.workload, outdir, DEADLINE_S)
    else:
        attempted, failed, metrics = 0, 0, {}
        for workload in WORKLOADS:
            a, f, m = measure(args, workload, outdir, DEADLINE_S)
            attempted, failed = attempted + a, failed + f
            metrics.update({f"{workload}/{k}": v for k, v in m.items()})
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
