"""gravodyn benchmark: one workload, timed passes, checked outputs.

    python3 perfbench/run.py --workload decay_sweep --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; gravodyn is imported from its
``src/``. With ``--trace 0`` the passes run untraced and the last line of
stdout is a JSON object with the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``). With ``--trace 1`` untraced and traced passes alternate;
the JSON holds the per-layer metrics of ``tracing.LAYER_METRICS``, and the
spans of the first traced pass go to ``perfbench/out/<workload>.spans.npz``.

A pass fails when it raises, fails its workload's output check, or writes
bytes that differ from the first pass of the run (traced passes included).
Sweeps use one worker thread and BLAS is held at ``BLAS_THREADS`` threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

WORKLOADS = ("decay_sweep", "telegraph_sweep", "meanfield_grid", "shipped_suite")

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import gravodyn.cli\n"
    "elapsed = time.perf_counter() - t0\n"
    "assert gravodyn.cli.__file__.startswith(sys.argv[1])\n"
    "print(repr(elapsed))\n"
)


def measure_setup(repeats=SETUP_REPEATS):
    """Import time of gravodyn.cli (with numpy and scipy) in fresh interpreters."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True, env=os.environ.copy(),
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _git_rev():
    """Commit of the checkout, or None where it is not a git work tree."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None
    return ref


def _blas_threads_in_use(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads_in_use(np),
        "src_lines": src_lines,
        "note": "timed without CPU pinning or cache control, neither of which "
                "the benchmark can set; run_s is a median over passes",
    }


def _tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def run_passes(workload, seconds, tracer=None, tamper=None):
    """Run passes until ``seconds`` have elapsed; returns the pass record.

    With a tracer, even passes run untraced and odd passes traced, and the
    loop runs until it has at least one of each. ``tamper(index, outputs)``
    lets the self-test corrupt a pass's outputs before they are checked.
    """
    record = {"attempted": 0, "failed": 0, "untraced": [], "traced": [], "layers": []}
    reference = None
    begin = time.perf_counter()
    index = 0
    while (time.perf_counter() - begin < seconds or index == 0
           or (tracer is not None and not record["traced"] and index < 2)):
        traced = tracer is not None and index % 2 == 1
        record["attempted"] += 1
        gc.collect()  # start every pass from a collected heap, outside the timing
        try:
            if traced:
                tracer.reset()
                tracer.install()
            try:
                t0 = time.perf_counter()
                raw = workload.execute()
                elapsed = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            outputs = workload.collect(raw)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            record["failed"] += 1
            index += 1
            continue
        if tamper is not None:
            outputs = tamper(index, outputs)
        if reference is None:
            reference = outputs
        problem = workload.check(outputs)
        if problem is None and outputs != reference:
            problem = "outputs differ from the first pass"
        if problem is not None:
            print(f"pass {index} failed: {problem}", file=sys.stderr)
            record["failed"] += 1
        else:
            record["traced" if traced else "untraced"].append(elapsed)
            if traced:
                record["layers"].append(tracer.layer_metrics())
                if len(record["layers"]) == 1:
                    record["spans"] = tracer.spans()
        index += 1
    return record


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "gravodyn" / "cli.py").is_file() or not (ROOT / "scripts" / "configs").is_dir():
        print(f"no gravodyn source tree under {ROOT}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import gravodyn
    if not Path(gravodyn.__file__).resolve().is_relative_to(SRC):
        print(f"gravodyn imported from {gravodyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import tracing
    import workloads

    env = environment()
    print("environment: " + json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "environment.json").write_text(json.dumps(env, indent=2) + "\n")

    setup = [] if args.trace else measure_setup()
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = workloads.make(args.workload, ROOT, args.seed, workdir)
        tracer = tracing.Tracer(gravodyn) if args.trace else None
        record = run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, attempted = record["failed"], record["attempted"]
    untraced = record["untraced"]
    print(f"{args.workload} seed {args.seed}: failed_fraction {failed / attempted:.4f} "
          f"({failed}/{attempted} passes)")
    correct = failed == 0 and bool(untraced)
    if untraced:
        tail = _tail(untraced)
        tail_text = "n/a (fewer than 11 samples)" if tail is None else f"p{tail[0]} {tail[1]:.6f} s"
        print(f"run_s: median {statistics.median(untraced):.6f} s, {tail_text}, "
              f"{len(untraced)} samples: {', '.join(f'{s:.4f}' for s in untraced)}")

    if args.trace:
        restored = tracer.restored()
        if not restored:
            print("tracer left wrapped functions behind", file=sys.stderr)
        correct = correct and restored and bool(record["layers"])
        metrics = {}
        if record["layers"] and untraced:
            for name, unit in tracing.LAYER_METRICS.items():
                if name == "trace.overhead_s":
                    value = statistics.median(record["traced"]) - statistics.median(untraced)
                else:
                    value = statistics.median(layer[name] for layer in record["layers"])
                metrics[name] = _metric(value, unit)
            np.savez(OUT_DIR / f"{args.workload}.spans.npz", **record["spans"])
            (OUT_DIR / f"{args.workload}.layers.json").write_text(
                json.dumps(record["layers"], indent=1) + "\n")
            print("layers: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()))
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        metrics = {
            "run_s": _metric(statistics.median(untraced) if untraced else None, "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
