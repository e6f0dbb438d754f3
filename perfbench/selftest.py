"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once with ``--trace 0`` and once with ``--trace 1``,
checks that each run is correct and reports exactly the metrics of
``BENCHMARK.json`` with their units, and prints the end-to-end metrics of
each workload. Then it corrupts outputs on purpose and checks that the
corrupted passes are counted as failed, both when a workload check sees the
damage and when only the byte comparison does, and that tracing leaves no
wrapped function behind. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_cli(workload, trace):
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        fail(f"{workload} --trace {trace} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} --trace {trace} was not correct: {done.stderr[-2000:]}")
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected:
        fail(f"{workload} --trace {trace}: metrics {units} != {expected}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} = {value!r} is not a finite number")
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end metric {name} = {value} is not positive")
    print(f"ok  {workload} --trace {trace}: {result['attempted']} passes, "
          f"{len(units)} metrics")
    if not trace:
        print("    " + ", ".join(f"{name} = {metric['value']:.4g} {metric['unit']}"
                                 for name, metric in result["metrics"].items()))


def _zero_documented_switching(index, outputs):
    # the documented point (v_gw_1 = 0.1294, weight 0.6) is row 10 of the grid
    lines = outputs["telegraph_sweep.csv"].decode().splitlines(keepends=True)
    fields = lines[11].rstrip("\n").split(",")
    fields[-1] = "0"
    lines[11] = ",".join(fields) + "\n"
    return {**outputs, "telegraph_sweep.csv": "".join(lines).encode()}


def _perturb_traced_pass(index, outputs):
    # a last-digit change in a file no workload check reads
    if index != 1:
        return outputs
    data = bytearray(outputs["gravonon_chain.csv"])
    last = data.rstrip().rfind(b"e") - 1
    data[last] = ord("1") if data[last] != ord("1") else ord("2")
    return {**outputs, "gravonon_chain.csv": bytes(data)}


def check_forced_failures():
    sys.path.insert(0, str(run.SRC))
    import gravodyn
    import tracing
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    for sub in ("a", "b"):
        (workdir / sub).mkdir()
    try:
        workload = workloads.make("telegraph_sweep", run.ROOT, 0, workdir / "a")
        record = run.run_passes(workload, 0, tamper=_zero_documented_switching)
        if (record["attempted"], record["failed"]) != (1, 1):
            fail(f"a failed check was not counted: {record['failed']}/{record['attempted']}")
        print("ok  a wrong switching count is counted in failed_fraction (1/1)")

        tracer = tracing.Tracer(gravodyn)
        workload = workloads.make("shipped_suite", run.ROOT, 0, workdir / "b")
        record = run.run_passes(workload, 0, tracer=tracer, tamper=_perturb_traced_pass)
        if (record["attempted"], record["failed"]) != (2, 1):
            fail(f"a byte mismatch was not counted: {record['failed']}/{record['attempted']}")
        print("ok  a one-digit byte mismatch is counted in failed_fraction (1/2)")

        if not tracer.restored():
            fail("tracing left wrapped functions behind")
        tracer.install()
        wrapped = not tracer.restored()
        tracer.uninstall()
        if not wrapped or not tracer.restored():
            fail("install/uninstall do not wrap and restore the module bindings")
        print("ok  the tracer restores every wrapped function")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_cli(workload, trace)
    check_forced_failures()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
