"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload surface --seed 0 --seconds 24 --trace 0

Runs the workload in a fresh single-threaded worker process
(``worker.py``) on inputs generated from the seed, and prints the metrics
as the last line of standard output:

    {"correct": true, "attempted": 392, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones.  Set-up time is the median over several fresh
processes.  Exits 1 when a job fails or a harness self-check does, and 2
without a result when the run cannot be made (no ``src/clusterseeds``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from statistics import median
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # set-up-only processes besides the measuring one
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_s_p50": "s", "peak_rss_mb": "MB", "jobs_per_s": "1/s"}


class HarnessError(Exception):
    pass


def declared_metrics() -> tuple[dict, dict]:
    """Metric units from BENCHMARK.json, checked against what the harness reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != END_TO_END_UNITS:
        raise HarnessError("BENCHMARK.json end_to_end differs from the harness's metrics")
    if per_layer != {name: unit for name, unit, _ in layers.PER_LAYER}:
        raise HarnessError("BENCHMARK.json per_layer differs from the harness's metrics")
    return e2e, per_layer


def spawn(args, workdir: str, setup_only: bool) -> dict:
    """Start a worker, wait for it, and return the JSON it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def write_trace(args, report: dict) -> None:
    """Keep the traced run's per-job span totals beside the checkout's build output."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"metrics": report["metrics"], "first_traced_pass": report["trace_jobs"]}, fh, indent=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="clusterseeds benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "clusterseeds", "cli.py")):
        print(f"perfbench: no clusterseeds sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        e2e_units, layer_units = declared_metrics()
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setup.append(spawn(args, os.path.join(workdir, f"setup{i}"), setup_only=True)["setup_s"])
        report = spawn(args, os.path.join(workdir, "run"), setup_only=False)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    metrics = report["metrics"]
    if args.trace:
        units = layer_units
        write_trace(args, report)
    else:
        units = e2e_units
        setup.append(report["setup_s"])
        metrics["setup_s"] = median(setup)
    correct = report["failed"] == 0 and not report["selfcheck_errors"]
    attempted, failed = report["attempted"], report["failed"]
    for line in report["errors"] + report["selfcheck_errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} jobs attempted in {report['passes']} passes "
          f"of {report['jobs_per_pass']} jobs, {failed} failed (fail_frac {failed / attempted})")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    if "raw_wall_s" in report:
        print(f"  (wall_s before host scaling = {report['raw_wall_s']} s)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
