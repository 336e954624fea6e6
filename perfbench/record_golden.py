"""Record golden.json: the digests every benchmark job's output must match.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

For every job it stores the sha256 of the machine JSON made with the
default seed, and the sha256 of the job's canonical summary (the part of
the output that does not depend on vertex order), which must agree
across several workload seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import worker
import workloads

CANONICAL_SEEDS = (workloads.DEFAULT_SEED, 1, 2)


def record(mods: dict, workload: str, seed: int, workdir: str) -> dict:
    jobs = workloads.build(workload, seed, workdir)
    runner = worker.Runner(mods, jobs, {}, False, os.path.join(workdir, "out.json"))
    out = {}
    for job in jobs:
        result = runner.execute(job)
        if job.argv is not None and result != 0:
            raise SystemExit(f"{workload} {job.name}: exit code {result}")
        raw = runner.output(job, result)
        summary = workloads.canonical(job.command, json.loads(raw))
        errors = job.pin_errors(summary)
        if errors:
            raise SystemExit(f"{workload} {job.name}: {'; '.join(errors)}")
        out[job.name] = {"canonical": workloads.digest(summary), "default": hashlib.sha256(raw).hexdigest()}
    return out


def main() -> int:
    mods = worker.import_library()
    golden = {}
    workdir = tempfile.mkdtemp(prefix="golden-", dir=worker.ROOT)
    try:
        for workload in workloads.WORKLOADS:
            runs = [record(mods, workload, seed, os.path.join(workdir, str(seed))) for seed in CANONICAL_SEEDS]
            for other in runs[1:]:
                for name, digests in other.items():
                    if digests["canonical"] != runs[0][name]["canonical"]:
                        raise SystemExit(f"{workload} {name}: canonical digest depends on the seed")
            golden[workload] = runs[0]
            print(f"{workload}: {len(runs[0])} jobs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    with open(os.path.join(worker.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
