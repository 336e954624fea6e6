"""One workload in one fresh process: set up, run passes, check, report.

A pass runs the workload's jobs once each, one at a time (a closed loop
with one client).  Passes repeat until the run's seconds are spent.  The
untraced run reports the end-to-end metrics; the traced run first runs
traced passes for half the time, removes every wrapper, then runs
untraced passes for the rest to measure the tracing overhead.

The host is a shared VM whose speed switches between two levels, about
2x apart, every few seconds.  So a fixed pure-Python reference loop is
timed before every job, outside the job timers, and each pass time is
scaled to a nominal host speed: raw x (REF_NOMINAL_S / mean reference
time of the pass) ** HOST_SENSITIVITY.  Set-up time is scaled by the
loop timed right after set-up.  The raw pass time is reported too.

Prints one JSON line: set-up time, jobs attempted and failed, the first
errors, and the metrics.  ``run.py`` starts this process; it is not the
benchmark's entry point.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import traceback
from statistics import fmean, median
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS = 20
REF_NOMINAL_S = 0.0025  # reference() on the 2-core VM of the baseline, host busy
# Log-log slope of pass time on mean reference time within a run, measured
# as 0.58-0.79 on the four workloads (correlation 0.85-0.89).
HOST_SENSITIVITY = 0.65


def host_scale(refs) -> float:
    """Factor from raw seconds to seconds at the nominal host speed."""
    return (REF_NOMINAL_S / fmean(refs)) ** HOST_SENSITIVITY


def reference() -> float:
    """Seconds a fixed pure-Python loop takes: a probe of the host's speed."""
    start = perf_counter()
    table: dict = {}
    for i in range(6000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + len(str(i))
    return perf_counter() - start


def import_library() -> dict:
    """Import clusterseeds from this checkout's src/ and return its modules."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import clusterseeds
    from clusterseeds import classify, cli, fileio, poly, semigroup, surface

    src = os.path.join(ROOT, "src", "clusterseeds")
    if os.path.dirname(os.path.abspath(clusterseeds.__file__)) != src:
        raise ImportError(f"clusterseeds was imported from {clusterseeds.__file__}, not {src}")
    return dict(cli=cli, classify=classify, fileio=fileio, poly=poly, semigroup=semigroup, surface=surface)


class Runner:
    def __init__(self, mods: dict, jobs: list, golden: dict, check_default: bool, out_path: str):
        self.mods = mods
        self.jobs = jobs
        self.golden = golden
        self.check_default = check_default
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.selfcheck_errors: list[str] = []

    def execute(self, job):
        """The timed part of a job: one CLI call, or the library cross-check."""
        if job.argv is not None:
            return self.mods["cli"].main(["--format", "machine", "--out", self.out_path, *job.argv])
        semigroup = self.mods["semigroup"]
        S = semigroup.enumerate_endpar(self.mods["fileio"].load_seed(job.seed_path))
        report = semigroup.check_structural_green(S, semigroup.green_relations(S))
        return {"regular_count": report.regular_count, "checked_pairs": report.checked_pairs, "ok": report.ok}

    def output(self, job, result) -> bytes:
        """A job's machine JSON: the --out file, or the library report."""
        if job.argv is None:
            return json.dumps(result, sort_keys=True).encode()
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def check(self, job, result) -> tuple[list[str], int]:
        """Errors in a job's output, and the size of its machine JSON."""
        if job.argv is not None and result != 0:
            return [f"exit code {result}"], 0
        raw = self.output(job, result)
        summary = workloads.canonical(job.command, json.loads(raw))
        errors = job.pin_errors(summary)
        golden = self.golden.get(job.name)
        if golden is None:
            errors.append("no golden digest")
        else:
            if workloads.digest(summary) != golden["canonical"]:
                errors.append("canonical digest differs from the golden one")
            if self.check_default and hashlib.sha256(raw).hexdigest() != golden["default"]:
                errors.append("machine-JSON digest differs from the golden one")
        return errors, len(raw) if job.argv is not None else 0

    def run_pass(self, tracer=None) -> dict:
        times, refs, out_bytes, candidates = [], [], 0, 0
        profile: dict = {}
        jobs_profile = []
        if tracer is not None:
            tracer.counts.clear()
        for job_id, job in enumerate(self.jobs):
            if os.path.exists(self.out_path):
                os.remove(self.out_path)
            gc.collect()
            refs.append(reference())
            self.attempted += 1
            errors = []
            start = perf_counter()
            try:
                if tracer is None:
                    result = self.execute(job)
                else:
                    with tracer.root("cli" if job.argv is not None else "library", job_id):
                        result = self.execute(job)
            except Exception:
                result = None
                errors.append(traceback.format_exc(limit=3))
            elapsed = perf_counter() - start
            times.append(elapsed)
            if not errors:
                errors, size = self.check(job, result)
                out_bytes += size
            if tracer is not None:
                job_prof, job_candidates, span_errors = layers.job_profile(tracer, self.mods["semigroup"].projected_endpar_bound)
                self.selfcheck_errors += span_errors[: MAX_ERRORS]
                candidates += job_candidates
                for name, (calls, secs, self_s) in job_prof.items():
                    entry = profile.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += secs
                    entry[2] += self_s
                jobs_profile.append({"job": job.name, "s": elapsed, "spans": job_prof})
            if errors:
                self.failed += 1
                if len(self.errors) < MAX_ERRORS:
                    self.errors.append(f"{job.name}: {'; '.join(errors)}")
        refs.append(reference())
        scale = host_scale(refs)
        out = {"raw_s": sum(times), "wall_s": sum(times) * scale, "times": [t * scale for t in times]}
        if tracer is not None:
            metrics = layers.layer_metrics(profile, tracer.counts, candidates, out_bytes)
            self.selfcheck_errors += layers.rejects_balance(metrics)
            out.update(layer=metrics, jobs=jobs_profile)
        return out

    def run_phase(self, seconds: float, tracer=None) -> list[dict]:
        """Whole passes until the phase has lasted ``seconds`` (at least one)."""
        passes = []
        start = monotonic()
        while not passes or monotonic() - start < seconds:
            passes.append(self.run_pass(tracer))
        return passes


def wall_s(passes: list[dict]) -> float:
    """Median time of one pass over the workload's jobs, host-scaled."""
    return median(p["wall_s"] for p in passes)


def end_to_end(passes: list[dict], failed: int, setup_s: float) -> dict:
    """The end-to-end metrics; every time is host-scaled."""
    times = [t for p in passes for t in p["times"]]
    # The median of single job times jumps between the two host speeds;
    # the median over jobs of each job's mean over the passes does not.
    per_job = [fmean(p["times"][j] for p in passes) for j in range(len(passes[0]["times"]))]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s(passes),
        "job_s_p50": median(per_job),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs_per_s": (len(times) - failed) / sum(times),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True, help="monotonic clock when the process was started")
    p.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    args = p.parse_args(argv)

    mods = import_library()
    jobs = workloads.build(args.workload, args.seed, args.workdir)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[args.workload]
    setup_s = (monotonic() - args.t0) * host_scale([reference() for _ in range(5)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_path = os.path.join(args.workdir, "out.json")
    runner = Runner(mods, jobs, golden, args.seed == workloads.DEFAULT_SEED, out_path)
    report = {"setup_s": setup_s, "jobs_per_pass": len(jobs)}
    if args.trace:
        tracer = layers.Tracer()
        tracer.install(mods)
        try:
            traced = runner.run_phase(args.seconds / 2, tracer)
        finally:
            still_wrapped = tracer.remove()
        runner.selfcheck_errors += [f"{name} is still wrapped" for name in still_wrapped]
        untraced = runner.run_phase(args.seconds / 2)
        metrics = {
            name: median(p["layer"][name] for p in traced)
            for name, _, _ in layers.PER_LAYER
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = wall_s(traced) / wall_s(untraced) - 1
        report.update(passes=[len(traced), len(untraced)], trace_jobs=traced[0]["jobs"])
    else:
        passes = runner.run_phase(args.seconds)
        metrics = end_to_end(passes, runner.failed, setup_s)
        report.update(passes=[len(passes)], raw_wall_s=median(p["raw_s"] for p in passes))
    report.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        selfcheck_errors=runner.selfcheck_errors[:MAX_ERRORS],
        metrics=metrics,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
