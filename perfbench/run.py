"""ppdlab benchmark: seeded workloads, end-to-end timings, traced layer metrics.

    python3 perfbench/run.py --workload cone-atlas --seed 1 --seconds 20 --trace 0

Each pass starts a fresh interpreter (child.py) that imports ppdlab from this
checkout's src/ and runs the workload's job list back to back: a closed loop
with one client. Passes repeat until --seconds is used up (at least
MIN_PASSES). --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced passes and prints the per-layer metrics. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from checks import workload_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
MIN_PASSES = 3
TRACE_MIN_PASSES = 4
RUN_LIMIT_S = 170
# Mean time of child.probe_load on the reference host, a 2-core Intel Xeon
# VM. Times are reported in reference seconds, see speed_factor.
REFERENCE_PROBE_S = 0.39e-3


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PPDLAB_MAX_ORDER", None)  # a user's cap must not shrink a workload
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(workdir: str, k: int, trace: bool, budget_s: float) -> dict:
    passdir = os.path.join(workdir, f"pass{k:02d}")
    os.makedirs(passdir)
    result = os.path.join(passdir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), os.path.join(workdir, "jobs.json"),
            result, SRC, repr(time.monotonic()), "1" if trace else "0"]
    with open(os.path.join(passdir, "child.log"), "w") as log:
        try:
            proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=budget_s)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {k} did not finish within {budget_s:.0f} s")
    if proc.returncode != 0:
        with open(os.path.join(passdir, "child.log")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"pass {k} exited {proc.returncode}:\n{tail}")
    with open(result) as fh:
        out = json.load(fh)
    out["traced"] = trace
    return out


def run_passes(workdir: str, seconds: float, trace: bool) -> list[dict]:
    start = time.monotonic()
    passes = []
    least = TRACE_MIN_PASSES if trace else MIN_PASSES
    while True:
        t0 = time.monotonic()
        budget = RUN_LIMIT_S - (t0 - start)
        if budget <= 0:
            raise BenchError(f"{len(passes)} passes used up the {RUN_LIMIT_S} s run limit")
        passes.append(run_pass(workdir, len(passes), trace and len(passes) % 2 == 1, budget))
        now = time.monotonic()
        if len(passes) >= least and now - start + (now - t0) > seconds:
            return passes


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least ten jobs beyond it in MIN_PASSES passes."""
    return max(50, math.floor(100 * (1 - 10 / (jobs_per_pass * MIN_PASSES))))


def percentile(values, p: int) -> float:
    """Smoothed p-th percentile: the mean of the values ranked within h
    percentile points of p, h = min(5, (100 - p) / 2).

    Job latencies are lumpy (cone-atlas has 21 distinct jobs), so a single
    order statistic jumps between neighbouring jobs from run to run; the
    band mean stays in p's neighbourhood and averages that jump away.
    """
    v = sorted(values)
    h = min(5, (100 - p) / 2)
    lo = math.floor((p - h) / 100 * (len(v) - 1))
    hi = math.ceil((p + h) / 100 * (len(v) - 1))
    return statistics.fmean(v[lo:hi + 1])


def grade(passes, recorded) -> tuple[int, int, list[str]]:
    """(attempted, failed) jobs over all passes, and one line per failure.

    A job fails if its own check found a problem, or if its digest differs
    from the recorded one (default seed) or from the first pass (any seed).
    """
    reference = recorded or [j["digest"] for j in passes[0]["jobs"]]
    attempted = failed = 0
    lines = []
    for k, p in enumerate(passes):
        for j, (job, want) in enumerate(zip(p["jobs"], reference)):
            attempted += 1
            problems = list(job["problems"])
            if job["digest"] != want:
                problems.append(f"digest {job['digest']} != {want}")
            if problems:
                failed += 1
                lines.append(f"pass {k} job {j}: " + "; ".join(problems))
    return attempted, failed, lines


def speed_factor(p) -> float:
    """Reference seconds per measured second in pass p.

    The host's speed drifts by 20% and more within a minute. The child times
    one fixed load (child.probe_load) every 50 ms through the pass; scaling
    the pass's times by the load's reference time over its mean time in the
    pass cancels that drift, which the program's own code would otherwise
    carry into every metric.
    """
    return REFERENCE_PROBE_S / statistics.fmean(p["probe_s"])


def end_to_end(passes, tail_p: int) -> dict:
    ks = [speed_factor(p) for p in passes]
    latencies_ms = [k * j["latency_s"] * 1e3 for k, p in zip(ks, passes) for j in p["jobs"]]
    return {
        "setup_s": statistics.median(k * p["setup_s"] for k, p in zip(ks, passes)),
        "wall_s": statistics.median(k * p["wall_s"] for k, p in zip(ks, passes)),
        "cases_per_s": statistics.median(
            sum(j["cases"] for j in p["jobs"]) / (k * p["wall_s"]) for k, p in zip(ks, passes)),
        "job_ms.p50": percentile(latencies_ms, 50),
        "job_ms.tail": percentile(latencies_ms, tail_p),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
    }


def per_layer(passes) -> tuple[dict, list[str]]:
    """Layer metrics: counts from the traced passes (which must agree), times
    as medians in reference seconds, and the tracing overhead against the
    untraced passes."""
    traced = [(speed_factor(p), p["layers"]) for p in passes if p["traced"]]
    problems = []
    out = {}
    for name in traced[0][1]:
        values = [layers[name] for _, layers in traced]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
        elif name.endswith("_s"):
            out[name] = statistics.median(k * layers[name] for k, layers in traced)
        else:
            out[name] = statistics.median(values)

    def wall(traced: bool) -> float:
        return statistics.median(speed_factor(p) * p["wall_s"]
                                 for p in passes if p["traced"] == traced)

    out["trace.overhead_frac"] = wall(True) / wall(False) - 1
    return out, problems


def load_recorded(workload: str, seed: int, size: str):
    if seed != DEFAULT_SEED or size != "full" or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        entry = json.load(fh)["workloads"].get(workload)
    return entry and entry["jobs"]


def record_digests(workload: str, digest: str, jobs: list[str]) -> None:
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            data = json.load(fh)
    data["workloads"][workload] = {"digest": digest, "jobs": jobs}
    with open(DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def environment(passes) -> dict:
    env = dict(passes[0]["versions"], nproc=os.cpu_count())
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="smoke is the benchmark's own quick test size")
    ap.add_argument("--record", action="store_true",
                    help=f"store this run's job digests as the seed-{DEFAULT_SEED} reference")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ppdlab", "__init__.py")):
        print(f"error: no ppdlab package under {SRC}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(ROOT, ".perfbench-run", f"{args.workload}-s{args.seed}-{args.size}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.make_jobs(args.workload, args.seed, args.size, workdir)
    with open(os.path.join(workdir, "jobs.json"), "w") as fh:
        json.dump(jobs, fh)

    try:
        passes = run_passes(workdir, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests = [j["digest"] for j in passes[0]["jobs"]]
    digest = workload_digest([d or "-" for d in digests])
    if args.record:
        record_digests(args.workload, digest, digests)
    recorded = load_recorded(args.workload, args.seed, args.size)
    attempted, failed, failures = grade(passes, recorded)

    tail_p = tail_percentile(len(jobs))
    if args.trace:
        values, problems = per_layer(passes)
        failures += problems
        missing = passes[1]["missing"]
    else:
        values, missing = end_to_end(passes, tail_p), []

    plain = [p for p in passes if not p["traced"]]
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(passes)} passes ({len(plain)} untraced) of {len(jobs)} jobs")
    print(f"environment {json.dumps(environment(passes), sort_keys=True)}")
    print("speed_factor per pass (times below are measured seconds x this): "
          + " ".join(f"{speed_factor(p):.4f}" for p in passes))
    print(f"digest {digest} "
          + ("(checked against the record)" if recorded else "(not recorded for this seed)"))
    print(f"failed_frac {failed / attempted} ratio ({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"job_ms.tail is p{tail_p} over {len(plain) * len(jobs)} jobs")
    if missing:
        print(f"missing (renamed or removed, reported as 0): {', '.join(missing)}")
    for line in failures[:20]:
        print(f"FAIL {line}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
