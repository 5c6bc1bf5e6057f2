"""One cold pass of a workload: import ppdlab, run every job, check it.

Started by run.py in a fresh interpreter, which is what a CLI user pays on
every invocation. Writes its measurements to the result file as JSON.

    python3 child.py JOBS RESULT SRC SPAWNED TRACE
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.05


def run_job(job: dict, out_path: str, cli, sweeps):
    """(exit code, report) of one job through the public entry points."""
    if job["kind"] == "sweep":
        return None, getattr(sweeps, job["fn"])(**job["kwargs"])
    if os.path.exists(out_path):
        os.remove(out_path)
    try:
        code = cli.main(job["argv"] + ["--out", out_path])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    with open(out_path) as fh:
        return code, json.load(fh)


def probe_load() -> None:
    """A fixed pure-Python load of about half a millisecond: integer and
    float arithmetic only, so that it allocates no object the cyclic
    garbage collector tracks and leaves the program's collections where
    they would fall without it."""
    acc, x = 0, 1.0
    for i in range(1, 1800):
        acc = (acc * 31 + i * i) % 1000003
        x = x * 1.0000001 + i % 7


class SpeedProbe:
    """Times probe_load every PROBE_INTERVAL_S of wall time, from a SIGALRM
    handler, so that the samples follow the host's speed through the pass."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_load()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(jobs_path: str, result_path: str, src: str, spawned: float, trace: bool) -> None:
    probe = SpeedProbe()
    probe.start()
    import ppdlab
    from ppdlab import cli, sweeps

    if not os.path.abspath(ppdlab.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"ppdlab imported from {ppdlab.__file__}, not from {src}")
    from checks import check_job, job_digest

    with open(jobs_path) as fh:
        jobs = json.load(fh)
    setup_s = time.monotonic() - spawned
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start_jobs()
    out_path = os.path.join(os.path.dirname(result_path), "out.json")
    records = []
    clock = time.perf_counter
    t_first = clock()
    for j, job in enumerate(jobs):
        if tracer:
            tracer.job = j
        t0 = clock()
        try:
            code, report = run_job(job, out_path, cli, sweeps)
            problems, cases = check_job(job, code, report)
            digest = job_digest(code, report)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            problems, cases, digest = [f"{type(exc).__name__}: {exc}"], 0, None
        records.append({"latency_s": clock() - t0, "cases": cases,
                        "problems": problems, "digest": digest})
    wall_s = clock() - t_first
    probe.stop()

    import mpmath
    import numpy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe.samples,
        "jobs": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        tracer.write_spans(os.path.join(os.path.dirname(result_path), "spans.tsv"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    jobs_path, result_path, src, spawned, trace = sys.argv[1:6]
    main(jobs_path, result_path, src, float(spawned), trace == "1")
