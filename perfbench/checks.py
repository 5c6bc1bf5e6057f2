"""Report digests and per-job correctness checks.

A job's digest hashes its report with sorted keys, every `elapsed_s` key
removed (sweep payloads embed wall time) and every float rounded to nine
significant digits, values below 1e-9 in magnitude read as zero, also where
a float is printed inside a string. Exact values print as integers and
fractions, which the rounding leaves alone; the float paths may reorder a sum
without changing a digest.
"""

from __future__ import annotations

import hashlib
import json
import re

_FLOAT_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+")


def _round(x: float) -> float:
    return 0.0 if abs(x) < 1e-9 else float(f"{x:.9g}")


def normalize(obj):
    if isinstance(obj, dict):
        return {k: normalize(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [normalize(v) for v in obj]
    if isinstance(obj, float):
        return _round(obj)
    if isinstance(obj, str):
        return _FLOAT_RE.sub(lambda m: repr(_round(float(m.group()))), obj)
    return obj


def job_digest(exit_code: int | None, report) -> str:
    text = json.dumps({"exit": exit_code, "report": normalize(report)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def workload_digest(job_digests) -> str:
    return hashlib.sha256("\n".join(job_digests).encode()).hexdigest()[:16]


def check_job(job: dict, exit_code: int | None, report) -> tuple[list[str], int]:
    """Problems found in one job's result, and the cases it verified."""
    check = job["check"]
    problems = []
    if check == "sweep":
        bad = report.get("failures") or report.get("disagreements")
        if bad:
            problems.append(f"{len(bad)} failing cases")
        return problems, report["cases"]
    if check == "verdict":
        want = job["expect_exit"]
        if exit_code != want:
            problems.append(f"exit {exit_code}, label says {want}")
        for key, value in job["label"].items():
            if report.get(key) is not value:
                problems.append(f"{key} = {report.get(key)}, label says {value}")
        return problems, 1
    if check == "gaussian":
        if exit_code != job["expect_exit"]:
            problems.append(f"exit {exit_code}")
        return problems, 1
    if exit_code != 0:
        problems.append(f"exit {exit_code}")
    if check == "cli-sweep":
        parts = ("corestriction", "products", "ppd_times_good", "involutions")
        for part in parts:
            if report[part]["failures"]:
                problems.append(f"{part}: {len(report[part]['failures'])} failures")
        return problems, sum(report[p]["cases"] for p in parts)
    if check == "cone":
        rays = report.get("rays") or []
        if not rays:
            problems.append("no rays")
        if report["self_duality"]["involution"] is not True:
            problems.append("self-duality pairing is not an involution")
        if any(len(r["tight"]) < report["dimension"] - 1 for r in rays):
            problems.append("a ray is tight on fewer than dimension - 1 inequalities")
        if report["field_report"]["all_integral"] is not True:
            problems.append("field certificate not integral")
        return problems, len(rays)
    raise ValueError(f"unknown check {check!r}")
