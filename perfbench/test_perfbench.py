"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", trace, "--size", "smoke")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} {result['metrics'][m['name']]['value']} {m['unit']}" in lines


def test_traced_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        code, lines = bench("--workload", "verify-cyclotomic", "--seconds", "0",
                            "--trace", "1", "--size", "smoke")
        assert code == 0, lines
        metrics = json.loads(lines[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["groups.add_index.calls"] > 0


def test_digest_ignores_elapsed_and_float_noise_but_not_values():
    report = {"cases": 3, "elapsed_s": 0.5, "failures": [],
              "witness": "f_hat(2) = (1.5e-16+0j) not strictly positive", "gap": 0.25}
    same = dict(report, elapsed_s=9.0, gap=0.25 + 1e-15,
                witness="f_hat(2) = (-2e-17+0j) not strictly positive")
    assert checks.job_digest(0, report) == checks.job_digest(0, same)
    changed = dict(report, cases=4)
    assert checks.job_digest(0, report) != checks.job_digest(0, changed)
    assert checks.job_digest(0, report) != checks.job_digest(1, report)


def test_changed_report_is_caught_against_the_record():
    report = {"cases": 3, "disagreements": [], "sweep": "cone-membership"}
    recorded = [checks.job_digest(None, report)] * 2
    tampered = dict(report, sweep="cone-membership-2")
    passes = [{"jobs": [{"problems": [], "digest": recorded[0]},
                        {"problems": [], "digest": checks.job_digest(None, tampered)}]}]
    attempted, failed, lines = run.grade(passes, recorded)
    assert (attempted, failed) == (2, 1)
    assert "digest" in lines[0]


def test_wrong_float_label_raises_failed_frac(tmp_path):
    vals, label = workloads.float_function((4, 2), "good", random.Random(5))
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"group": "Z4xZ2", "values": [[v, 0.0] for v in vals]}))
    argv = ["--mode", "float", "check", str(path), "--good"]
    jobs = [{"kind": "cli", "check": "verdict", "argv": argv, "label": label, "expect_exit": 0},
            {"kind": "cli", "check": "verdict", "argv": argv,
             "label": {"is_ppd": False, "is_good": False}, "expect_exit": 1}]
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    passes = [run.run_pass(str(tmp_path), 0, False, 120)]
    attempted, failed, lines = run.grade(passes, None)
    assert (attempted, failed) == (2, 1)
    assert "label says" in lines[0]


@pytest.mark.parametrize("kind", ["good", "ppd", "spectral", "pointwise"])
def test_float_labels_hold_by_construction(kind):
    vals, label = workloads.float_function((3, 3), kind, random.Random(kind))
    assert (min(vals) > 0) == (kind != "pointwise")
    assert label["is_good"] == (kind == "good")
    assert label["is_ppd"] == (kind in ("good", "ppd"))


def test_tracer_reports_missing_names_instead_of_crashing():
    code = (
        "import tracer\n"
        "tracer.SPANNED['groups'].append('_no_such_function')\n"
        "tracer.CACHES['groups.gone'] = 'groups._no_such_cache'\n"
        "t = tracer.Tracer(); t.install(); t.start_jobs()\n"
        "from ppdlab.sweeps import bochner_agreement_sweep\n"
        "bochner_agreement_sweep(max_order=4, samples=1, seed=0)\n"
        "m = t.metrics()\n"
        "print(sorted(t.missing), m['ppd.bochner_oracle.rational.calls'])\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] = os.pathsep.join([run.SRC, HERE])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["['groups._no_such_cache',", "'groups._no_such_function']",
                                  "5"]


def test_missing_program_fails_without_a_result(tmp_path):
    for rel in ["BENCHMARK.json"] + [os.path.join("perfbench", f) for f in os.listdir(HERE)
                                     if f.endswith((".py", ".json"))]:
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(open(os.path.join(run.ROOT, rel), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cone-atlas",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
