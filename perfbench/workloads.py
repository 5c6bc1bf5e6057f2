"""Seeded job lists for the four benchmark workloads.

Stdlib only: the parent process builds every input here, before any child
imports ppdlab, so the program under test receives generated inputs and
never sees the workload seed. The float-probe functions are built from their
spectra, which fixes their PPD/good labels by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

WORKLOADS = ("verify-rational", "verify-cyclotomic", "cone-atlas", "float-probe")

# Per-workload sizes. "full" is what BENCHMARK.json measures; "smoke" is the
# benchmark's own test size and has no recorded digest.
SIZES = {
    "full": {
        "verify-rational": {"pairs": 12, "bochner_samples": 5, "membership_samples": 12},
        "verify-cyclotomic": {"pairs": 5, "sweep_samples": 4, "structure_samples": 8},
        "cone-atlas": {"max_order": 12},
        "float-probe": {"functions": 600, "max_order": 16, "gaussian_rounds": 10},
    },
    "smoke": {
        "verify-rational": {"pairs": 2, "bochner_samples": 2, "membership_samples": 4},
        "verify-cyclotomic": {"pairs": 1, "sweep_samples": 1, "structure_samples": 1,
                              "structure_max_order": 6},
        "cone-atlas": {"max_order": 6},
        "float-probe": {"functions": 12, "max_order": 8, "gaussian_rounds": 1},
    },
}

GAUSSIAN_CHECKS = (
    ["gaussian", "--check", "selfdual"],
    ["gaussian", "--check", "corestriction", "--form", "2,1;1,2", "--k", "1"],
    ["gaussian", "--check", "counterexample", "--terms", "10"],
    ["gaussian", "--check", "goodness", "--form", "1,0;0,1"],
)


def job_seed(seed: int, workload: str, j: int) -> int:
    """Per-job seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}|{workload}|{j}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def catalog(max_order: int) -> list[tuple[int, ...]]:
    """Moduli of every direct-sum presentation up to max_order, non-increasing
    parts, in the order ppdlab's own catalog lists them."""
    out = []

    def rec(rem, cap, acc):
        if rem == 1:
            out.append(tuple(acc))
            return
        for d in range(min(rem, cap), 1, -1):
            if rem % d == 0:
                rec(rem // d, d, acc + [d])

    for n in range(1, max_order + 1):
        if n == 1:
            out.append((1,))
        else:
            rec(n, n, [])
    return out


def group_name(moduli) -> str:
    return "x".join(f"Z{n}" for n in moduli)


def make_jobs(workload: str, seed: int, size: str, workdir: str) -> list[dict]:
    """The job list one pass of `workload` runs; writes input files to workdir."""
    cfg = SIZES[size][workload]
    if workload == "verify-rational":
        return _verify_rational(cfg, seed)
    if workload == "verify-cyclotomic":
        return _verify_cyclotomic(cfg, seed)
    if workload == "cone-atlas":
        return [
            {"kind": "cli", "check": "cone", "argv": ["cone", group_name(m), "--rays"]}
            for m in catalog(cfg["max_order"])
        ]
    if workload == "float-probe":
        return _float_probe(cfg, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _verify_rational(cfg, seed):
    jobs = []
    for p in range(cfg["pairs"]):
        jobs.append({"kind": "sweep", "check": "sweep", "fn": "bochner_agreement_sweep",
                     "kwargs": {"max_order": 12, "samples": cfg["bochner_samples"],
                                "seed": job_seed(seed, "verify-rational", 2 * p)}})
        jobs.append({"kind": "sweep", "check": "sweep", "fn": "cone_membership_sweep",
                     "kwargs": {"max_order": 8, "samples": cfg["membership_samples"],
                                "seed": job_seed(seed, "verify-rational", 2 * p + 1)}})
    return jobs


def _verify_cyclotomic(cfg, seed):
    jobs = []
    for p in range(cfg["pairs"]):
        s = job_seed(seed, "verify-cyclotomic", 2 * p)
        jobs.append({"kind": "cli", "check": "cli-sweep",
                     "argv": ["sweep", "--max-order", "8",
                              "--samples", str(cfg["sweep_samples"]), "--seed", str(s)]})
        jobs.append({"kind": "sweep", "check": "sweep", "fn": "structure_sweep",
                     "kwargs": {"max_order": cfg.get("structure_max_order", 16),
                                "samples": cfg["structure_samples"],
                                "seed": job_seed(seed, "verify-cyclotomic", 2 * p + 1)}})
    return jobs


# -- float-probe inputs ------------------------------------------------------------


def _elements(moduli):
    out = []
    for i in range(math.prod(moduli)):
        x = []
        for n in moduli:
            i, r = divmod(i, n)
            x.append(r)
        out.append(tuple(x))
    return out


def _neg(x, moduli):
    return tuple((-a) % n for a, n in zip(x, moduli))


def float_function(moduli, kind: str, rng: random.Random) -> tuple[list[float], dict]:
    """Values of a real even function and its (is_ppd, is_good) label.

    f(x) = sum_a w_a cos(2 pi <a, x>) with w_a = w_{-a}, so its transform under
    counting measure is |G| w. Every value that decides a label is at least 1
    away from zero, or is an exact zero, far outside the 1e-10 tolerance.
    kind: "good" (w > 0, w_0 dominant), "ppd" (one character orbit of w set
    to 0), "spectral" (one orbit negative), "pointwise" (good shifted down
    below its minimum).
    """
    elems = _elements(moduli)
    index = {x: i for i, x in enumerate(elems)}
    w = [0.0] * len(elems)
    for i, a in enumerate(elems):
        j = index[_neg(a, moduli)]
        if j >= i:
            w[i] = w[j] = rng.uniform(1.0, 3.0)
    orbits = [i for i, a in enumerate(elems) if i and index[_neg(a, moduli)] >= i]
    if kind in ("ppd", "spectral"):
        a = rng.choice(orbits)
        v = 0.0 if kind == "ppd" else -rng.uniform(1.0, 3.0)
        w[a] = w[index[_neg(elems[a], moduli)]] = v
    w[0] = sum(abs(v) for v in w[1:]) + rng.uniform(1.0, 3.0)
    vals = []
    for x in elems:
        phase = [sum(ai * xi / n for ai, xi, n in zip(a, x, moduli)) for a in elems]
        vals.append(sum(wa * math.cos(2 * math.pi * t) for wa, t in zip(w, phase)))
    if kind == "pointwise":
        shift = min(vals) + rng.uniform(1.0, 2.0)
        vals = [v - shift for v in vals]
    label = {"is_ppd": kind in ("good", "ppd"), "is_good": kind == "good"}
    return vals, label


def _float_probe(cfg, seed, workdir):
    groups = [m for m in catalog(cfg["max_order"]) if math.prod(m) > 2]
    kinds = ("good", "ppd", "spectral", "pointwise")
    checks = []
    for j in range(cfg["functions"]):
        rng = random.Random(job_seed(seed, "float-probe", j))
        moduli = rng.choice(groups)
        kind = kinds[j % len(kinds)]
        vals, label = float_function(moduli, kind, rng)
        path = os.path.join(workdir, f"f{j:04d}.json")
        with open(path, "w") as fh:
            json.dump({"group": group_name(moduli), "values": [[v, 0.0] for v in vals]}, fh)
        prop = "good" if rng.random() < 0.5 else "ppd"
        argv = ["--mode", "float", "check", path] + (["--good"] if prop == "good" else [])
        checks.append({"kind": "cli", "check": "verdict", "argv": argv, "label": label,
                       "expect_exit": 0 if label[f"is_{prop}"] else 1})
    gauss = [{"kind": "cli", "check": "gaussian", "argv": list(a), "expect_exit": 0}
             for _ in range(cfg["gaussian_rounds"]) for a in GAUSSIAN_CHECKS]
    # spread the Gaussian probes evenly through the function checks
    jobs = []
    step = max(1, len(checks) // max(1, len(gauss)))
    for i, job in enumerate(checks):
        jobs.append(job)
        if i % step == step - 1 and gauss:
            jobs.append(gauss.pop(0))
    return jobs + gauss
