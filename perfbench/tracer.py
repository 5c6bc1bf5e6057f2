"""Outside-in tracer: wraps ppdlab functions by name and derives layer metrics.

The program is not edited. When the tracer starts it looks up every name in
SPANNED and COUNTED and replaces the function, in its own module and in every
ppdlab module that imported it, by a wrapper. Spanned calls record
(name, tag, start, end, parent span, job id) in memory; counted calls (hot
leaves) only bump a counter. A name that no longer exists is reported as
missing. Caches are read through `cache_info()` before and after the jobs.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

LAYERS = ("groups", "intlinalg", "cyclotomic", "fourier", "ppd", "constructions",
          "cone", "gaussian", "serialize", "sweeps", "cli")

# Public functions of each module, plus private names some metrics need. Tiny
# scalar helpers (is_rational, scalar_eq, to_complex, ...) are not wrapped;
# their time counts in the caller's layer.
SPANNED = {
    "groups": ["make_group", "dual_group", "parse_group", "subgroup_from_generators",
               "subgroup_from_elements", "trivial_subgroup", "full_subgroup",
               "all_subgroups", "identity_hom", "compose_hom", "dual_hom", "annihilator",
               "quotient", "abelian_group_catalog"],
    "intlinalg": ["mat_mul", "smith_normal_form", "kernel_basis", "det"],
    "cyclotomic": ["real_abs", "scalar_inv", "real_max", "expand_in_cos_basis",
                   "cos_basis_string", "_refined_sign", "Cyc.inverse"],
    "fourier": ["counting_haar", "self_dual_haar", "fourier_transform", "inverse_transform",
                "dual_haar", "measure_from_function", "convolve", "pullback", "pushforward",
                "plancherel_check", "functions_max_abs_diff", "functions_equal"],
    "ppd": ["evaluate_function", "is_ppd", "is_good", "bochner_oracle", "spectral_min_sign",
            "normalize_function", "normalize_measure", "dual_measure", "normalized_dual",
            "stabilizer_subgroup", "descend_to_quotient", "sample_function", "sample_ppd",
            "sample_good", "sample_normalized_good"],
    "constructions": ["require_normalized_good", "restrict", "corestrict", "coset_average",
                      "corestriction_consistency", "direct_sum", "sum_projections",
                      "diagonal_hom", "external_product", "pointwise_product",
                      "ppd_times_good", "restrict_measure", "corestrict_measure"],
    "cone": ["ppd_cone_hrep", "is_interior", "is_member", "canonical_ray", "extremal_rays",
             "brute_force_rays", "field_of_definition_check", "self_duality_check"],
    "gaussian": ["gaussian_fourier_closed_form", "numeric_fourier", "gaussian_selfdual_check",
                 "schur_complement", "gaussian_corestriction_check", "counterexample_probe",
                 "lattice_sum", "gaussian_goodness_probe"],
    "serialize": ["parse_rational", "rational_to_str", "function_from_dict",
                  "function_to_dict", "measure_from_dict", "measure_to_dict",
                  "parse_generators"],
    "sweeps": ["random_even_function", "bochner_agreement_sweep", "structure_sweep",
               "corestriction_sweep", "product_closure_sweep", "mixed_product_sweep",
               "involution_sweep", "cone_membership_sweep", "cone_atlas", "full_sweep"],
    "cli": ["main", "build_parser", "cmd_check", "cmd_sweep", "cmd_verify_4_1", "cmd_cone",
            "cmd_cone_atlas", "cmd_restrict", "cmd_corestrict", "cmd_product",
            "cmd_convolve", "cmd_gaussian"],
}

COUNTED = {
    "groups": ["FiniteAbelianGroup.add_index", "FiniteAbelianGroup.neg_index"],
    "cyclotomic": ["real_sign", "unit_root"],
}

CACHES = {
    "groups.quotient": "groups._quotient_realization",
    "groups.all_subgroups": "groups._all_subgroups_cached",
    "fourier.exponent_table": "fourier.exponent_table",
    "cyclotomic.field": "cyclotomic.field",
}

# metric name -> span names whose outermost calls it counts and times
BUSY = {
    "ppd.bochner_oracle": ["ppd.bochner_oracle"],
    "ppd.spectral_min_sign": ["ppd.spectral_min_sign"],
    "ppd.evaluate_function": ["ppd.evaluate_function"],
    "ppd.stabilizer_descent": ["ppd.stabilizer_subgroup", "ppd.descend_to_quotient"],
    "ppd.sample": ["ppd.sample_function", "ppd.sample_ppd", "ppd.sample_good",
                   "ppd.sample_normalized_good"],
    "fourier.pullback": ["fourier.pullback"],
    "cyclotomic.inverse": ["cyclotomic.Cyc.inverse"],
    "cyclotomic.expand_in_cos_basis": ["cyclotomic.expand_in_cos_basis"],
    "cone.extremal_rays": ["cone.extremal_rays"],
    "cone.canonical_ray": ["cone.canonical_ray"],
    "cone.field_of_definition_check": ["cone.field_of_definition_check"],
    "cone.self_duality_check": ["cone.self_duality_check"],
    "constructions.corestriction_consistency": ["constructions.corestriction_consistency"],
}
TRANSFORMS = ("fourier.fourier_transform", "fourier.inverse_transform")
GAUSSIAN_PROBES = ("gaussian.gaussian_selfdual_check", "gaussian.gaussian_corestriction_check",
                   "gaussian.counterexample_probe", "gaussian.gaussian_goodness_probe")


def _arithmetic_mode(values, scale) -> str:
    exact = (int, Fraction)
    if all(isinstance(v, exact) for v in values) and isinstance(scale, exact):
        return "rational"
    if any(isinstance(v, (float, complex)) for v in values) or isinstance(scale, float):
        return "float"
    return "cyclotomic"


def _transform_tag(args):
    """(mode, |G|^2) of a transform call: a function and scale, or a measure."""
    try:
        obj = args[0]
        if hasattr(obj, "density"):
            values, scale = obj.density.values, obj.haar.scale
        else:
            values, scale = obj.values, args[1].scale
        return _arithmetic_mode(values, scale), obj.group.order ** 2
    except (AttributeError, IndexError, TypeError):
        return "unknown", 0


def _oracle_tag(args):
    try:
        mode = _arithmetic_mode(args[0].values, 1)
    except (AttributeError, IndexError, TypeError):
        return "unknown"
    return "field" if mode == "cyclotomic" else mode


TAGGERS = {"fourier.fourier_transform": _transform_tag,
           "fourier.inverse_transform": _transform_tag,
           "ppd.bochner_oracle": _oracle_tag}


def _resolve(path: str):
    """(owner, attribute, object) for "layer.name" or "layer.Class.method"."""
    layer, *rest = path.split(".")
    owner = sys.modules[f"ppdlab.{layer}"]
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1], getattr(owner, rest[-1])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.rays_out = 0
        self.job = -1
        self.missing: list[str] = []
        self._caches: dict = {}
        self._cache_start: dict = {}

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import ppdlab  # noqa: F401  (loads every module the names live in)

        for layer in LAYERS:
            __import__(f"ppdlab.{layer}")
        for layer, names in SPANNED.items():
            for name in names:
                self._wrap(f"{layer}.{name}", self._spanned)
        for layer, names in COUNTED.items():
            for name in names:
                self._wrap(f"{layer}.{name}", self._counted)
        for metric, path in CACHES.items():
            try:
                self._caches[metric] = _resolve(path)[2].cache_info
            except AttributeError:
                self.missing.append(path)

    def _wrap(self, path: str, make) -> None:
        try:
            owner, attr, fn = _resolve(path)
        except AttributeError:
            self.missing.append(path)
            return
        wrapper = make(path, fn)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for name, mod in list(sys.modules.items()):
            if name == "ppdlab" or name.startswith("ppdlab."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def _counted(self, path: str, fn):
        cell = self.counts.setdefault(path, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, path: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tagger = TAGGERS.get(path)
        tracer = self

        def spanned(*args, **kwargs):
            tag = tagger(args) if tagger else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (path, tag, t0, t1, parent, tracer.job)
            if path == "cone.extremal_rays":
                tracer.rays_out += len(getattr(result, "rays", None) or ())
            return result

        return spanned

    # -- per-run bookkeeping ---------------------------------------------------

    def start_jobs(self) -> None:
        self._cache_start = {m: info() for m, info in self._caches.items()}

    def metrics(self) -> dict:
        """Per-layer metrics of the finished jobs, by the names BENCHMARK.json lists."""
        spans = self.spans
        calls: dict[str, int] = {}
        for s in spans:
            calls[s[0]] = calls.get(s[0], 0) + 1
        count = {p: c[0] for p, c in self.counts.items()}

        self_s = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            self_s[s[0].split(".")[0]] += s[3] - s[2]
            if s[4] >= 0:
                self_s[self.spans[s[4]][0].split(".")[0]] -= s[3] - s[2]

        def ancestors(s):
            p = s[4]
            while p >= 0:
                s = self.spans[p]
                yield s
                p = s[4]

        def outermost(names):
            names = set(names)
            return [s for s in spans
                    if s[0] in names and not any(a[0] in names for a in ancestors(s))]

        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m["groups.add_index.calls"] = count.get("groups.FiniteAbelianGroup.add_index", 0)
        m["groups.neg_index.calls"] = count.get("groups.FiniteAbelianGroup.neg_index", 0)
        m["groups.quotient.calls"] = calls.get("groups.quotient", 0)
        for metric, info in self._caches.items():
            before, after = self._cache_start[metric], info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            m[f"{metric}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for metric in CACHES:
            m.setdefault(f"{metric}.hit_ratio", 0.0)

        for mode in ("rational", "field", "float"):
            m[f"ppd.bochner_oracle.{mode}.calls"] = sum(
                1 for s in spans if s[0] == "ppd.bochner_oracle" and s[1] == mode)
        for mode in ("rational", "cyclotomic", "float"):
            ts = [s for s in spans if s[0] in TRANSFORMS and s[1][0] == mode]
            m[f"fourier.transform.{mode}.calls"] = len(ts)
            m[f"fourier.transform.{mode}.busy_s"] = sum((s[3] - s[2] for s in ts), 0.0)
        m["fourier.character_terms"] = sum(s[1][1] for s in spans if s[0] in TRANSFORMS)

        for metric, names in BUSY.items():
            outer = outermost(names)
            m[f"{metric}.busy_s"] = sum((s[3] - s[2] for s in outer), 0.0)
            m[f"{metric}.calls"] = len(outer)

        sign_calls = count.get("cyclotomic.real_sign", 0)
        escalations = calls.get("cyclotomic._refined_sign", 0)
        m["cyclotomic.real_sign.calls"] = sign_calls
        m["cyclotomic.real_sign.escalations"] = escalations
        m["cyclotomic.real_sign.escalation_ratio"] = escalations / sign_calls if sign_calls else 0.0
        m["cyclotomic.unit_root.calls"] = count.get("cyclotomic.unit_root", 0)

        dd_canonical = sum(1 for s in spans if s[0] == "cone.canonical_ray"
                           and any(a[0] == "cone.extremal_rays" for a in ancestors(s)))
        m["cone.rays_out"] = self.rays_out
        m["cone.dd.useful_ratio"] = self.rays_out / dd_canonical if dd_canonical else 0.0
        m["cone.is_interior.calls"] = calls.get("cone.is_interior", 0)
        m["constructions.products.calls"] = (calls.get("constructions.external_product", 0)
                                             + calls.get("constructions.pointwise_product", 0))
        m["gaussian.probe.calls"] = sum(calls.get(n, 0) for n in GAUSSIAN_PROBES)
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\ttag\tstart\tend\tparent\tjob\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")
