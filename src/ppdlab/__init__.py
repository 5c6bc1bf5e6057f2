"""Positive positive-definite functions and measures on finite abelian groups.

Exact verification of duality, restriction/corestriction, products, and the
polyhedral cone of such functions on finite abelian groups, plus desk-scale
numeric probes for Gaussians on R^n.

The seven `gaussian` names (GridQuadrature, QuadraticFormSPD,
counterexample_probe, gaussian_corestriction_check,
gaussian_fourier_closed_form, gaussian_goodness_probe, numeric_fourier) are
served by the module `__getattr__` on first use, so that importing the package
leaves numpy unloaded: only they and the float Bochner oracle use it.
"""

from .cone import (
    EvenBasis,
    PolyhedralCone,
    brute_force_rays,
    extremal_rays,
    field_of_definition_check,
    is_interior,
    is_member,
    ppd_cone_hrep,
    self_duality_check,
)
from .constructions import (
    CorestrictionReport,
    corestrict,
    corestrict_measure,
    corestriction_consistency,
    coset_average,
    external_product,
    pointwise_product,
    ppd_times_good,
    restrict,
    restrict_measure,
)
from .fourier import (
    GroupFunction,
    HaarScale,
    ScaledMeasure,
    convolve,
    counting_haar,
    dual_haar,
    fourier_transform,
    inverse_transform,
    plancherel_check,
    pullback,
    pushforward,
)
from .groups import (
    FiniteAbelianGroup,
    Homomorphism,
    QuotientGroup,
    Subgroup,
    all_subgroups,
    annihilator,
    dual_group,
    dual_hom,
    hom_apply,
    hom_validate,
    make_group,
    pairing,
    parse_group,
    quotient,
    subgroup_from_generators,
)
from .ppd import (
    PpdVerdict,
    bochner_oracle,
    descend_to_quotient,
    dual_measure,
    normalize_function,
    normalize_measure,
    normalized_dual,
    sample_good,
    sample_ppd,
    stabilizer_subgroup,
)
from .sweeps import bochner_agreement_sweep, cone_membership_sweep, structure_sweep

__version__ = "0.1.0"

__all__ = [
    "EvenBasis",
    "PolyhedralCone",
    "brute_force_rays",
    "extremal_rays",
    "field_of_definition_check",
    "is_interior",
    "is_member",
    "ppd_cone_hrep",
    "self_duality_check",
    "CorestrictionReport",
    "corestrict",
    "corestrict_measure",
    "corestriction_consistency",
    "coset_average",
    "external_product",
    "pointwise_product",
    "ppd_times_good",
    "restrict",
    "restrict_measure",
    "GroupFunction",
    "HaarScale",
    "ScaledMeasure",
    "convolve",
    "counting_haar",
    "dual_haar",
    "fourier_transform",
    "inverse_transform",
    "plancherel_check",
    "pullback",
    "pushforward",
    "GridQuadrature",
    "QuadraticFormSPD",
    "counterexample_probe",
    "gaussian_corestriction_check",
    "gaussian_fourier_closed_form",
    "gaussian_goodness_probe",
    "numeric_fourier",
    "FiniteAbelianGroup",
    "Homomorphism",
    "QuotientGroup",
    "Subgroup",
    "all_subgroups",
    "annihilator",
    "dual_group",
    "dual_hom",
    "hom_apply",
    "hom_validate",
    "make_group",
    "pairing",
    "parse_group",
    "quotient",
    "subgroup_from_generators",
    "PpdVerdict",
    "bochner_oracle",
    "descend_to_quotient",
    "dual_measure",
    "normalize_function",
    "normalize_measure",
    "normalized_dual",
    "sample_good",
    "sample_ppd",
    "stabilizer_subgroup",
    "bochner_agreement_sweep",
    "cone_membership_sweep",
    "structure_sweep",
]


def __getattr__(name):
    # every other name of __all__ is bound above, so only the gaussian ones get here
    if name in __all__:
        from . import gaussian

        return getattr(gaussian, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
