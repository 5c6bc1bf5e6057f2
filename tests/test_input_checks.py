"""Input checks of the public API and the helpers its callers reach: each bad
input raises one exception type with one exact message."""

from fractions import Fraction

import pytest

from ppdlab import (
    EvenBasis,
    GroupFunction,
    HaarScale,
    Homomorphism,
    ScaledMeasure,
    annihilator,
    corestrict,
    corestrict_measure,
    counting_haar,
    dual_hom,
    field_of_definition_check,
    hom_apply,
    make_group,
    normalized_dual,
    pairing,
    ppd_cone_hrep,
    ppd_times_good,
    pullback,
    pushforward,
    quotient,
    restrict,
    restrict_measure,
    self_duality_check,
    stabilizer_subgroup,
    subgroup_from_generators,
)
from ppdlab.constructions import PreconditionError
from ppdlab.cyclotomic import unit_root
from ppdlab.groups import subgroup_from_elements
from ppdlab.ppd import spectral_min_sign

Z2, Z4, Z5 = make_group([2]), make_group([4]), make_group([5])
Z2xZ2 = make_group([2, 2])
GOOD = GroupFunction(Z4, [4, 1, 1, 1])  # good, f(0) = 4
NORMALIZED_GOOD = GroupFunction(Z4, [1, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)])
NOT_PPD = GroupFunction(Z4, [1, 2, 1, 2])
ROOTS_OF_UNITY = GroupFunction(Z5, [unit_root(5, k) for k in range(5)])  # irrational
OTHER_SUBGROUP = subgroup_from_generators(Z2, [(1,)])  # a subgroup of Z2, not of Z4
INCLUSION = Homomorphism(Z2, Z4, ((2,),))
WRONG_GROUP = "subgroup belongs to a different group"
NO_RAYS = "V-representation not computed yet"


def measure(f):
    return ScaledMeasure(f.group, f, counting_haar(f.group))


CASES = {
    "subgroup without 0": (
        lambda: subgroup_from_elements(Z4, [1, 3]), ValueError, "subgroup must contain 0"),
    "subgroup index out of range": (
        lambda: subgroup_from_elements(Z4, [0, 7]), ValueError,
        "element index 7 out of range"),
    "subgroup not closed under negation": (
        lambda: subgroup_from_elements(Z4, [0, 1]), ValueError,
        "element set not closed under negation"),
    "subgroup not closed under addition": (
        lambda: subgroup_from_elements(Z2xZ2, [0, 1, 2]), ValueError,
        "element set not closed under addition"),
    "Haar scale zero": (
        lambda: HaarScale(Z4, 0), ValueError, "Haar scale must be positive, got 0"),
    "Haar scale infinite": (
        lambda: HaarScale(Z4, float("inf")), ValueError,
        "Haar scale must be positive and finite, got inf"),
    "Haar scale string": (
        lambda: HaarScale(Z4, "1"), TypeError, "unsupported Haar scale type <class 'str'>"),
    "measure on two groups": (
        lambda: ScaledMeasure(Z2, GOOD, counting_haar(Z2)), ValueError,
        "measure components live on different groups"),
    "pullback on the wrong group": (
        lambda: pullback(INCLUSION, GroupFunction(Z2, [1, 0])), ValueError,
        "pullback needs a function on the homomorphism target"),
    "pushforward on the wrong group": (
        lambda: pushforward(INCLUSION, measure(GOOD)), ValueError,
        "pushforward needs a measure on the homomorphism source"),
    "restrict to another group's subgroup": (
        lambda: restrict(GOOD, OTHER_SUBGROUP), ValueError, WRONG_GROUP),
    "corestrict to another group's subgroup": (
        lambda: corestrict(GOOD, OTHER_SUBGROUP), ValueError, WRONG_GROUP),
    "restrict_measure to another group's subgroup": (
        lambda: restrict_measure(measure(GOOD), OTHER_SUBGROUP), ValueError, WRONG_GROUP),
    "corestrict_measure to another group's subgroup": (
        lambda: corestrict_measure(measure(GOOD), OTHER_SUBGROUP), ValueError, WRONG_GROUP),
    "annihilator of another group's subgroup": (
        lambda: annihilator(Z4, OTHER_SUBGROUP), ValueError, WRONG_GROUP),
    "quotient by another group's subgroup": (
        lambda: quotient(Z4, OTHER_SUBGROUP), ValueError, WRONG_GROUP),
    "ppd_times_good first factor not PPD": (
        lambda: ppd_times_good(NOT_PPD, GOOD), PreconditionError,
        "ppd_times_good needs a PPD first factor"),
    "ppd_times_good first factor not normalized": (
        lambda: ppd_times_good(GOOD, GOOD), PreconditionError,
        "ppd_times_good needs a normalized first factor"),
    "ppd_times_good second factor not good": (
        lambda: ppd_times_good(NORMALIZED_GOOD, NOT_PPD), PreconditionError,
        "ppd_times_good needs a good second factor"),
    "restrict_measure of a density that is not good": (
        lambda: restrict_measure(measure(NOT_PPD), subgroup_from_generators(Z4, [(2,)])),
        PreconditionError, "restrict_measure needs a measure with a good density"),
    "spectral_min_sign on irrational values": (
        lambda: spectral_min_sign(ROOTS_OF_UNITY), ValueError, "spectral_min_sign expects rational exact values"),
    "spectral_min_sign on a function that is not even": (
        lambda: spectral_min_sign(GroupFunction(Z4, [1, 2, 3, 4])), ValueError,
        "spectral_min_sign expects an even function"),
    "normalized_dual of an unnormalized function": (
        lambda: normalized_dual(GOOD), ValueError,
        "normalized_dual needs a normalized input, f(0)=4"),
    "stabilizer of a function that is not PPD": (
        lambda: stabilizer_subgroup(NOT_PPD), ValueError,
        "stabilizer is defined for PPD functions"),
    "hom_apply with the wrong rank": (
        lambda: hom_apply(INCLUSION, (1, 0)), ValueError,
        "element (1, 0) has wrong rank for Z2"),
    "homomorphism matrix of the wrong shape": (
        lambda: Homomorphism(Z2, Z4, ((1, 0),)), ValueError,
        "homomorphism matrix has wrong shape"),
    "dual of an ill-defined homomorphism": (  # hom_validate's message
        lambda: dual_hom(Homomorphism(Z2, Z4, ((1,),))), ValueError,
        "ill-defined homomorphism: 2 * 1 != 0 mod 4 (source gen 0, target coord 0)"),
    "pairing with a non-element": (
        lambda: pairing(Z4, (1,), (4,)), ValueError, "(4,) is not an element of Z4"),
    "element index out of range": (
        lambda: Z4.element(4), IndexError, "element index 4 out of range for Z4"),
    "negative index out of range": (
        lambda: Z4.neg_index(-1), IndexError, "element index -1 out of range for Z4"),
    "field report before rays": (
        lambda: field_of_definition_check(ppd_cone_hrep(Z4)), ValueError, NO_RAYS),
    "self-duality before rays": (
        lambda: self_duality_check(ppd_cone_hrep(Z4)), ValueError, NO_RAYS),
    "even vector of a function on another group": (
        lambda: EvenBasis(Z4).vector_from_function(GroupFunction(Z2, [1, 0])), ValueError,
        "function lives on a different group"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_public_input_check_raises_its_message(case):
    call, exc, message = CASES[case]
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message
