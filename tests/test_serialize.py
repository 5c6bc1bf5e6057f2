from fractions import Fraction

import pytest

from ppdlab.cyclotomic import scalar_eq, unit_root
from ppdlab.fourier import GroupFunction, HaarScale, ScaledMeasure
from ppdlab.groups import make_group
from ppdlab.serialize import (
    function_from_dict,
    function_to_dict,
    measure_from_dict,
    measure_to_dict,
    parse_generators,
    parse_rational,
)

Z4 = make_group([4])


def test_parse_rational():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5.0) == Fraction(5)
    with pytest.raises(ValueError):
        parse_rational(0.1)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational(None)


def test_exact_values_and_haar_scale_print_as_fractions():
    Z2 = make_group([2])
    f = GroupFunction(Z2, [Fraction(3), Fraction(-1, 4)])
    assert function_to_dict(f)["values"] == [["3", "0"], ["-1/4", "0"]]
    mu = ScaledMeasure(Z2, f, HaarScale(Z2, Fraction(1, 2)))
    d = measure_to_dict(mu)
    assert d["values"] == [["3", "0"], ["-1/4", "0"]]
    assert d["haar_scale"] == "1/2"


def test_function_roundtrip_exact():
    f = GroupFunction(
        Z4, [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)]
    )
    d = function_to_dict(f)
    assert d == {
        "group": "Z4",
        "values": [["1", "0"], ["1/2", "0"], ["1/4", "0"], ["1/2", "0"]],
    }
    back = function_from_dict(d, mode="exact")
    assert back == f


def test_function_gaussian_rational_entries():
    d = {"group": "Z2", "values": [[1, 0], ["1/2", "1/3"]]}
    f = function_from_dict(d, mode="exact")
    assert f.mode.exact
    expected = Fraction(1, 2) + Fraction(1, 3) * unit_root(4, 1)
    assert scalar_eq(f.values[1], expected)


def test_function_scalar_shorthand_and_float_mode():
    f = function_from_dict({"group": "Z2", "values": [1, "1/2"]}, mode="exact")
    assert f.values == (Fraction(1), Fraction(1, 2))
    g = function_from_dict(
        {"group": "Z2", "values": [[0.25, 0.5], 1]}, mode="float"
    )
    assert g.values == (0.25 + 0.5j, 1 + 0j)
    assert not g.mode.exact


def test_function_from_dict_errors():
    with pytest.raises(ValueError):
        function_from_dict({"group": "Z2", "values": [[1, 0, 0], [1, 0]]})
    with pytest.raises(ValueError):
        function_from_dict({"group": "Z2", "values": [[0.5, 0], [1, 0]]})
    with pytest.raises(ValueError):
        function_from_dict({"group": "Z2", "values": [[1, 0]]})  # wrong length


def test_measure_roundtrip():
    mu = ScaledMeasure(
        Z4,
        GroupFunction(Z4, [Fraction(2), Fraction(1), Fraction(0), Fraction(1)]),
        HaarScale(Z4, Fraction(1, 4)),
    )
    d = measure_to_dict(mu)
    assert d["haar_scale"] == "1/4"
    back = measure_from_dict(d, mode="exact")
    assert back.haar.scale == Fraction(1, 4)
    assert back.density == mu.density
    flo = measure_from_dict(d, mode="float")
    assert flo.haar.scale == pytest.approx(0.25)


def test_measure_default_scale():
    d = {"group": "Z2", "values": [[1, 0], [1, 0]]}
    mu = measure_from_dict(d)
    assert mu.haar.scale == Fraction(1)


def test_parse_generators():
    G = make_group([4, 2])
    assert parse_generators("[[2, 0], [0, 1]]", G) == [(2, 0), (0, 1)]
    Z8 = make_group([8])
    assert parse_generators("[2]", Z8) == [(2,)]
    assert parse_generators([[2]], Z8) == [(2,)]
    with pytest.raises(ValueError):
        parse_generators("[[1, 2, 3]]", G)
    with pytest.raises(ValueError):
        parse_generators('{"a": 1}', G)
