import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdlab import cli
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
    report_text,
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


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(
        lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "\u00e9\u6f22\U0001f600\ud800"]),
)
# sort_keys needs comparable keys: one dict draws strings, numbers or None
_KEYS = (st.text(), st.integers() | st.floats() | st.booleans(), st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        *(st.dictionaries(keys, inner, max_size=4) for keys in _KEYS),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_report_text_equals_indented_sorted_json(obj):
    assert report_text(obj) == _json_text(obj)


def test_report_text_writes_subclasses_as_json_does():
    import enum

    class Level(enum.IntEnum):
        LOW = 1

    class Name(str):
        pass

    class Gap(float):
        pass

    obj = {Name("k"): [Level.LOW, Name('a"b'), Gap(0.5), Gap("nan")],
           "m": {Gap(2.5): Name(""), Level.LOW: Gap(-0.0)}}
    assert report_text(obj) == _json_text(obj)


def test_report_text_rejects_what_json_rejects():
    for obj in ({1: 0, "a": 0}, [Fraction(1, 2)], {(1,): 0}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            _json_text(obj)
        with pytest.raises(TypeError):
            report_text(obj)


def _cli_payload(monkeypatch, argv, expected_code):
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda payload, out: seen.append(payload))
    assert cli.main(argv) == expected_code
    return seen[0]


def test_report_text_equals_json_on_reports(tmp_path, monkeypatch):
    not_ppd = tmp_path / "not_ppd.json"
    not_ppd.write_text(json.dumps({"group": "Z4", "values": [1, 2, 1, 2]}))
    cases = [
        (["cone", "Z12", "--rays"], 0),
        (["cone-atlas", "--max-order", "8"], 0),
        (["check", str(not_ppd)], 1),
        (["gaussian", "--check", "counterexample", "--terms", "4", "--points", "64"], 0),
    ]
    for argv, code in cases:
        payload = _cli_payload(monkeypatch, argv, code)
        assert report_text(payload) == _json_text(payload)
    assert payload["check"] == "counterexample"
    verdict = _cli_payload(monkeypatch, cases[2][0], 1)
    assert verdict["witnesses"]
