"""JSON interchange for functions and measures.

Functions serialize as {"group": "Z4xZ2", "values": [[re, im], ...]} and
measures add {"haar_scale": "1/4"}.  In exact mode, numeric entries must be
integers or rational strings like "3/4"; float mode accepts any finite real
number or rational string.  Booleans, NaN and infinities are rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import to_complex, unit_root
from .fourier import GroupFunction, HaarScale, ScaledMeasure
from .groups import FiniteAbelianGroup, format_group, parse_group


def parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError(f"not a rational value: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}")
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"not a finite value: {v!r}")
        if v != int(v):
            raise ValueError(
                f"non-integer float {v!r} in exact mode; write it as a rational string"
            )
        return Fraction(int(v))
    raise ValueError(f"not a rational value: {v!r}")


def _parse_value(entry, mode: str):
    if isinstance(entry, (int, float, str)):
        re_part, im_part = entry, 0
    elif isinstance(entry, (list, tuple)) and len(entry) == 2:
        re_part, im_part = entry
    else:
        raise ValueError(f"bad value entry {entry!r}")
    if mode == "exact":
        re_q = parse_rational(re_part)
        im_q = parse_rational(im_part)
        if im_q == 0:
            return re_q
        return re_q + im_q * unit_root(4, 1)
    return complex(_real(re_part), _real(im_part))


def _real(v) -> float:
    """A finite float-mode number: rational strings like "3/4" parse as in exact mode."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"not a real value: {v!r}")
    try:
        x = float(parse_rational(v) if isinstance(v, str) else v)
    except OverflowError:  # an int or rational past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"not a finite value: {v!r}")
    return x


def _format_value(v, exact: bool):
    if exact and isinstance(v, (int, Fraction)):
        return [str(Fraction(v)), "0"]
    c = to_complex(v)
    return [c.real, c.imag]


def function_from_dict(d: dict, mode: str = "exact") -> GroupFunction:
    if not isinstance(d, dict):
        raise ValueError("a function file holds a JSON object")
    if not isinstance(d["group"], str) or not isinstance(d["values"], list):
        raise ValueError('"group" must be a string and "values" a list')
    group = parse_group(d["group"])
    values = [_parse_value(v, mode) for v in d["values"]]
    return GroupFunction(group, values)


def function_to_dict(f: GroupFunction) -> dict:
    return {
        "group": format_group(f.group),
        "values": [_format_value(v, f.mode.exact) for v in f.values],
    }


def measure_from_dict(d: dict, mode: str = "exact") -> ScaledMeasure:
    f = function_from_dict(d, mode)
    raw = d.get("haar_scale", "1")
    scale = parse_rational(raw) if mode == "exact" else _real(raw)
    return ScaledMeasure(f.group, f, HaarScale(f.group, scale))


def measure_to_dict(mu: ScaledMeasure) -> dict:
    d = function_to_dict(mu.density)
    if mu.mode.exact:
        d["haar_scale"] = str(Fraction(mu.haar.scale))
    else:
        d["haar_scale"] = float(mu.haar.scale)
    return d


def parse_generators(text, G: FiniteAbelianGroup):
    """Generator lists like [[2],[1,0]]; accepts a JSON string or parsed list."""
    import json

    gens = json.loads(text) if isinstance(text, str) else text
    if not isinstance(gens, list):
        raise ValueError("generators must be a list of residue tuples")
    out = []
    for g in gens:
        if isinstance(g, int):
            g = [g]
        if not isinstance(g, list) or len(g) != G.rank:
            raise ValueError(f"generator {g!r} has wrong rank for {format_group(G)}")
        if any(isinstance(x, bool) or not isinstance(x, int) for x in g):
            raise ValueError(f"generator {g!r} has a residue that is not an integer")
        out.append(tuple(g))
    return out
