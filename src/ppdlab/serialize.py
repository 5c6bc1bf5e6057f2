"""JSON interchange for functions and measures.

Functions serialize as {"group": "Z4xZ2", "values": [[re, im], ...]} and
measures add {"haar_scale": "1/4"}.  In exact mode, numeric entries must be
integers or rational strings like "3/4"; float mode accepts any finite real
number or rational string.  Booleans, NaN and infinities are rejected, and
so is a float output that is not finite.  An exact output writes both parts
as rational strings, so it reads back as input.

Reports are written by report_text, whose output equals
json.dumps(payload, indent=2, sort_keys=True) byte for byte.  With an indent,
json drops its C encoder for a generator-based pure-Python one; report_text
writes the same text in one recursive pass, quoting strings with json's C
escaper, and joins the parts once.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .cyclotomic import is_rational, to_complex, unit_root
from .fourier import EXACT, FLOAT, GroupFunction, HaarScale, ScaledMeasure
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
    """[re, im]; an exact value is a Gaussian rational a + bi, written as the
    rational strings of a and b, which parse back to the same value."""
    if exact:
        if is_rational(v):
            return [str(Fraction(v)), "0"]
        w = v.conjugate()
        return [str((v + w) / 2), str((v - w) * unit_root(4, -1) / 2)]
    c = to_complex(v)
    if not cmath.isfinite(c):
        raise ValueError("a computed float value is not finite")
    return [c.real, c.imag]


def function_from_dict(d: dict, mode: str = "exact") -> GroupFunction:
    if not isinstance(d, dict):
        raise ValueError("a function file holds a JSON object")
    if not isinstance(d["group"], str) or not isinstance(d["values"], list):
        raise ValueError('"group" must be a string and "values" a list')
    group = parse_group(d["group"])
    values = [_parse_value(v, mode) for v in d["values"]]
    return GroupFunction._with_mode(group, values, EXACT if mode == "exact" else FLOAT)


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


def report_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), written in one pass."""
    parts: list[str] = []
    _write(payload, parts.append, "\n")
    return "".join(parts)


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# json's scalars by exact type; _write tests a subclass as json does
_SCALAR_TEXT = {str: _quote, bool: {True: "true", False: "false"}.__getitem__,
                int: int.__repr__, float: _float_text, type(None): lambda _: "null"}


def _scalar_text(o):
    """o's text if json writes it as a scalar (a str quoted), else None."""
    for kind, text in _SCALAR_TEXT.items():
        if isinstance(o, kind):
            return text(o)
    return None


def _key_text(k) -> str:
    """A dict key as json writes it: quoted, after converting a non-string."""
    text = _scalar_text(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return text if isinstance(k, str) else _quote(text)


def _write(o, put, nl: str) -> None:
    """Append o's text through put; nl is the newline and indent of o's line."""
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        sep = "[" + inner
        for v in o:
            text = _SCALAR_TEXT.get(type(v))
            if text is None:  # a container, or a scalar of a subclass
                put(sep)
                _write(v, put, inner)
            else:
                put(sep + text(v))
            sep = "," + inner
        put(nl + "]" if o else "[]")
    elif isinstance(o, dict):
        sep = "{" + inner
        for k, v in sorted(o.items()):
            key = sep + (_quote(k) if type(k) is str else _key_text(k)) + ": "
            text = _SCALAR_TEXT.get(type(v))
            if text is None:
                put(key)
                _write(v, put, inner)
            else:
                put(key + text(v))
            sep = "," + inner
        put(nl + "}" if o else "{}")
    else:
        text = _scalar_text(o)
        if text is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        put(text)
