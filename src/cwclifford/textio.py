"""Text grammar and JSON schemas for multivectors and related inputs.

A multivector is written as a '+'-joined list of terms ``<complex> e_{i1,i2}``
with the scalar blade spelled ``e_{}``.  Complex literals come in three
shapes: ``a`` (real), ``bi`` (imaginary) and ``(a+bi)``.  Coefficients are
printed with ``repr`` so exactly representable values round-trip bit for
bit.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from typing import Any

import numpy as np

from .core import Multivector, blade_from_indices, blade_indices, grade
from .errors import InputError

# One number pattern for every coefficient shape: ASCII digits only, no
# underscores, no inf or nan.
_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_BLADE_RE = re.compile(r"e_\{(?P<idx>[\d,\s]*)\}", re.ASCII)
_COEFF_RE = re.compile(
    rf"(?P<re>{_NUM})"                                    # a
    rf"|(?P<im>{_NUM}|[+-]?)\s*i"                          # bi
    rf"|\(\s*(?P<pre>{_NUM})\s*(?P<sign>[+-])\s*(?![+-])"  # (a+bi)
    rf"(?P<pim>{_NUM})?\s*i\s*\)", re.ASCII)


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_coeff(z: complex) -> str:
    re_, im = z.real, z.imag
    if im == 0.0:
        return _format_float(re_)
    if re_ == 0.0:
        return _format_float(im) + "i"
    sign = "-" if im < 0 else "+"
    return f"({_format_float(re_)}{sign}{_format_float(abs(im))}i)"


def _parse_coeff(text: str) -> complex:
    text = text.strip()
    if not text:
        raise InputError("empty coefficient in multivector term")
    m = _COEFF_RE.fullmatch(text)
    if m is None:
        raise InputError(f"bad coefficient literal {text!r}")
    if m["re"] is not None:
        return complex(float(m["re"]), 0.0)
    if m["pre"] is None:
        im = m["im"]
        return complex(0.0, float(im + "1" if im in ("", "+", "-") else im))
    im = float(m["pim"] or 1.0)
    return complex(float(m["pre"]), -im if m["sign"] == "-" else im)


def multivector_to_text(a: Multivector) -> str:
    if not a._terms:
        return "0 e_{}"
    parts = []
    for mask in sorted(a._terms, key=lambda m: (grade(m), m)):
        idx = ",".join(str(i) for i in blade_indices(mask))
        parts.append(f"{_format_coeff(a._terms[mask])} e_{{{idx}}}")
    return " + ".join(parts)


def multivector_from_text(text: str, dim: int) -> Multivector:
    """Parse the term-list grammar; raises InputError on malformed input."""
    if not isinstance(text, str):
        raise InputError(f"a multivector must be a string, got {text!r}")
    terms = {}
    pos = 0
    first = True
    matched = False
    for m in _BLADE_RE.finditer(text):
        seg = text[pos:m.start()]
        if not first:
            seg = seg.lstrip()
            if not seg.startswith("+"):
                raise InputError(f"missing '+' between terms near {seg!r}")
            seg = seg[1:]
        coeff = _parse_coeff(seg)
        slots = m["idx"].split(",") if m["idx"].strip() else []
        if not all(t.strip().isdigit() for t in slots):
            raise InputError(f"empty or malformed index slot in {m[0]!r}")
        indices = [int(t) for t in slots]
        if any(i > dim for i in indices):
            raise InputError(f"index out of range in {text[pos:m.end()]!r} for dim {dim}")
        try:
            mask = blade_from_indices(indices)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        total = terms[mask] = terms.get(mask, 0j) + coeff
        if not (cmath.isfinite(coeff * coeff) and cmath.isfinite(total * total)):
            raise InputError(f"coefficient {seg.strip()!r}, or the sum of its "
                             "blade's terms, is not finite or its square "
                             "overflows")
        pos = m.end()
        first = False
        matched = True
    if not matched:
        raise InputError(f"no multivector terms found in {text!r}")
    if text[pos:].strip():
        raise InputError(f"trailing garbage after last term: {text[pos:]!r}")
    return Multivector(dim, terms)


# -- JSON file schemas -------------------------------------------------------

def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from exc


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise InputError(f"{path}: missing required key {key!r}")
    return doc[key]


def _load_object(path: str):
    """The JSON object in the file and its ``dim``, a positive integer."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    dim = _require(doc, "dim", path)
    if type(dim) is not int or dim < 1:
        raise InputError(f"{path}: dim must be a positive integer")
    return doc, dim


def _is_finite_real(x) -> bool:
    """A JSON number, not a bool, whose square is a finite double."""
    try:
        return type(x) in (int, float) and math.isfinite(x * x)
    except OverflowError:  # an integer beyond the double range
        return False


def _real_matrix(doc: dict, key: str, dim: int, path: str) -> np.ndarray:
    """doc[key]: a row-major flat list of dim*dim reals with finite squares."""
    entries = _require(doc, key, path)
    if not isinstance(entries, list) or len(entries) != dim * dim or \
            not all(_is_finite_real(x) for x in entries):
        raise InputError(f"{path}: {key} must be a flat list of {dim * dim} "
                         "finite reals whose squares are finite")
    return np.array(entries, dtype=float).reshape(dim, dim)


def load_pair_file(path: str):
    """pair.json: {dim, c, d} with c, d in the text grammar."""
    doc, dim = _load_object(path)
    c = multivector_from_text(_require(doc, "c", path), dim)
    d = multivector_from_text(_require(doc, "d", path), dim)
    return dim, c, d


def load_b_file(path: str):
    """b.json: {dim, entries} with entries a row-major real n*n list."""
    doc, dim = _load_object(path)
    return dim, _real_matrix(doc, "entries", dim, path)


def load_params_file(path: str):
    """params.json: {dim, B, a, b, c, d, e} (B row-major, rest text grammar)."""
    doc, dim = _load_object(path)
    bmat = _real_matrix(doc, "B", dim, path)
    fields = {}
    for name in ("a", "b", "c", "d", "e"):
        fields[name] = multivector_from_text(_require(doc, name, path), dim)
    return dim, bmat, fields


# -- deterministic JSON output ----------------------------------------------

def _fmt_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if not math.isfinite(v):
            raise ValueError(f"{v} is not representable in the JSON report")
        return f"{v:.17g}"
    if isinstance(x, complex):
        return dumps({"re": x.real, "im": x.imag})
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)!r}")


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats with 17 significant digits."""
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, Multivector):
        return json.dumps(multivector_to_text(obj))
    return _fmt_scalar(obj)
