import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cwclifford.core import Multivector, random_multivector
from cwclifford.errors import InputError
from cwclifford.textio import (dumps, multivector_from_text,
                               multivector_to_text)


def test_basic_round_trips():
    n = 3
    cases = [
        Multivector.zero(n),
        Multivector.unit(n),
        Multivector.blade(n, 0b011, 2.5),
        Multivector.blade(n, 0b101, -1.5j),
        Multivector.blade(n, 0b111, complex(1.25, -2.5)),
        Multivector.unit(n) + Multivector.blade(n, 0b001, -3.0),
    ]
    for a in cases:
        text = multivector_to_text(a)
        assert multivector_from_text(text, n) == a


def test_grammar_forms():
    n = 2
    assert multivector_from_text("2 e_{1}", n) == Multivector.blade(n, 0b01, 2.0)
    assert multivector_from_text("1 e_{} + -1 e_{1,2}", n) == \
        Multivector.unit(n) - Multivector.blade(n, 0b11)
    assert multivector_from_text("2i e_{1}", n) == Multivector.blade(n, 0b01, 2j)
    assert multivector_from_text("(1+2i) e_{2}", n) == \
        Multivector.blade(n, 0b10, complex(1, 2))
    assert multivector_from_text("(1.5-2i) e_{}", n) == \
        Multivector.scalar(n, complex(1.5, -2))
    assert multivector_from_text("0 e_{}", n) == Multivector.zero(n)
    assert multivector_from_text("i e_{} + -i e_{2} + +i e_{1}", n) == \
        Multivector(n, {0: 1j, 0b10: -1j, 0b01: 1j})
    # the terms of a repeated blade are summed
    assert multivector_from_text("1 e_{1} + 2i e_{1} + (0.5-1i) e_{1}", n) == \
        Multivector.blade(n, 0b01, complex(1.5, 1))
    assert multivector_from_text("1e150 e_{1} + -1e150 e_{1}", n) == \
        Multivector.zero(n)


def test_scientific_notation_round_trip():
    n = 2
    a = Multivector.blade(n, 0b01, 1e16) + Multivector.scalar(n, 3e-7)
    assert multivector_from_text(multivector_to_text(a), n) == a


def test_parse_errors():
    with pytest.raises(InputError):
        multivector_from_text("2 f_{1}", 2)
    with pytest.raises(InputError):
        multivector_from_text("2 e_{3}", 2)
    with pytest.raises(InputError):
        multivector_from_text("garbage", 2)
    with pytest.raises(InputError):
        multivector_from_text("1 e_{} 2 e_{1}", 2)
    with pytest.raises(InputError):
        multivector_from_text("1 e_{1,1}", 2)
    for text in [
            "1e154 e_{1} + 1e154 e_{1}",   # each square is finite, the sum's not
            "1e154i e_{1} + 1e154i e_{1}",
            "1e200 e_{1} + -1e200 e_{1}", "inf e_{1}", "nan e_{1}",
            "1_0 e_{1}", "1_0i e_{1}", "(1_0+2i) e_{1}", "(1+-2i) e_{1}",
            "\u0661 e_{1}", "\u0661i e_{1}", "(\u0661+2i) e_{1}",
            "1 e_{\u0661}", "1 e_{1,,2}", "1 e_{,1}", "1 e_{1,}", "1 e_{,}",
            "1 e_{1 2}"]:
        with pytest.raises(InputError):
            multivector_from_text(text, 2)


def test_random_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    for n in (1, 3, 5):
        for _ in range(20):
            a = random_multivector(rng, n, 6)
            assert multivector_from_text(multivector_to_text(a), n) == a


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7),
                          st.floats(allow_nan=False, allow_infinity=False,
                                    width=32),
                          st.floats(allow_nan=False, allow_infinity=False,
                                    width=32)),
                max_size=5))
def test_round_trip_property(entries):
    terms = {}
    for mask, re_, im in entries:
        terms[mask] = terms.get(mask, 0) + complex(re_, im)
    a = Multivector(3, terms)
    assert multivector_from_text(multivector_to_text(a), 3) == a


def test_dumps_deterministic():
    doc = {"b": 1.0 / 3.0, "a": [1, 2.5, True, None], "c": "x"}
    out = dumps(doc)
    assert out == dumps(dict(reversed(list(doc.items()))))
    assert "0.33333333333333331" in out


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   complex(1.0, float("inf"))])
def test_dumps_rejects_infinity(value):
    with pytest.raises(ValueError):
        dumps({"x": [value]})
