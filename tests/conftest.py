"""Fixtures shared by the test modules."""

import pytest

from cwclifford import core, cw, omega, qpair, search


@pytest.fixture
def gp_calls(monkeypatch):
    """The factors (a, b) of every gp call from now on, made through any
    module's name for gp or through Multivector's * operator."""
    calls = []

    def counted(a, b, gp=core.gp):
        calls.append((a, b))
        return gp(a, b)

    for module in (core, qpair, omega, cw, search):
        monkeypatch.setattr(module, "gp", counted)
    return calls
