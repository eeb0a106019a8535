"""Shared strategies and helpers for the test suite."""

import importlib
import pkgutil

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import shzeta
from shzeta import ezzeta
from shzeta.shapes import Partition

# Two runs of the suite draw the same cases: a fixed seed, no example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@st.composite
def partitions(draw, max_size: int = 12, max_rows: int = 5, max_cols: int = 6):
    """Non-empty partitions with at most ``max_size`` cells."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    parts = []
    prev = max_cols
    budget = max_size
    for _ in range(rows):
        hi = min(prev, budget)
        if hi < 1:
            break
        p = draw(st.integers(min_value=1, max_value=hi))
        parts.append(p)
        prev = p
        budget -= p
    return Partition(tuple(parts))


@pytest.fixture
def built(monkeypatch):
    """Counts the power tables built, by pass: a value table has a complex
    exponent, a |.| table the real part.  Every ``neg_power`` call in the
    package counts, in whichever module binds the name."""
    counts = {"value": 0, "abs": 0}
    neg_power = ezzeta.neg_power

    def spy(base, s):
        counts["value" if isinstance(s, complex) else "abs"] += 1
        return neg_power(base, s)

    for info in pkgutil.iter_modules(shzeta.__path__):
        module = importlib.import_module(f"shzeta.{info.name}")
        if getattr(module, "neg_power", None) is neg_power:
            monkeypatch.setattr(module, "neg_power", spy)
    return counts


@pytest.fixture
def summed(monkeypatch):
    """The arguments of every kernel sum run (``ezzeta._sum_layers``), one
    tuple per run: a result kept in a ``power_table_scope`` runs none."""
    calls = []
    body = ezzeta._sum_layers
    monkeypatch.setattr(ezzeta, "_sum_layers", lambda *a: calls.append(a) or body(*a))
    return calls
