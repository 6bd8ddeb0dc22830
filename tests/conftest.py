"""Shared fixtures."""

from array import array

import pytest

from nhc import exactarith


@pytest.fixture
def fresh_sieve(monkeypatch):
    """An empty shared Moebius sieve and Mertens prefix, so the test builds
    its own; the module's are put back afterwards."""
    monkeypatch.setattr(exactarith, "_sieve", memoryview(b"").cast("b"))
    monkeypatch.setattr(exactarith, "_mertens", array("h", [0]))
