"""Shared fixtures."""

from array import array
from collections import deque

import pytest

from nhc import exactarith


@pytest.fixture
def fresh_sieve(monkeypatch):
    """An empty shared Moebius sieve and Mertens prefix, so the test builds
    its own; the module's are put back afterwards."""
    monkeypatch.setattr(exactarith, "_sieve", array("b"))
    monkeypatch.setattr(exactarith, "_mertens", array("h", [0]))


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo of known primes, so the test fills its own; the
    module's is put back afterwards."""
    monkeypatch.setattr(exactarith, "_known_primes", deque(maxlen=exactarith._KNOWN_PRIMES_CAP))
