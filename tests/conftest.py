import math

import pytest

from robyclif import kernel


@pytest.fixture(params=["always", "never"])
def forced_packing(request, monkeypatch):
    """The kernel's private packing rule forced to one key encoding.

    "always" packs every call that multiplies any terms, "never" keeps every
    call on tuple keys.
    """
    monkeypatch.setattr(kernel, "_PACK_RATIO", 0 if request.param == "always" else math.inf)
    return request.param


@pytest.fixture
def packed_calls(monkeypatch):
    """A list that gains one entry per kernel call that packs its keys."""
    calls = []
    real = kernel._codec

    def counting(left, right):
        codec = real(left, right)
        if codec is not None:
            calls.append((len(left), len(right)))
        return codec

    monkeypatch.setattr(kernel, "_codec", counting)
    return calls
