import math

import pytest

from robyclif import kernel, matrix

# Bits per key field forced on new matrices: three bytes, so packing,
# decoding, re-encoding and products all run on multi-byte fields.
WIDE = 24


def _force_packing(monkeypatch, mode):
    monkeypatch.setattr(kernel, "_PACK_RATIO", 0 if mode == "always" else math.inf)


def _force_wide_keys(monkeypatch, mode):
    if mode == "always":
        monkeypatch.setattr(matrix, "_WIDTH", WIDE)


@pytest.fixture(params=["always", "never"])
def forced_packing(request, monkeypatch):
    """``Poly``'s per-call packing rule forced to one key encoding.

    "always" packs every ``mul_terms`` call that multiplies any terms,
    "never" keeps every call on tuple keys.  Matrices keep their keys packed
    whatever this says.
    """
    _force_packing(monkeypatch, request.param)
    return request.param


@pytest.fixture(params=["always", "never"])
def forced_wide_keys(request, monkeypatch):
    """New matrices built with wide key fields ("always") or the default ones.

    "always" gives every matrix built from polynomials ``WIDE``-bit fields;
    "never" leaves the 8-bit default, which only the width rule widens.
    """
    _force_wide_keys(monkeypatch, request.param)
    return request.param


@pytest.fixture(params=["always", "never"])
def forced_encodings(request, monkeypatch):
    """Both rules at once: every ``Poly`` product packed and every new matrix
    wide ("always"), or tuple-key ``Poly`` products and default-width
    matrices ("never")."""
    _force_packing(monkeypatch, request.param)
    _force_wide_keys(monkeypatch, request.param)
    return request.param


@pytest.fixture
def packed_calls(monkeypatch):
    """A list that gains one entry per ``mul_terms`` call that packs its keys."""
    calls = []
    real = kernel._codec

    def counting(a, b):
        codec = real(a, b)
        if codec is not None:
            calls.append((len(a), len(b)))
        return codec

    monkeypatch.setattr(kernel, "_codec", counting)
    return calls
