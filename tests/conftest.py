import pytest

from robyclif import matrix, poly

# Bits per key field forced on new polynomials and matrices: three bytes, so
# packing, decoding, re-encoding and products all run on multi-byte fields.
WIDE = 24


@pytest.fixture(params=["always", "never"])
def forced_wide_keys(request, monkeypatch):
    """New polynomials and matrices built with wide key fields ("always") or the default ones.

    "always" gives every polynomial and every matrix built from polynomials
    ``WIDE``-bit fields; "never" leaves the 8-bit default, which only the
    width rule widens.
    """
    if request.param == "always":
        monkeypatch.setattr(poly, "_WIDTH", WIDE)
        monkeypatch.setattr(matrix, "_WIDTH", WIDE)
    return request.param
