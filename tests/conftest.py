import pytest

from robyclif import matrix

# Bits per key field forced on new matrices: three bytes, so packing,
# decoding, re-encoding and products all run on multi-byte fields.
WIDE = 24


@pytest.fixture(params=["always", "never"])
def forced_wide_keys(request, monkeypatch):
    """New matrices built with wide key fields ("always") or the default ones.

    "always" gives every matrix built from polynomials ``WIDE``-bit fields;
    "never" leaves the 8-bit default, which only the width rule widens.
    """
    if request.param == "always":
        monkeypatch.setattr(matrix, "_WIDTH", WIDE)
    return request.param
