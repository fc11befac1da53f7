"""Term-map kernel: the hot loops of polynomial and matrix arithmetic.

A term map is a dict from exponent tuples (nonnegative ints, one per
variable, the same width throughout a call) to nonzero coefficients: ``int``
when integral, ``Fraction`` when rational, ``CycScalar`` otherwise (see
``scalars.narrow``).  Coefficients live in a field, so a product of nonzeros
is nonzero and only accumulation can cancel.  No function here mutates its
inputs; ``mul_into``, ``add_into`` and ``sub_into`` mutate only their
accumulator, and ``update_nonempty`` only the list it is given.

Two key encodings.  Every input and output holds tuple keys.  Inside one
``mul_terms`` or ``matmul_terms`` call, products may run on packed keys
instead: an exponent vector becomes one int with a one-byte field per
variable (the first variable in the lowest field), so a monomial product is
one int add in place of building a tuple.

- Fields are one byte (encoded with ``bytes(e)``, decoded with
  ``k.to_bytes(nvars, "little")``).  A call may pack only when its own
  largest left exponent plus its largest right one is at most 255: no sum
  of two exponents exceeds that, so no field carries into the next.  A call
  with wider exponents keeps the tuple loop.
- A call packs when its exact count of term products is at least
  ``_PACK_RATIO`` times the number of terms it would encode: |a|*|b| against
  |a| + |b| in ``mul_terms``, and the sum of |a[i, s]| * (terms in row s of
  b) against the nonzero terms of both operands in ``matmul_terms``.  A thin
  call keeps the tuple loop, because converting its keys would cost more
  than the adds save.
- Packing is a bijection within the call and the loops run in the same
  order, so both encodings give equal maps with the same key order.
"""

from __future__ import annotations

from itertools import compress
from operator import add

# Pack once a call does at least this many term products per term encoded.
# 2, 4 and 8 ran within 4% of each other in perfbench (three 15 s runs each
# on a 2-CPU VM): charpoly_fat wall_s 0.710 / 0.712 / 0.738 s and
# pipeline_ladder 0.376 / 0.362 / 0.357 s.  4 sits between the two.
_PACK_RATIO = 4


def add_into(acc: dict, b: dict) -> None:
    """acc += b, in place: b's terms in order, a cancelled key deleted."""
    for exp, c in b.items():
        cur = acc.get(exp)
        if cur is None:
            acc[exp] = c
        else:
            cur = cur + c
            if cur:
                acc[exp] = cur
            else:
                del acc[exp]


def sub_into(acc: dict, b: dict) -> None:
    """acc -= b, in place, in the order of ``add_into``."""
    for exp, c in b.items():
        cur = acc.get(exp)
        if cur is None:
            acc[exp] = -c
        else:
            cur = cur - c
            if cur:
                acc[exp] = cur
            else:
                del acc[exp]


def add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    add_into(out, b)
    return out


def sub_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    sub_into(out, b)
    return out


def neg_terms(a: dict) -> dict:
    return {exp: -c for exp, c in a.items()}


def scale_terms(a: dict, c) -> dict:
    if not c:
        return {}
    return {exp: v * c for exp, v in a.items()}


def mul_terms(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    la, lb = len(a), len(b)
    out: dict = {}
    codec = _codec((a,), (b,)) if la * lb >= _PACK_RATIO * (la + lb) else None
    if codec is not None:
        encode, decode = codec
        _mul_into_packed(out, encode(a), encode(b))
        return decode(out)
    mul_into(out, a, b)
    return out


def mul_into(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b, in place, on tuple keys.

    Term by term, the shorter factor outermost (the left one on a tie).
    """
    if not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(map(add, ea, eb))
            c = ca * cb
            cur = acc.get(exp)
            if cur is None:
                acc[exp] = c
            else:
                cur = cur + c
                if cur:
                    acc[exp] = cur
                else:
                    del acc[exp]


def _mul_into_packed(acc: dict, a: dict, b: dict) -> None:
    """``mul_into`` on packed int keys, in the same order."""
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = ea + eb
            c = ca * cb
            cur = acc.get(exp)
            if cur is None:
                acc[exp] = c
            else:
                cur = cur + c
                if cur:
                    acc[exp] = cur
                else:
                    del acc[exp]


def _top(maps) -> int:
    """The largest exponent in any key of the nonempty term maps."""
    return max(max(map(max, t)) for t in maps)


def _codec(left, right):
    """(encode, decode) between tuple and packed keys for one call, or None.

    ``left`` and ``right`` are the nonempty term maps on each side of the
    call's products.  Each field is one byte, so the call packs only when the
    largest left exponent plus the largest right one is at most 255; None
    tells a wider call to keep the tuple loop.
    """
    nvars = len(next(iter(left[0])))
    if nvars and _top(left) + _top(right) > 255:
        return None
    return _encode, lambda terms: {
        tuple(k.to_bytes(nvars, "little")): c for k, c in terms.items()
    }


def _encode(terms: dict) -> dict:
    return {int.from_bytes(bytes(exp), "little"): c for exp, c in terms.items()}


def nonempty(maps: list):
    """Indices of the nonempty term maps in a list, ascending, found at C speed."""
    return compress(range(len(maps)), maps)


def update_nonempty(maps: list, fn) -> None:
    """Apply fn to each nonempty term map of a list, in place."""
    for k in nonempty(maps):
        maps[k] = fn(maps[k])


def map_nonempty(maps: list, fn) -> list:
    """A copy of a list of term maps with fn applied to each nonempty one."""
    out = list(maps)
    update_nonempty(out, fn)
    return out


def matmul_terms(a: list, b: list, n: int, k: int, m: int) -> list:
    """Row-major (n x k) @ (k x m) over term maps.

    Cost: each row's nonzero columns of ``a`` and ``b`` are found at C speed
    (``compress`` over a row slice), and the Python work runs per nonzero
    only: one multiply-add per triple (i, s, j) with a[i, s] and b[s, j]
    both nonzero, plus the key encoding and decoding of nonzero entries.
    What stays O(n*k + k*m + n*m) is slicing and copying the lists and
    allocating the output.  No work is spent on a pair with an empty factor.
    The nonzero columns also give the call's exact count of term products,
    which decides the key encoding.
    For each output entry s still runs in ascending order, so every entry
    gets its terms in the same insertion order as the plain triple loop.
    Entries that receive no product, or whose products cancel, are one
    shared empty map, so callers must treat entries as read-only.
    """
    # column indices, not (index, map) pairs: ints are not tracked by the
    # garbage collector, so listing nonzeros triggers no extra collections
    a_cols = [list(compress(range(k), a[i * k : (i + 1) * k])) for i in range(n)]
    b_cols = [list(compress(range(m), b[s * m : (s + 1) * m])) for s in range(k)]
    b_terms = [sum([len(b[s * m + j]) for j in cols]) for s, cols in enumerate(b_cols)]
    products = terms = 0
    for i, cols in enumerate(a_cols):
        for s in cols:
            size = len(a[i * k + s])
            products += size * b_terms[s]
            terms += size
    codec = None
    if products and products >= _PACK_RATIO * (terms + sum(b_terms)):
        codec = _codec(list(compress(a, a)), list(compress(b, b)))
    multiply_into = mul_into
    if codec is not None:
        encode, decode = codec
        a = map_nonempty(a, encode)
        b = map_nonempty(b, encode)
        multiply_into = _mul_into_packed
    empty: dict = {}
    out: list = []
    for i, cols in enumerate(a_cols):
        row = [empty] * m
        touched = []
        for s in cols:
            left = a[i * k + s]
            base = s * m
            for j in b_cols[s]:
                acc = row[j]
                if acc is empty:
                    acc = row[j] = {}
                    touched.append(j)
                multiply_into(acc, left, b[base + j])
        # an entry whose products cancelled becomes the shared empty map, so
        # the output holds one map per nonzero entry only
        for j in touched:
            acc = row[j]
            if not acc:
                row[j] = empty
            elif codec is not None:
                row[j] = decode(acc)
        out += row
    return out
