"""Term-map kernel: the hot loops of polynomial and matrix arithmetic.

A term map is a dict from monomial keys to nonzero coefficients: ``int``
when integral, ``Fraction`` when rational, ``CycScalar`` otherwise (see
``scalars.narrow``).  Coefficients live in a field, so a product of nonzeros
is nonzero and only accumulation can cancel.  No function here mutates its
inputs; ``add_into`` and ``sub_into`` mutate only their accumulator, and
``update_nonempty`` only the list it is given.

One key encoding: a packed key is one int with a fixed-width field per
variable, the first variable in the lowest field, so a monomial product is
one int add.  ``Poly`` and ``PolyMatrix`` both store these, and
``mul_terms`` and ``matmul_terms`` take and return them.  Nothing here
checks the fields: the caller (``poly.py`` or ``matrix.py``) picks a width
with room for every exponent sum it asks for.  ``pack`` and ``unpack``
convert between exponent tuples and packed keys, and ``repacker`` between
two packed layouts; only ``poly.py``, ``matrix.py`` and this module call
them.

Both product loops run term by term with the shorter factor outermost (the
left one on a tie), so a product's key order depends on its operands' key
order only.  ``power`` is the one binary-power chain, for any operand with
a product.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, lshift


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


# -- products --------------------------------------------------------------------


def mul_terms(a: dict, b: dict) -> dict:
    """a * b, term by term, the shorter factor outermost (the left one on a tie)."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = ea + eb
            c = ca * cb
            cur = out.get(exp)
            if cur is None:
                out[exp] = c
            else:
                cur = cur + c
                if cur:
                    out[exp] = cur
                else:
                    del out[exp]
    return out


def power(base, n: int):
    """base ** n for n >= 1 by binary powering, with base's own product.

    The chain starts from the first factor and squares only while bits
    remain, so it makes (bit_length - 1) + (popcount - 1) products.  Polys,
    matrices and cyclotomic scalars raise their powers through it.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


# -- key codecs ---------------------------------------------------------------------


def pack(terms: dict, width: int) -> dict:
    """Tuple keys to packed keys with width-bit fields (width a multiple of 8).

    Exponent i goes to field i; the caller ensures each is below 2**width.
    """
    if width == 8:
        return {int.from_bytes(bytes(exp), "little"): c for exp, c in terms.items()}
    if not terms:
        return {}
    shifts = range(0, width * len(next(iter(terms))), width)
    return {sum(map(lshift, exp, shifts)): c for exp, c in terms.items()}


def unpack(terms: dict, nfields: int, width: int) -> dict:
    """Packed keys to tuples of their first nfields exponents, in key order.

    Fields past nfields must be zero in every key.
    """
    if width == 8:
        return {tuple(k.to_bytes(nfields, "little")): c for k, c in terms.items()}
    mask = (1 << width) - 1
    shifts = range(0, width * nfields, width)
    return {tuple([k >> s & mask for s in shifts]): c for k, c in terms.items()}


def repacker(fields, width: int, new_width: int):
    """A map re-encoding packed term maps into another layout, or None.

    ``fields[i]`` is the new field of old field i (None drops it: it must be
    zero in every key).  Widths are multiples of 8 bits; every exponent must
    be below 2**new_width.  None means the keys are already the new keys.
    The returned function keeps each map's key order.
    """
    kept = [(i, f) for i, f in enumerate(fields) if f is not None]
    if not kept:
        return None  # every key is 0 in both layouts
    if width == new_width and all(i == f for i, f in kept):
        return None
    # byte by byte: byte j of a new key is byte src[j] of the old key, where
    # index old_bytes is a zero byte appended to every old key
    step, new_step = width // 8, new_width // 8
    old_bytes = step * len(fields)
    src = [old_bytes] * (new_step * (max(f for _, f in kept) + 1))
    for i, f in kept:
        for b in range(min(step, new_step)):
            src[f * new_step + b] = i * step + b
    get = _gather(src)
    size = old_bytes + 1
    return lambda terms: {
        int.from_bytes(bytes(get(k.to_bytes(size, "little"))), "little"): c
        for k, c in terms.items()
    }


def _gather(index):
    """A function from a sequence to the tuple of its items at index."""
    if len(index) == 1:
        i = index[0]
        return lambda seq: (seq[i],)
    return itemgetter(*index)


# -- walks over lists of term maps --------------------------------------------------


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
    """Row-major (n x k) @ (k x m) over packed term maps.

    Cost: each row's nonzero columns of ``a`` and ``b`` are found at C speed
    (``compress`` over a row slice), and the Python work runs per nonzero
    only: one multiply-add per triple (i, s, j) with a[i, s] and b[s, j]
    both nonzero, with the loop of ``mul_terms`` written out in place.
    What stays O(n*k + k*m + n*m) is slicing the lists and allocating the
    output.  No work is spent on a pair with an empty factor.  For each
    output entry s runs in ascending order, so every entry gets its terms
    in the same insertion order as the plain triple loop.
    Entries that receive no product, or whose products cancel, are one
    shared empty map, so callers must treat entries as read-only.
    """
    # column indices, not (index, map) pairs: ints are not tracked by the
    # garbage collector, so listing nonzeros triggers no extra collections
    a_cols = [list(compress(range(k), a[i * k : (i + 1) * k])) for i in range(n)]
    b_cols = [list(compress(range(m), b[s * m : (s + 1) * m])) for s in range(k)]
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
                x, y = left, b[base + j]
                if len(x) > len(y):
                    x, y = y, x
                for ea, ca in x.items():
                    for eb, cb in y.items():
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
        # an entry whose products cancelled becomes the shared empty map, so
        # the output holds one map per nonzero entry only
        for j in touched:
            if not row[j]:
                row[j] = empty
        out += row
    return out
