"""Term-map kernel: the hot loops of polynomial and matrix arithmetic.

A term map is a dict from monomial keys to nonzero coefficients: ``int``
when integral, ``Fraction`` when rational, ``CycScalar`` otherwise (see
``scalars.narrow``).  Coefficients live in a field, so a product of nonzeros
is nonzero and only accumulation can cancel.  No function here mutates its
inputs; ``mul_into``, ``mul_into_packed``, ``add_into`` and ``sub_into``
mutate only their accumulator, and ``update_nonempty`` only the list it is
given.  Sums, differences, negation and scaling never look inside a key, so
they serve both key encodings.

Two key encodings.

- Tuple keys: one exponent per variable.  ``Poly`` stores these, and
  ``mul_terms`` and ``mul_into`` take and return them.  Inside one
  ``mul_terms`` call the products may still run packed: a call packs when
  its exact count of term products |a|*|b| is at least ``_PACK_RATIO``
  times the number of terms it would encode, |a| + |b|, and its largest
  left exponent plus its largest right one is at most 255, so one-byte
  fields cannot carry.  It decodes its result to tuples.  Packing is a
  bijection and both loops run in the same order, so both give equal maps
  with the same key order.
- Packed keys: one int with a fixed-width field per variable, the first
  variable in the lowest field, so a monomial product is one int add.
  ``PolyMatrix`` stores these between operations, and ``mul_into_packed``,
  ``mul_packed`` and ``matmul_terms`` take and return them.  Nothing here
  checks the fields: the caller (``matrix.py``) picks a width with room for
  every exponent sum it asks for.  ``pack``, ``unpack`` and ``repacker``
  convert between tuples and packed keys and between two packed layouts;
  only ``matrix.py`` and this module call them.
"""

from __future__ import annotations

from itertools import compress
from operator import add, itemgetter, lshift

# Pack a mul_terms call once it does at least this many term products per
# term encoded.  2, 4 and 8 ran within 4% of each other in perfbench (three
# 15 s runs each on a 2-CPU VM).
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


# -- products on tuple keys ---------------------------------------------------------


def mul_terms(a: dict, b: dict) -> dict:
    """a * b on tuple keys, packed for the call when it is fat enough."""
    if not a or not b:
        return {}
    la, lb = len(a), len(b)
    out: dict = {}
    codec = _codec(a, b) if la * lb >= _PACK_RATIO * (la + lb) else None
    if codec is not None:
        encode, decode = codec
        mul_into_packed(out, encode(a), encode(b))
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


def _codec(a: dict, b: dict):
    """(encode, decode) between tuple keys and one-byte fields, or None.

    None when the largest exponent of a plus that of b exceeds 255: a
    one-byte field could then carry, so the call keeps the tuple loop.
    """
    nvars = len(next(iter(a)))
    if nvars and max(map(max, a)) + max(map(max, b)) > 255:
        return None
    fields = range(nvars)
    return (lambda terms: pack(terms, 8)), (lambda terms: unpack(terms, fields, 8))


# -- products on packed keys --------------------------------------------------------


def mul_into_packed(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b, in place, on packed keys, in the order of ``mul_into``."""
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


def mul_packed(a: dict, b: dict) -> dict:
    """a * b on packed keys."""
    out: dict = {}
    mul_into_packed(out, a, b)
    return out


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


def unpack(terms: dict, fields, width: int) -> dict:
    """Packed keys to tuple keys of the given fields, in that order.

    Fields left out must be zero in every key, so the result is the term map
    over the variables of ``fields``.  Key order is kept.
    """
    fields = tuple(fields)
    if not fields:
        return {(): c for c in terms.values()}
    if width == 8:
        size = max(fields) + 1
        if fields == tuple(range(size)):
            return {tuple(k.to_bytes(size, "little")): c for k, c in terms.items()}
        get = _gather(fields)
        return {get(k.to_bytes(size, "little")): c for k, c in terms.items()}
    mask = (1 << width) - 1
    shifts = [width * f for f in fields]
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
    both nonzero, with the packed loop of ``mul_into_packed`` written out
    in place.  What stays O(n*k + k*m + n*m) is slicing the lists and
    allocating the output.  No work is spent on a pair with an empty factor.
    For each output entry s runs in ascending order, so every entry gets
    its terms in the same insertion order as the plain triple loop.
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
