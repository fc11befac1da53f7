"""Term-map kernel: the hot loops of polynomial and matrix arithmetic.

A term map is a dict from exponent tuples to nonzero coefficients (Fraction
or CycScalar).  Coefficients live in a field, so a product of nonzeros is
nonzero and only accumulation can cancel.  No function here mutates its
inputs; ``mul_into`` mutates only its accumulator.
"""

from __future__ import annotations


def add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
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


def sub_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
        cur = out.get(exp)
        if cur is None:
            out[exp] = -c
        else:
            cur = cur - c
            if cur:
                out[exp] = cur
            else:
                del out[exp]
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
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
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


def mul_into(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b, in place."""
    if not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
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


def matmul_terms(a: list, b: list, n: int, k: int, m: int) -> list:
    """Row-major (n x k) @ (k x m) over term maps.

    Cost: one pass over the k*m slots of ``b`` to list each row's nonzeros,
    one pass over the n*k slots of ``a``, one ``mul_into`` per triple
    (i, s, j) with a[i, s] and b[s, j] both nonzero, and the n*m output list.
    No work is spent on a pair with an empty factor.  For each output entry
    s still runs in ascending order, so every entry gets its terms in the
    same insertion order as the plain triple loop.  Entries that receive no
    product are one shared empty map, so callers must treat entries as
    read-only.
    """
    b_rows = [[(j, t) for j, t in enumerate(b[s * m : (s + 1) * m]) if t] for s in range(k)]
    empty: dict = {}
    out: list = []
    for i in range(n):
        row = [empty] * m
        for s, left in enumerate(a[i * k : (i + 1) * k]):
            if left:
                for j, right in b_rows[s]:
                    acc = row[j]
                    if acc is empty:
                        acc = row[j] = {}
                    mul_into(acc, left, right)
        out += row
    return out
