"""Term-map kernel: the hot loops of polynomial and matrix arithmetic.

A term map is a dict from exponent tuples to nonzero coefficients (Fraction
or CycScalar).  Coefficients live in a field, so a product of nonzeros is
nonzero and only accumulation can cancel.
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
    """Row-major (n x k) @ (k x m) over term maps."""
    out = []
    for i in range(n):
        row = a[i * k : (i + 1) * k]
        for j in range(m):
            acc: dict = {}
            for s in range(k):
                left = row[s]
                if left:
                    right = b[s * m + j]
                    if right:
                        mul_into(acc, left, right)
            out.append(acc)
    return out
