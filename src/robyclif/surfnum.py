"""Numerical cohomology on the quadric surface and monad bookkeeping.

Everything here is closed-form integer arithmetic: line bundle cohomology on
a product of two lines multiplies out factorwise, and the remaining
operations are the numerical shadows of bundle constructions (monad shapes,
Euler characteristics of twists, the contraction ratio of the section
count).  Exact rationals throughout; no floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, VerificationError
from .report import Report

__all__ = [
    "BundleNumerics",
    "MAX_BETA_STEPS",
    "MAX_TABLE_BOUND",
    "MonadShape",
    "UlrichClass",
    "beta_sequence",
    "ec_tensor",
    "monad_shape",
    "p1xp1_cohomology",
    "quadric_delta_ulrich_test",
    "quadric_h1_table",
    "quadric_twist_h1",
    "quadric_ulrich_scan",
    "wlp_check",
]


# Largest bound of a cohomology table, checked before its loop: the family s
# of quadric_h1_table, the scan bound N of quadric_ulrich_scan, and |lo| and
# |hi| of quadric_twist_h1.  So no table has more than about 2000 rows.
MAX_TABLE_BOUND = 1000


def _check_bound(what: str, n: int) -> None:
    if n > MAX_TABLE_BOUND:
        raise InputError(f"{what} {n} exceeds the cap of {MAX_TABLE_BOUND}")


def _sections(n: int) -> int:
    # h^0 of O(n) on a line
    return max(0, n + 1)


def _obstructions(n: int) -> int:
    # h^1 of O(n) on a line, by duality the section count of O(-n-2)
    return max(0, -n - 1)


def p1xp1_cohomology(a: int, b: int) -> tuple:
    """(h^0, h^1, h^2) of O(a, b); the factors multiply out termwise."""
    if not isinstance(a, int) or not isinstance(b, int):
        raise InputError("bidegrees must be integers")
    p, q = _sections, _obstructions
    return (p(a) * p(b), p(a) * q(b) + q(a) * p(b), q(a) * q(b))


def quadric_h1_table(s: int) -> dict:
    """h^1 of the s-th twist family along its support 0 <= k <= 2s - 3.

    Each value is computed from the bidegree (k, 1 - 2s + k) and must agree
    with the closed form (k + 1)(2s - k - 2) on the support and vanish off
    it; disagreement would mean the arithmetic itself is broken, so it is
    checked on a window straddling both ends.
    """
    if not isinstance(s, int) or s < 2:
        raise InputError("the twist family needs an integer s >= 2")
    _check_bound("twist family s =", s)
    table = {}
    for k in range(-2, 2 * s + 2):
        computed = p1xp1_cohomology(k, 1 - 2 * s + k)[1]
        closed = (k + 1) * (2 * s - k - 2) if 0 <= k <= 2 * s - 3 else 0
        if computed != closed:
            raise VerificationError(
                f"h^1 at k={k} computed as {computed} but the closed form gives {closed}"
            )
        if 0 <= k <= 2 * s - 3:
            table[k] = computed
    return table


class UlrichClass(enum.Enum):
    NOT_DELTA = "not delta-Ulrich"
    DELTA = "delta-Ulrich"
    ULRICH = "Ulrich"


def quadric_delta_ulrich_test(a: int, b: int) -> UlrichClass:
    """Classify O(a, b) against the hyperplane class.

    The delta condition is a + b = 1; the full Ulrich condition additionally
    needs two sections, which happens for (1, 0) and (0, 1) only.
    """
    if not isinstance(a, int) or not isinstance(b, int):
        raise InputError("bidegrees must be integers")
    if a + b != 1:
        return UlrichClass.NOT_DELTA
    if p1xp1_cohomology(a, b)[0] == 2:
        return UlrichClass.ULRICH
    return UlrichClass.DELTA


def quadric_ulrich_scan(n: int) -> list:
    """(a, 1 - a, h^0, class of O(a, 1 - a)) for -n <= a <= n."""
    if not isinstance(n, int) or n < 0:
        raise InputError(f"the scan bound must be a non-negative integer, got {n!r}")
    _check_bound("scan bound", n)
    return [
        (a, 1 - a, p1xp1_cohomology(a, 1 - a)[0], quadric_delta_ulrich_test(a, 1 - a))
        for a in range(-n, n + 1)
    ]


def quadric_twist_h1(a: int, b: int, lo: int, hi: int) -> dict:
    """i -> h^1 of O(a + i, b + i) for lo <= i <= hi.

    wlp_check walks from min(lo, -3) to max(hi, 0), so both ends are capped.
    """
    if lo > hi:
        raise InputError("empty twist range")
    _check_bound("twist index |lo| =", abs(lo))
    _check_bound("twist index |hi| =", abs(hi))
    return {i: p1xp1_cohomology(a + i, b + i)[1] for i in range(lo, hi + 1)}


def wlp_check(h1seq) -> Report:
    """Unimodality of an h^1 twist sequence around its forced peak.

    The sequence (missing keys count as zero) must rise through i <= -2,
    fall from i >= -2 on, and therefore peak at i = -2 or i = -1.
    """
    seq = {int(k): int(v) for k, v in dict(h1seq).items()}
    report = Report("weak Lefschetz pattern")
    if not seq:
        report.add("monotone_up_to_minus_two", True)
        report.add("monotone_from_minus_two", True)
        report.add("peak_position", True)
        report.meta["support"] = []
        return report
    lo = min(min(seq) - 1, -3)
    hi = max(max(seq) + 1, 0)
    val = lambda i: seq.get(i, 0)
    rising = [i for i in range(lo, -1) if i <= -2 and val(i) > val(i + 1)]
    report.add(
        "monotone_up_to_minus_two",
        not rising,
        detail="" if not rising else f"h1 drops from i={rising[0]} to i={rising[0] + 1}",
    )
    falling = [i for i in range(-2, hi) if val(i) < val(i + 1)]
    report.add(
        "monotone_from_minus_two",
        not falling,
        detail="" if not falling else f"h1 rises from i={falling[0]} to i={falling[0] + 1}",
    )
    peak = max(val(i) for i in range(lo, hi + 1))
    ok = peak == max(val(-2), val(-1))
    report.add(
        "peak_position",
        ok,
        detail="" if ok else f"maximum {peak} is away from i = -2, -1",
    )
    report.meta["support"] = sorted(k for k, v in seq.items() if v)
    report.meta["peak"] = peak
    return report


@dataclass(frozen=True)
class BundleNumerics:
    """Rank, degree, and the section-defect count m of a bundle on a surface."""

    rank: int
    degree: int
    m: int

    def __post_init__(self):
        if self.rank < 1:
            raise InputError("rank must be at least 1")
        if self.degree < 1:
            raise InputError("degree must be at least 1")
        if self.m < 0:
            raise InputError("the defect count cannot be negative")


@dataclass(frozen=True)
class MonadShape:
    left: int
    middle: int
    right: int
    chi: int

    @property
    def shape(self) -> tuple:
        return (self.left, self.middle, self.right)


def monad_shape(n: BundleNumerics) -> MonadShape:
    """Monad (m, r*d + 2m, m) presenting the pushforward, with chi = r*d - m."""
    rd = n.rank * n.degree
    return MonadShape(n.m, rd + 2 * n.m, n.m, rd - n.m)


def ec_tensor(chi_e: int, rank_e: int, rank_f: int) -> int:
    """chi of E tensor F on the quadric when F is Ulrich: rF * (chi(E) + 3 rE)."""
    if rank_e < 1 or rank_f < 1:
        raise InputError("ranks must be at least 1")
    return rank_f * (chi_e + 3 * rank_e)


# Most steps of the beta recursion, checked before the loop.  The m-th
# denominator has about 0.6 * m more digits than beta_0's, so 10000 steps
# from 1/3 pass the interpreter's 4300-digit print limit.
MAX_BETA_STEPS = 1000


def beta_sequence(beta0, steps: int) -> list:
    """[beta_0, ..., beta_steps] under beta_m = beta_{m-1}/4 + 3/4, exactly.

    The affine recursion contracts toward 1; each term is confirmed against
    the closed form beta_m = 1 - (1 - beta_0) / 4^m before it is returned.
    """
    if not isinstance(steps, int) or steps < 0:
        raise InputError("step count must be a non-negative integer")
    if steps > MAX_BETA_STEPS:
        raise InputError(f"step count {steps} exceeds the cap of {MAX_BETA_STEPS}")
    try:
        b = Fraction(beta0)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot read {beta0!r} as an exact rational") from exc
    out = [b]
    gap = 1 - b
    for m in range(1, steps + 1):
        b = b / 4 + Fraction(3, 4)
        if b != 1 - gap / 4**m:
            raise VerificationError(f"recursion and closed form disagree at step {m}")
        out.append(b)
    return out
