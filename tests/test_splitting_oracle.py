"""splitting_type against a fixed-window scan on seeded random presentations.

The reference below is the scan ``splitting_type`` made before it derived
its window from the presentation: it reads twists off the Hilbert increment
over [min(gen) - 1, max(gen) + max(rel, 0) + ngens + 1 + pad], refuses a
drop, refuses fewer twists than the rank, and checks h against the
recovered type across the window.  With pad = 60 its window reaches well
past every syzygy these presentations have, so its verdict is that of every
longer window.  It asks ``hilbert_function`` for one degree at a time and
stops at the first drop, which gives the verdict of the whole-window
computation it was copied from at a fraction of the cost.
"""

import random

from robyclif.errors import InputError
from robyclif.linegeom import (
    GradedModuleP1,
    SplittingType,
    _generic_rank,
    hilbert_function,
    splitting_type,
)
from robyclif.matrix import PolyMatrix
from robyclif.poly import Poly

CASES = 1000


def reference_splitting_type(module, window_pad=60):
    lo = min(module.gen_degrees) - 1
    hi = (
        max(module.gen_degrees)
        + max(module.rel_degrees, default=0)
        + module.ngens
        + 1
        + window_pad
    )
    h = {lo: hilbert_function(module, lo, lo)[lo]}
    twists = []
    prev_delta = 0
    for k in range(lo + 1, hi + 1):
        h[k] = hilbert_function(module, k, k)[k]
        delta = h[k] - h[k - 1]
        if delta < prev_delta:
            raise InputError(f"the Hilbert increment drops at degree {k}")
        twists.extend([-k] * (delta - prev_delta))
        prev_delta = delta
    if len(twists) < module.ngens - _generic_rank(module.relations):
        raise InputError("degree window too small")
    for k in range(lo, hi + 1):
        if h[k] != sum(max(0, a + k + 1) for a in twists):
            raise InputError(f"Hilbert function deviates at degree {k}")
    return SplittingType(tuple(twists))


def random_form(rng, degree):
    """A homogeneous form in x, y of one or two terms."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        ex = rng.randint(0, degree)
        terms[(ex, degree - ex)] = rng.choice((-2, -1, 1, 2, 3))
    return Poly(("x", "y"), terms)


def random_presentation(rng):
    """1-3 generators in degrees -4..3 and 0-3 relations, some entries zero."""
    gens = [rng.randint(-4, 3) for _ in range(rng.randint(1, 3))]
    rels = [rng.randint(min(gens), max(gens) + 4) for _ in range(rng.randint(0, 3))]
    rows = [
        [random_form(rng, r - g) if r >= g and rng.random() < 0.6 else Poly.zero() for r in rels]
        for g in gens
    ]
    return GradedModuleP1(gens, PolyMatrix.from_rows(rows) if rels else None, rel_degrees=rels)


def verdict(scan, module):
    try:
        return scan(module).twists
    except InputError:
        return None


def test_matches_the_fixed_window_scan():
    rng = random.Random(20150601)
    accepted = 0
    for _ in range(CASES):
        module = random_presentation(rng)
        want = verdict(reference_splitting_type, module)
        assert verdict(splitting_type, module) == want, (
            module, module.relations.cell_texts()
        )
        accepted += want is not None
    # both verdicts are common, so neither side of the scan goes untested
    assert CASES // 4 < accepted < 3 * CASES // 4
