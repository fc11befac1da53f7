"""Graded modules on a line: Hilbert functions and splitting types.

Finitely presented graded modules over k[x,y] split, as sheaves, into line
bundles O(a_1) + ... + O(a_r).  The splitting type is read off the Hilbert
function: its increment at degree k counts the summands with a_i >= -k.
Saturation and torsion-freeness are validated from the same data rather than
repaired; inputs that fail either are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .matrix import PolyMatrix
from .poly import Poly, as_poly
from .roby import CharMorphism
from .scalars import exact_div

__all__ = [
    "GradedModuleP1",
    "SplittingType",
    "hilbert_function",
    "is_ulrich_on_embedded_curve",
    "is_ulrich_over_line",
    "restrict_to_line",
    "splitting_type",
    "underlying_line_module",
]


@dataclass(frozen=True)
class SplittingType:
    """Multiset of line-bundle twists, stored largest first."""

    twists: tuple

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(sorted(self.twists, reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.twists)

    def __str__(self) -> str:
        # printed ascending; the stored order keeps a_1 >= ... >= a_r
        return "(" + ", ".join(str(a) for a in sorted(self.twists)) + ")"


class GradedModuleP1:
    """Cokernel presentation over k[x,y]: generator degrees plus relations.

    Column c of the relation matrix is a syzygy of degree rel_degrees[c], so
    entry (r, c) must be zero or homogeneous of degree
    rel_degrees[c] - gen_degrees[r].  Relation degrees are inferred from the
    entries when not given; a zero column carries no degree of its own and
    must then be annotated explicitly.
    """

    __slots__ = ("gen_degrees", "rel_degrees", "relations", "vars")

    def __init__(self, gen_degrees, relations=None, *, rel_degrees=None, vars=("x", "y")):
        self.gen_degrees = tuple(int(g) for g in gen_degrees)
        n = len(self.gen_degrees)
        if n < 1:
            raise InputError("a module needs at least one generator")
        self.vars = tuple(vars)
        if len(self.vars) != 2 or len(set(self.vars)) != 2:
            raise InputError("a line has exactly two coordinate variables")
        if relations is None:
            relations = PolyMatrix.zeros(n, 0)
        elif not isinstance(relations, PolyMatrix):
            relations = PolyMatrix.from_rows(relations)
        if relations.shape[0] != n:
            raise InputError(
                f"relation matrix has {relations.shape[0]} rows for {n} generators"
            )
        self.relations = relations
        if not set(relations.vars) <= set(self.vars):
            extra = sorted(set(relations.vars) - set(self.vars))
            raise InputError(f"relations involve non-line variables {extra}")
        nrels = relations.shape[1]
        if rel_degrees is None:
            rel_degrees = []
            for c in range(nrels):
                deg = None
                for r in range(n):
                    p = relations.entry(r, c)
                    if p:
                        deg = p.homogeneous_degree()
                        if deg is None:
                            raise InputError(f"relation entry ({r},{c}) is not homogeneous")
                        deg += self.gen_degrees[r]
                        break
                if deg is None:
                    raise InputError(
                        f"relation column {c} is zero; pass rel_degrees explicitly"
                    )
                rel_degrees.append(deg)
        self.rel_degrees = tuple(int(d) for d in rel_degrees)
        if len(self.rel_degrees) != nrels:
            raise InputError("need one degree per relation column")
        for c in range(nrels):
            for r in range(n):
                p = relations.entry(r, c)
                if not p:
                    continue
                want = self.rel_degrees[c] - self.gen_degrees[r]
                if p.homogeneous_degree() != want:
                    raise InputError(
                        f"relation entry ({r},{c}) must be homogeneous of degree "
                        f"{want}, got {p!s}"
                    )

    @classmethod
    def free(cls, degrees, *, vars=("x", "y")) -> "GradedModuleP1":
        return cls(degrees, None, vars=vars)

    @property
    def ngens(self) -> int:
        return len(self.gen_degrees)

    @property
    def nrels(self) -> int:
        return self.relations.shape[1]

    def direct_sum(self, other: "GradedModuleP1") -> "GradedModuleP1":
        if self.vars != other.vars:
            raise InputError("summands live over different lines")
        n1, n2 = self.ngens, other.ngens
        k1, k2 = self.nrels, other.nrels
        rows = [[Poly.zero()] * (k1 + k2) for _ in range(n1 + n2)]
        for r in range(n1):
            for c in range(k1):
                rows[r][c] = self.relations.entry(r, c)
        for r in range(n2):
            for c in range(k2):
                rows[n1 + r][k1 + c] = other.relations.entry(r, c)
        return GradedModuleP1(
            self.gen_degrees + other.gen_degrees,
            PolyMatrix.from_rows(rows) if k1 + k2 else None,
            rel_degrees=self.rel_degrees + other.rel_degrees,
            vars=self.vars,
        )

    def __repr__(self) -> str:
        return f"GradedModuleP1(gens={list(self.gen_degrees)}, rels={list(self.rel_degrees)})"


def _xy_terms(p: Poly, vx: str, vy: str):
    """Yield ((ex, ey), coeff) with exponents in the line variables."""
    ix = p.vars.index(vx) if vx in p.vars else None
    iy = p.vars.index(vy) if vy in p.vars else None
    for exp, coeff in p.terms.items():
        ex = exp[ix] if ix is not None else 0
        ey = exp[iy] if iy is not None else 0
        yield (ex, ey), coeff


def _rank_of_rows(rows) -> int:
    """Exact rank of sparse rows (dict key -> field coefficient)."""
    pivots = {}
    rank = 0
    for row in rows:
        work = {k: v for k, v in row.items() if v}
        while work:
            lead = min(work)
            piv = pivots.get(lead)
            if piv is None:
                c = work[lead]
                pivots[lead] = {k: exact_div(v, c) for k, v in work.items()}
                rank += 1
                break
            c = work.pop(lead)
            for k, v in piv.items():
                if k == lead:
                    continue
                cur = work.get(k)
                acc = -c * v if cur is None else cur - c * v
                if acc:
                    work[k] = acc
                else:
                    work.pop(k, None)
    return rank


def _generic_rank(m: PolyMatrix) -> int:
    """Rank over the fraction field, by fraction-free elimination."""
    nrows, ncols = m.shape
    rows = [[m.entry(r, c) for c in range(ncols)] for r in range(nrows)]
    r0 = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r0, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r0], rows[pivot_row] = rows[pivot_row], rows[r0]
        piv = rows[r0][c]
        for i in range(r0 + 1, nrows):
            f = rows[i][c]
            if f:
                # cross-multiplied row op; scaling by the nonzero pivot keeps rank
                rows[i] = [piv * rows[i][j] - f * rows[r0][j] for j in range(ncols)]
        r0 += 1
        if r0 == nrows:
            break
    return r0


def hilbert_function(module: GradedModuleP1, lo: int, hi: int) -> dict:
    """dim of each graded piece of the cokernel for lo <= k <= hi."""
    if lo > hi:
        raise InputError("empty degree range")
    vx, vy = module.vars
    out = {}
    for k in range(lo, hi + 1):
        free_dim = sum(max(0, k - g + 1) for g in module.gen_degrees)
        rows = []
        for c in range(module.nrels):
            base = k - module.rel_degrees[c]
            if base < 0:
                continue
            entries = [
                (r, list(_xy_terms(module.relations.entry(r, c), vx, vy)))
                for r in range(module.ngens)
                if module.relations.entry(r, c)
            ]
            for mx in range(base + 1):
                my = base - mx
                vec = {}
                for r, terms in entries:
                    for (ex, ey), coeff in terms:
                        vec[(r, ex + mx, ey + my)] = coeff
                rows.append(vec)
        out[k] = free_dim - _rank_of_rows(rows)
    return out


def splitting_type(module: GradedModuleP1, *, window_pad: int = 0) -> SplittingType:
    """Twists (a_1 >= ... >= a_r) with the cokernel sheaf = sum of O(a_i).

    The Hilbert increment d(k) = h(k) - h(k-1) counts {i : a_i >= -k}, so
    each jump of d locates a twist.  The scan window starts one step below
    the least generator degree (where h vanishes for any presentation) and
    runs far enough for d to stabilize at the sheaf rank; the recovered
    type is then validated against h across the whole window, which rejects
    torsion and missing saturation instead of silently repairing them.
    """
    if window_pad < 0:
        raise InputError("window padding cannot be negative")
    lo = min(module.gen_degrees) - 1
    hi = (
        max(module.gen_degrees)
        + max(module.rel_degrees, default=0)
        + module.ngens
        + 1
        + window_pad
    )
    hi = max(hi, lo + 2)
    h = hilbert_function(module, lo, hi)
    twists = []
    prev_delta = 0
    prev_h = h[lo]
    for k in range(lo + 1, hi + 1):
        delta = h[k] - prev_h
        if delta < prev_delta:
            raise InputError(
                f"torsion or missing saturation: the Hilbert increment drops "
                f"from {prev_delta} to {delta} at degree {k}"
            )
        twists.extend([-k] * (delta - prev_delta))
        prev_delta, prev_h = delta, h[k]
    rank = module.ngens - _generic_rank(module.relations)
    if len(twists) < rank:
        raise InputError(
            f"degree window [{lo}, {hi}] too small for this presentation; "
            f"raise the padding"
        )
    for k in range(lo, hi + 1):
        expected = sum(max(0, a + k + 1) for a in twists)
        if h[k] != expected:
            raise InputError(
                f"Hilbert function deviates from the splitting bound at degree "
                f"{k} ({h[k]} vs {expected}): torsion or missing saturation"
            )
    return SplittingType(tuple(twists))


def is_ulrich_over_line(module: GradedModuleP1) -> bool:
    """True iff the splitting type is (0, ..., 0)."""
    return all(a == 0 for a in splitting_type(module).twists)


def is_ulrich_on_embedded_curve(stype: SplittingType, e: int) -> bool:
    """True iff every twist equals e - 1, for a curve of degree e >= 1.

    Pushing forward along a degree-e curve shifts the comparison point by
    e - 1; the balanced case a_i = e - 1 is exactly what descends to the
    maximally generated module on the curve.
    """
    if not isinstance(e, int) or e < 1:
        raise InputError("curve degree must be a positive integer")
    return all(a == e - 1 for a in stype.twists)


def restrict_to_line(cm: CharMorphism, bindings, *, line_vars=("x", "y")) -> CharMorphism:
    """Substitute every non-line base variable by a linear form in the line.

    Bindings must cover exactly the base variables outside ``line_vars`` and
    may not rebind the line variables themselves; each value is zero or a
    homogeneous linear form in the line variables.
    """
    lvars = set(line_vars)
    if len(lvars) != 2:
        raise InputError("a line has exactly two coordinate variables")
    bindings = {k: as_poly(v) for k, v in dict(bindings).items()}
    touched = sorted(set(bindings) & lvars)
    if touched:
        raise InputError(f"bindings may not touch the line variables {touched}")
    required = set(cm.source.base_vars) - lvars
    if set(bindings) != required:
        raise InputError(
            f"bindings must cover exactly {sorted(required)}, got {sorted(bindings)}"
        )
    for name, value in bindings.items():
        if not value:
            continue
        if not set(value.vars) <= lvars or value.homogeneous_degree() != 1:
            raise InputError(
                f"binding for {name!r} must be a linear form in "
                f"{sorted(lvars)}, got {value!s}"
            )
    return cm.substitute_base(bindings)


def underlying_line_module(cm: CharMorphism, *, line_vars=("x", "y")) -> GradedModuleP1:
    """The free module the morphism acts on: one degree-0 generator per dimension."""
    return GradedModuleP1.free([0] * cm.dim, vars=line_vars)
