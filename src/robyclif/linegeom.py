"""Graded modules on a line: Hilbert functions and splitting types.

Finitely presented graded modules over k[x,y] split, as sheaves, into line
bundles O(a_1) + ... + O(a_r).  The splitting type is read off the Hilbert
function: its increment d(k) at degree k counts the summands with
a_i >= -k.  A drop of d is refused as torsion or missing saturation rather
than repaired; without one, the type read off the jumps of d has the
Hilbert function h on the whole scan, so nothing else is compared.  The
Hilbert function cannot see every torsion: k + S(-1)^2 (generators in
degrees 0, 1, 1, relations x and y on the first) has the Hilbert function
of O + O(-2) and is accepted as (-2, 0).

Where the scan stops.  Over S = k[x,y] the kernel of the relation map
F1 -> F0 is a submodule of a free module over a ring of global dimension 2,
so it is free, say on syzygies of degrees s_j, and the increment is

    d(k) = #{gen <= k} - #{rel <= k} + #{syzygy <= k}.

For k >= K0 = max(generator and relation degrees) the first two counts are
fixed, so d is nondecreasing there and at most ngens - rank(F1 -> F0), the
rank of the sheaf.  Once d(k) reaches that rank no syzygy lies above k, d
stays at the rank, the Hilbert function beyond k is fixed, and no degree
above k adds a twist or a drop: the verdict equals that of every longer
window.  ``splitting_type`` therefore scans from one below the least
generator degree (where h vanishes) to the first k >= K0 with d(k) equal to
the rank.  It refuses a presentation whose scan would cover more than
``MAX_SCAN_SPREAD`` degrees up to K0, before any degree is scanned, or pass
K0 by more than ``MAX_SCAN_PAST``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

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

# Most degrees the splitting-type scan may run past K0 (the largest generator
# or relation degree) while it waits for the Hilbert increment to reach the
# rank, that is, how far above K0 the highest syzygy of the relations may
# lie.  Apart from the tests of this cap, the tests, demos and benchmark
# inputs pass K0 by 1 at most.  Columns (x^D, 0, 0) and (y^D, 0, 0) on
# generators of degree 0, D, D have their syzygy at 2D, so their scan passes
# K0 = D by D, and each degree solves a linear system with 2(k - D + 1)
# rows: on a 2-CPU VM with Python 3.11, D = 256 is accepted in 0.11-0.18 s
# and D = 257 refused in 0.19 s, where D = 512 would take 0.45-0.61 s and
# D = 1000 2.3-2.8 s.
MAX_SCAN_PAST = 256

# Most degrees the scan may cover up to K0, from one below the least
# generator degree (top - lo in ``splitting_type``), refused before any
# degree is scanned: nothing else bounds how far apart the generator degrees
# lie.  The tests, demos and benchmark inputs span 16 degrees at most, apart
# from the two tests of MAX_SCAN_PAST, which span 257 and 258.  Each degree with a
# relation active solves a system whose rows grow with the degree: on a
# 2-CPU VM with Python 3.11, generators in degrees -511, -510, -510 and 0 with
# relations x and y on the first (active from degree -510) span 512 degrees
# in 0.44-0.54 s, where a span of 1,024 takes 2.1 s.
MAX_SCAN_SPREAD = 512


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


def _hilbert_from(module: GradedModuleP1, lo: int):
    """Yield dim of the cokernel's graded piece in degrees lo, lo + 1, ..."""
    vx, vy = module.vars
    # each nonzero relation entry decoded once: columns[c] lists (r, terms)
    columns = [[] for _ in range(module.nrels)]
    for r, c, _ in module.relations.nonzeros():
        columns[c].append((r, list(_xy_terms(module.relations.entry(r, c), vx, vy))))
    for k in count(lo):
        free_dim = sum(max(0, k - g + 1) for g in module.gen_degrees)
        rows = []
        for c, entries in enumerate(columns):
            base = k - module.rel_degrees[c]
            if base < 0:
                continue
            for mx in range(base + 1):
                my = base - mx
                vec = {}
                for r, terms in entries:
                    for (ex, ey), coeff in terms:
                        vec[(r, ex + mx, ey + my)] = coeff
                rows.append(vec)
        yield free_dim - _rank_of_rows(rows)


def hilbert_function(module: GradedModuleP1, lo: int, hi: int) -> dict:
    """dim of each graded piece of the cokernel for lo <= k <= hi."""
    if lo > hi:
        raise InputError("empty degree range")
    return dict(zip(range(lo, hi + 1), _hilbert_from(module, lo)))


def splitting_type(module: GradedModuleP1) -> SplittingType:
    """Twists (a_1 >= ... >= a_r) with the cokernel sheaf = sum of O(a_i).

    The Hilbert increment d(k) = h(k) - h(k-1) counts {i : a_i >= -k}, so
    each jump of d locates a twist and a drop is refused.  The scan starts
    one step below the least generator degree, where h vanishes, and stops
    at the first degree k >= K0 where d(k) is the rank; the module docstring
    shows that no longer window changes the verdict.
    """
    lo = min(module.gen_degrees) - 1
    top = max(module.gen_degrees + module.rel_degrees)
    if top - lo > MAX_SCAN_SPREAD:
        raise InputError(
            f"the scan would run over {top - lo} degrees, from {lo} to the largest "
            f"generator or relation degree {top}, above the cap {MAX_SCAN_SPREAD}"
        )
    rank = module.ngens - _generic_rank(module.relations)
    twists = []
    prev_h = prev_delta = 0
    for k, h in enumerate(_hilbert_from(module, lo + 1), start=lo + 1):
        delta = h - prev_h
        if delta < prev_delta:
            raise InputError(
                f"torsion or missing saturation: the Hilbert increment drops "
                f"from {prev_delta} to {delta} at degree {k}"
            )
        twists.extend([-k] * (delta - prev_delta))
        if k >= top and delta == rank:
            return SplittingType(tuple(twists))
        if k - top >= MAX_SCAN_PAST:
            raise InputError(
                f"the Hilbert increment is still {delta}, below the rank {rank}, "
                f"at degree {k}: the scan stops {MAX_SCAN_PAST} degrees past the "
                f"largest generator or relation degree {top}"
            )
        prev_delta, prev_h = delta, h


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
