"""Line-restriction pipeline: from a cover algebra to a filtered pseudomorphism.

Input: a finite free algebra S over k[x, y, z_2..z_n], the coordinate line
binding every z to zero, and a seed module whose target is the restricted
characteristic polynomial chi_0.  The pipeline decomposes chi - chi_0 into
monomials, builds one small T-slot module per monomial, twist-tensors them
onto the seed, extracts the characteristic morphism, and verifies that its
restriction to the line is a filtered pseudomorphism whose graded quotients
reproduce the seed's C-matrices blockwise.

Every required check failing aborts with a VerificationError that carries the
report accumulated so far; malformed inputs raise InputError before any work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from .errors import InputError, VerificationError
from .freealg import CharPoly, FreeAlgebra, char_poly, restrict_char_poly
from .linegeom import restrict_to_line
from .matrix import PolyMatrix
from .poly import Poly, as_poly
from .report import Report
from .roby import (
    CharMorphism,
    Filtration,
    GradedRobyModule,
    MonomialSpec,
    char_morphism,
    in_ideal,
    monomial_charpoly_roby,
    reindex_for_line,
    twisted_tensor_all,
    verify_char_morphism,
    verify_filtered_pseudo,
    verify_roby,
)
from .scalars import make_root

__all__ = [
    "PipelineSpec",
    "PipelineResult",
    "deviation_monomials",
    "run_pipeline",
    "MAX_ASSEMBLY_DIM",
]

# Largest assembly (seed dim * d^monomials) a pipeline will build: the n = 8
# rung of the multi-branch quadric family.  Each further monomial multiplies
# the dimension by d and the slots of every action matrix by d^2.
MAX_ASSEMBLY_DIM = 1024


@dataclass(frozen=True)
class PipelineSpec:
    """One pipeline run: algebra, coordinate line, seed.

    ``line`` must bind every base variable outside ``line_vars``, and must
    bind it to zero: the decomposition step hands each deviation monomial a
    factor in the ideal of the bound variables, and only a coordinate line
    makes that ideal monomial.  Restriction along a general linear form is
    still available separately (linegeom.restrict_to_line); change
    coordinates first to feed such a line through the pipeline.
    """

    algebra: FreeAlgebra
    line: dict
    seed: GradedRobyModule
    line_vars: tuple = ("x", "y")

    def __post_init__(self):
        if not isinstance(self.algebra, FreeAlgebra):
            raise InputError("the pipeline needs a FreeAlgebra")
        if not isinstance(self.seed, GradedRobyModule) or not self.seed.has_tslot:
            raise InputError("the seed must be a Roby module with a T-slot")
        if self.seed.degree != self.algebra.rank:
            raise InputError(
                f"seed degree {self.seed.degree} does not match "
                f"the algebra rank {self.algebra.rank}"
            )
        lvars = tuple(self.line_vars)
        object.__setattr__(self, "line_vars", lvars)
        if len(lvars) != 2 or len(set(lvars)) != 2:
            raise InputError("a line has exactly two coordinate variables")
        required = set(self.algebra.base_vars) - set(lvars)
        if set(self.line) != required:
            raise InputError(
                f"line bindings must cover exactly {sorted(required)}, "
                f"got {sorted(self.line)}"
            )
        bound = {}
        for v, value in self.line.items():
            p = as_poly(value)
            if p:
                raise InputError(
                    f"the pipeline restricts along a coordinate line: "
                    f"bind {v!r} to zero, not {p}"
                )
            bound[v] = p
        object.__setattr__(self, "line", bound)

    @property
    def ideal_vars(self) -> tuple:
        return tuple(sorted(self.line))


def deviation_monomials(
    chi: CharPoly, chi_line: CharPoly, algebra: FreeAlgebra, ideal_vars
) -> tuple:
    """Split chi - chi_line into MonomialSpecs, line-ideal factor last.

    Each monomial t^i * Gamma^alpha * (base power product) becomes d - i
    single-Gamma factors.  A graded algebra dictates the distribution: factor
    s must be homogeneous of the degree of its basis element, so the base
    variables are dealt out greedily in sorted order with the numeric
    coefficient on the first factor.  Ungraded algebras carry the whole
    coefficient on the last factor.  reindex_for_line then moves a factor in
    the ideal of ``ideal_vars`` into the last slot; every monomial of the
    deviation has one, because the deviation vanishes on the line and
    distinct monomials cannot cancel.
    """
    d = algebra.rank
    delta = chi.poly - chi_line.poly
    if not delta:
        return ()
    dual_pos = {v: i for i, v in enumerate(algebra.dual_names)}
    specs = []
    for exps, coeff in delta.sorted_terms():
        t_exp = 0
        dual_idx = []
        base = []  # variables of the monomial with multiplicity, sorted
        for v, e in zip(delta.vars, exps):
            if not e:
                continue
            if v == algebra.tvar:
                t_exp = e
            elif v in dual_pos:
                dual_idx.extend([dual_pos[v] + 1] * e)
            else:
                base.extend([v] * e)
        dual_idx.sort()
        if t_exp >= d or len(dual_idx) != d - t_exp:
            raise InputError(
                f"deviation monomial has t-degree {t_exp} and "
                f"{len(dual_idx)} dual factors; expected {d - t_exp} factors"
            )
        if algebra.degrees is not None:
            want = [algebra.degrees[k - 1] for k in dual_idx]
            if sum(want) != len(base):
                raise InputError(
                    f"graded decomposition mismatch: base degree {len(base)} "
                    f"vs slot degrees {want}"
                )
            factors = []
            pos = 0
            for s, w in enumerate(want):
                f = Poly.const(coeff) if s == 0 else Poly.const(1)
                for v in base[pos : pos + w]:
                    f = f * Poly.variable(v)
                pos += w
                factors.append(f)
        else:
            tail = Poly.const(coeff)
            for v in base:
                tail = tail * Poly.variable(v)
            factors = [Poly.const(1)] * (d - t_exp - 1) + [tail]
        spec = reindex_for_line(MonomialSpec(d, t_exp, factors, dual_idx), ideal_vars)
        specs.append(spec)
    return tuple(specs)


@dataclass
class PipelineResult:
    """Everything one run produces; the report carries the verdicts."""

    report: Report
    chi: CharPoly
    chi_line: CharPoly
    monomials: tuple
    seed: GradedRobyModule
    assembly: GradedRobyModule
    morphism: CharMorphism
    restricted: CharMorphism
    filtration: Filtration


def _require(report: Report, name: str, ok: bool, *, detail: str = "") -> None:
    report.add(name, ok, detail="" if ok else detail)
    if not ok:
        raise VerificationError(f"pipeline check failed: {name}", report=report)


def _merge(report: Report, sub: Report, prefix: str) -> None:
    report.extend(sub, prefix)
    bad = sub.first_failure()
    if bad is not None:
        why = f" ({bad.detail})" if bad.detail else ""
        raise VerificationError(
            f"pipeline check failed: {prefix}{bad.name}{why}", report=report
        )


def _quotients_match(
    restricted: CharMorphism, seed_line: CharMorphism, filtration: Filtration
) -> tuple:
    # sorted-index quotients come out seed-major, so each block is a Kronecker
    # product of the seed matrix with an identity
    w = seed_line.dim
    for level, idx in filtration.quotients():
        if len(idx) % w:
            return False, (
                f"level {level} has dimension {len(idx)}, "
                f"not a multiple of the seed dimension {w}"
            )
        eye = PolyMatrix.identity(len(idx) // w)
        for name, big, small in zip(
            seed_line.source.basis_names, restricted.matrices, seed_line.matrices
        ):
            if big.submatrix(idx, idx) != small.kron(eye):
                return False, f"level {level}: quotient of C({name}) is not a seed block"
    return True, ""


def run_pipeline(spec: PipelineSpec) -> PipelineResult:
    """Validate the seed, assemble, extract, restrict, verify.

    The order is fixed: seed target and Roby identity first (bad seeds are
    user errors and must fail before any tensor work), then decomposition and
    the bound on the assembly's dimension (``MAX_ASSEMBLY_DIM``), assembly,
    morphism extraction, and the filtered checks on the line.
    """
    t0 = time.monotonic()
    algebra = spec.algebra
    d = algebra.rank
    report = Report(title=f"cover pipeline: degree {d}, seed dim {spec.seed.dim}")
    report.meta["mode"] = "graded" if algebra.degrees is not None else "ungraded"

    seed = spec.seed.with_source(algebra)
    chi = char_poly(algebra)
    chi_line = restrict_char_poly(chi, spec.line)
    report.meta["chi"] = str(chi.poly)
    report.meta["chi_line"] = str(chi_line.poly)

    _require(
        report,
        "seed_target",
        seed.target_poly == chi_line.poly,
        detail="seed target differs from the restricted characteristic polynomial",
    )
    _merge(report, verify_roby(seed), "seed_")

    monomials = deviation_monomials(chi, chi_line, algebra, spec.ideal_vars)
    predicted = seed.dim * d ** len(monomials)
    if predicted > MAX_ASSEMBLY_DIM:
        raise InputError(
            f"the assembly would have dimension {predicted} (seed dim {seed.dim} "
            f"times {d}^{len(monomials)} for {len(monomials)} deviation monomials), "
            f"above the cap {MAX_ASSEMBLY_DIM}"
        )
    covered = Poly.zero()
    for m in monomials:
        covered = covered + m.value(algebra.dual_names, algebra.tvar)
    _require(
        report,
        "decomposition_covers_deviation",
        covered == chi.poly - chi_line.poly,
        detail="monomial values do not sum to chi - chi_line",
    )
    _require(
        report,
        "decomposition_in_ideal",
        all(in_ideal(m.factors[-1], spec.ideal_vars) for m in monomials),
        detail="a monomial's last factor lies outside the line ideal",
    )
    report.meta["monomials"] = len(monomials)

    # the assembly is one twisted tensor of the seed and every factor.  Its
    # basis vector (i_0, ..., i_k), seed-major, has as depth label the sum
    # over factors of d - r for its slot eps_r (r = i_j + 1); the seed adds
    # 0.  On the line every factor action strictly lowers the total depth or
    # kills, so accumulating flags from depth 0 upward gives an invariant
    # filtration
    factors = [monomial_charpoly_roby(m, algebra) for m in monomials]
    assembly = twisted_tensor_all([seed, *factors], make_root(d))
    depths = [range(d - 1, -1, -1)] * len(factors)
    filtration = Filtration.from_levels(map(sum, product([0] * seed.dim, *depths)))

    _merge(report, verify_roby(assembly), "assembly_")
    morphism = char_morphism(assembly)
    _merge(report, verify_char_morphism(morphism), "morphism_")

    restricted = restrict_to_line(morphism, spec.line, line_vars=spec.line_vars)
    _merge(report, verify_filtered_pseudo(restricted, filtration), "restricted_")
    seed_line = restrict_to_line(
        char_morphism(seed), spec.line, line_vars=spec.line_vars
    )
    ok, why = _quotients_match(restricted, seed_line, filtration)
    _require(report, "quotients_match_seed", ok, detail=why)

    report.meta["dim"] = assembly.dim
    report.meta["seed_dim"] = seed.dim
    report.meta["levels"] = [level for level, _ in filtration.quotients()]
    report.meta["quotient_dims"] = [len(idx) for _, idx in filtration.quotients()]
    report.meta["timing_ms"] = int((time.monotonic() - t0) * 1000)
    return PipelineResult(
        report,
        chi,
        chi_line,
        monomials,
        seed,
        assembly,
        morphism,
        restricted,
        filtration,
    )
