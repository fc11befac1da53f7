"""Graded Roby modules: construction, twisted tensor products, verification.

A Roby module for a degree-e form F is a matrix assignment m -> phi(m) with
phi(m)^e = F(m)*I; the variant targeting a characteristic polynomial carries
one action per algebra basis element plus a T-slot and satisfies
psi(a, rT)^d = chi(a, r)*I.  Both flavors live in one class here: the T-slot
is one more action, bound to t the way each gamma_i is bound to its dual
variable, and the module stores one tuple of (name, target variable,
matrix) triples, which every consumer reads.  Every module built here is a
cyclic shift per action, eps_r -> (slot factor)*eps_(r+1)
(``PolyMatrix.cyclic_shift``), and the twisted tensor puts them onto a
seed.  Every identity is verified symbolically on a generic element with
fresh coefficients, never sampled numerically.

The power identity on one grade cycle.  A module is Z/dZ-graded and its
generic element G has degree 1, so G maps V_g to V_{g+1} and G^d is block
diagonal with blocks P_g = G_{g+d-1} ... G_{g+1} G_g.  Lemma: if every
nonzero of G raises the grade by one, all d grade classes have the same
size, the target value c is nonzero and P_0 = c*I, then G^d = c*I.  Indeed
det(G_{d-1}) ... det(G_0) = c^(dim V_0) != 0 in the polynomial domain, so
each block is invertible over its fraction field, and P_{g+1} =
G_g P_g G_g^(-1) = c*I for every g.  ``_cycle_is_scalar`` checks exactly
these conditions with d - 1 products of blocks; this is a proof, not a
sample.  When it cannot decide (c = 0, unequal classes, an ungraded entry)
or P_0 differs from c*I, the full power G^d is formed and checked, so a
failing report names its first offending entry of G^d - c*I.

The twisted tensor in one pass.  On seed-major indices (i_0, ..., i_k) of
M_0 (x) ... (x) M_k, with D_l = diag(xi^g_l), each action is

    gamma = sum_j (D_0 (x) ... (x) D_(j-1)) (x) gamma_j (x) I (x) ... (x) I,

the left fold of the two-factor product: a prefix (i_0, ..., i_(j-1)) has
grade G = g_0(i_0) + ... + g_(j-1)(i_(j-1)) mod e, and the fold's phase
there is xi^G.  Family j puts a nonzero gamma_j(r, c), times xi^G, on cells
whose row and column agree outside slot j and read r and c there.  An
entry of a graded action raises the grade by one, so r != c and row and
column differ in slot j alone: two families never share a cell.  Only
diagonal entries of ungraded actions meet, on the diagonal, and add.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, VerificationError
from .freealg import CharPoly, FreeAlgebra, cayley_hamilton_by_laws, char_poly, split_algebra
from .matrix import PolyMatrix, check_vanishes
from .poly import MAX_EXPONENT, HomForm, Poly, as_poly
from .report import Report
from .scalars import CycScalar, is_primitive_root

__all__ = [
    "GradedRobyModule",
    "MonomialSpec",
    "Filtration",
    "CharMorphism",
    "AlgebraEmbedding",
    "monomial_roby",
    "monomial_charpoly_roby",
    "split_roby",
    "zero_roby",
    "twisted_tensor",
    "twisted_tensor_all",
    "char_morphism",
    "verify_roby",
    "verify_char_morphism",
    "verify_filtered_pseudo",
    "induce_roby",
    "reindex_for_line",
    "in_ideal",
    "fresh_names",
]


def fresh_names(prefix: str, count: int, avoid) -> list:
    """Symbolic coefficient names prefix1..prefixN, dodging the avoid set."""
    taken = set(avoid)
    out = []
    for i in range(count):
        name = f"{prefix}{i + 1}" if count > 1 else prefix
        while name in taken:
            name += "_"
        taken.add(name)
        out.append(name)
    return out


class GradedRobyModule:
    """Action matrices with a Z/eZ grading, targeting a form or a char poly.

    ``named_actions`` is the one store: a (name, target variable, matrix)
    triple per basis action, then ("T", tvar, T-slot) last when there is a
    T-slot.  The target variable is the variable of ``target_poly`` that the
    action's generic coefficient replaces during verification: the action's
    own name for a form target, its dual variable (and ``tvar`` for the
    T-slot) for a characteristic polynomial target.  The generic element,
    the variable set, the grading check and the twisted tensor read the
    triples and need no T-slot branch of their own.  ``action_names``,
    ``actions``, ``target_vars`` (basis actions only) and ``tslot`` are
    read-only views of them; ``has_tslot`` is ``tvar is not None``.
    """

    __slots__ = (
        "degree", "dim", "grading", "tvar", "named_actions", "target_poly", "source_algebra"
    )

    def __init__(
        self,
        degree: int,
        grading,
        action_names,
        actions,
        target_poly: Poly,
        *,
        target_vars=None,
        tslot: PolyMatrix | None = None,
        tvar: str | None = None,
        source_algebra: FreeAlgebra | None = None,
    ):
        if not isinstance(degree, int) or degree < 2:
            raise InputError(f"Roby degree must be an integer >= 2, got {degree!r}")
        # the power identity writes the exponent d in each fresh coefficient,
        # so d is bounded like a written exponent, before any product
        if degree > MAX_EXPONENT:
            raise InputError(f"Roby degree {degree} exceeds the cap of {MAX_EXPONENT}")
        self.degree = degree
        names = tuple(action_names)
        if not names:
            raise InputError("a Roby module needs at least one action")
        if len(set(names)) != len(names):
            raise InputError("duplicate action names")
        actions = [m if isinstance(m, PolyMatrix) else PolyMatrix.from_rows(m) for m in actions]
        if len(actions) != len(names):
            raise InputError("need exactly one action matrix per name")
        dims = {m.nrows for m in actions} | {m.ncols for m in actions}
        if len(dims) != 1:
            raise InputError("action matrices must be square and of equal size")
        self.dim = dims.pop()
        if self.dim < 1:
            raise InputError("the module must have positive dimension")
        self.grading = tuple(int(g) % degree for g in grading)
        if len(self.grading) != self.dim:
            raise InputError("grading length must equal the module dimension")
        target_vars = tuple(target_vars) if target_vars is not None else names
        if len(target_vars) != len(names):
            raise InputError("target variables must parallel the actions")
        if (tslot is None) != (tvar is None):
            raise InputError("a T-slot needs a t-variable name and vice versa")
        named = tuple(zip(names, target_vars, actions))
        if tslot is not None:
            if not isinstance(tslot, PolyMatrix):
                tslot = PolyMatrix.from_rows(tslot)
            if tslot.shape != (self.dim, self.dim):
                raise InputError("T-slot shape does not match the module")
            if tvar in target_vars:
                raise InputError(f"{tvar!r} cannot double as a dual variable")
            named += (("T", tvar, tslot),)
        self.tvar = tvar
        self.named_actions = named
        if not isinstance(target_poly, Poly):
            raise InputError("target must be a Poly")
        self.target_poly = target_poly
        if source_algebra is not None:
            if source_algebra.basis_names != names:
                raise InputError("source algebra basis does not match the action names")
            if source_algebra.dual_names != target_vars:
                raise InputError("source algebra duals do not match the target variables")
            if tvar is not None and source_algebra.tvar != tvar:
                raise InputError("source algebra uses a different t-variable")
        self.source_algebra = source_algebra

    # -- views of named_actions ------------------------------------------------

    @property
    def has_tslot(self) -> bool:
        return self.tvar is not None

    @property
    def _basis(self) -> tuple:
        return self.named_actions[: len(self.named_actions) - self.has_tslot]

    @property
    def action_names(self) -> tuple:
        return tuple(n for n, _, _ in self._basis)

    @property
    def target_vars(self) -> tuple:
        return tuple(v for _, v, _ in self._basis)

    @property
    def actions(self) -> list:
        return [m for _, _, m in self._basis]

    @property
    def tslot(self) -> PolyMatrix | None:
        return self.named_actions[-1][2] if self.has_tslot else None

    def action(self, name: str) -> PolyMatrix:
        for n, _, m in self._basis:
            if n == name:
                return m
        raise InputError(f"no action named {name!r}")

    @classmethod
    def over(cls, algebra: FreeAlgebra, grading, actions, tslot, target=None) -> "GradedRobyModule":
        """The T-slot module of ``algebra``, one action per basis element.

        Its degree is the algebra's rank; its action names, dual variables,
        t-variable and source algebra are the algebra's, and its target
        defaults to the algebra's characteristic polynomial.
        """
        chi = char_poly(algebra).poly if target is None else target
        return cls(
            algebra.rank, grading, algebra.basis_names, actions, chi,
            target_vars=algebra.dual_names,
            tslot=tslot, tvar=algebra.tvar, source_algebra=algebra,
        )

    def with_source(self, algebra: FreeAlgebra) -> "GradedRobyModule":
        """Attach (or replace) the source algebra; names must line up."""
        return GradedRobyModule(
            self.degree, self.grading, self.action_names, self.actions, self.target_poly,
            target_vars=self.target_vars, tslot=self.tslot, tvar=self.tvar, source_algebra=algebra,
        )

    def generic_matrix(self, coeff_names) -> PolyMatrix:
        """Sum coeff_i * action_i over the named actions, T last if present."""
        if len(coeff_names) != len(self.named_actions):
            raise InputError("need one coefficient name per action")
        pairs = [(Poly.variable(c), m) for c, (_, _, m) in zip(coeff_names, self.named_actions)]
        return PolyMatrix.combination(pairs, self.dim)

    def all_vars(self):
        vs = set(self.target_poly.vars)
        for _, v, m in self.named_actions:
            vs.add(v)
            vs.update(m.vars)
        return vs

    def __repr__(self) -> str:
        kind = "charpoly" if self.has_tslot else "form"
        return f"GradedRobyModule({kind}, degree={self.degree}, dim={self.dim})"


@dataclass(frozen=True)
class MonomialSpec:
    """One monomial t^i * (c_1 G_{k_1}) ... (c_{d-i} G_{k_{d-i}}) of a char poly.

    Dual indices are 1-based positions into the algebra basis.  The factor
    count is pinned to d - i, so pure t^d monomials (i = d) are excluded;
    they cannot occur in chi - chi_0, whose t-degree is below d.
    """

    d: int
    t_exp: int
    factors: tuple
    dual_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(as_poly(c) for c in self.factors))
        object.__setattr__(self, "dual_indices", tuple(int(k) for k in self.dual_indices))
        if self.d < 2:
            raise InputError("monomial specs need algebra rank >= 2")
        if not 0 <= self.t_exp < self.d:
            raise InputError(f"t-exponent must lie in [0, {self.d - 1}], got {self.t_exp}")
        want = self.d - self.t_exp
        if len(self.factors) != want or len(self.dual_indices) != want:
            raise InputError(f"need exactly {want} coefficient factors and dual indices")
        for k in self.dual_indices:
            if not 1 <= k <= self.d:
                raise InputError(f"dual index {k} out of range 1..{self.d}")

    def value(self, dual_names, tvar: str) -> Poly:
        """The monomial as a Poly in the dual variables and t."""
        acc = Poly.variable(tvar) ** self.t_exp
        for c, k in zip(self.factors, self.dual_indices):
            acc = acc * c * Poly.variable(dual_names[k - 1])
        return acc


def in_ideal(p: Poly, ideal_vars) -> bool:
    """True when every term of p is divisible by one of the given variables."""
    return not p.substitute({v: 0 for v in ideal_vars})


def reindex_for_line(spec: MonomialSpec, ideal_vars) -> MonomialSpec:
    """Move a factor lying in the ideal (ideal_vars) into the last slot.

    The monomial value is symmetric in its factors, so this is a relabeling;
    the filtration argument downstream needs the last factor in the ideal.
    """
    pairs = list(zip(spec.factors, spec.dual_indices))
    if in_ideal(pairs[-1][0], ideal_vars):
        return spec
    for s in range(len(pairs) - 1):
        if in_ideal(pairs[s][0], ideal_vars):
            pairs.append(pairs.pop(s))
            fs, ks = zip(*pairs)
            return MonomialSpec(spec.d, spec.t_exp, fs, ks)
    raise InputError("no coefficient factor lies in the line ideal")


# -- constructions ---------------------------------------------------------


def _cyclic_grading(n: int, e: int):
    # deg(w_r) = r for r = 1..n, reduced mod e
    return tuple((j + 1) % e for j in range(n))


def monomial_roby(form: HomForm, factors=None) -> GradedRobyModule:
    """The e-dimensional module of a one-term degree-e form.

    action(x_i) sends w_j to (factor c_j) * w_{j+1} when the j-th factor of
    the monomial is x_i, indices cyclic.  ``factors`` optionally distributes
    the coefficient across the e slots as (coefficient, variable) pairs;
    by default the whole coefficient rides on the first factor.
    """
    e = form.degree
    coeff, arg_exps = form.single_term()
    if factors is None:
        seq = []
        for v in form.arg_vars:
            seq.extend([v] * arg_exps.get(v, 0))
        factors = [(coeff if j == 0 else Poly.const(1), v) for j, v in enumerate(seq)]
    factors = [(as_poly(c), v) for c, v in factors]
    if len(factors) != e:
        raise InputError(f"need exactly {e} factors for a degree-{e} form")
    check = Poly.const(1)
    for c, v in factors:
        if v not in form.arg_vars:
            raise InputError(f"{v!r} is not an argument variable of the form")
        check = check * c * Poly.variable(v)
    if check != form.underlying:
        raise InputError("factor product does not reproduce the form")
    actions = [
        PolyMatrix.cyclic_shift([c if u == v else 0 for c, u in factors]) for v in form.arg_vars
    ]
    return GradedRobyModule(e, _cyclic_grading(e, e), form.arg_vars, actions, form.underlying)


def monomial_charpoly_roby(spec: MonomialSpec, algebra: FreeAlgebra) -> GradedRobyModule:
    """The d-dimensional T-slot module of one char-poly monomial.

    gamma_p moves eps_r to c_{r-i} * eps_{r+1} exactly when p = k(r-i) and
    r > i; T moves eps_r to eps_{r+1} for r <= i and kills the rest.  The
    top vector wraps to eps_1.  In the graded case each coefficient factor
    must be homogeneous of the degree of its basis element.
    """
    d = algebra.rank
    if spec.d != d:
        raise InputError(f"spec is for rank {spec.d}, algebra has rank {d}")
    if algebra.degrees is not None:
        for s, (c, k) in enumerate(zip(spec.factors, spec.dual_indices)):
            want = algebra.degrees[k - 1]
            if c and c.homogeneous_degree() != want:
                raise InputError(
                    f"factor {s + 1} must be homogeneous of degree {want} "
                    f"(the degree of {algebra.basis_names[k - 1]}), got {c}"
                )
    # eps_(j+1) moves under T for j < i, and under gamma_k times factor j - i after
    owners = [0] * spec.t_exp + list(spec.dual_indices)  # 0 is T, k is gamma_k
    slots = [1] * spec.t_exp + list(spec.factors)

    def shift(k):
        return PolyMatrix.cyclic_shift([c if o == k else 0 for o, c in zip(owners, slots)])

    return GradedRobyModule.over(
        algebra,
        _cyclic_grading(d, d),
        [shift(k) for k in range(1, d + 1)],
        shift(0),
        spec.value(algebra.dual_names, algebra.tvar),
    )


def split_roby(d: int, *, dual_names=None) -> GradedRobyModule:
    """The cyclic module over the split algebra: chi = (t-x_1)...(t-x_d).

    T(w_j) = w_{j+1} and e_i(w_j) = -w_{j+1} when i = j+1, so the generic
    element moves w_j to (r - a_{j+1}) w_{j+1} and its d-th power telescopes.
    """
    if d < 2:
        raise InputError("split modules need rank >= 2")
    algebra = split_algebra(d, dual_names=dual_names)
    # zero-based, block j of action i is -1 exactly when i = j + 1 mod d
    actions = [
        PolyMatrix.cyclic_shift([-1 if (j + 1) % d == i else 0 for j in range(d)])
        for i in range(d)
    ]
    return GradedRobyModule.over(
        algebra, _cyclic_grading(d, d), actions, PolyMatrix.cyclic_shift([1] * d)
    )


def zero_roby(degree: int, action_names) -> GradedRobyModule:
    """The rank-one module of the zero form: all actions vanish."""
    names = tuple(action_names)
    return GradedRobyModule(degree, (0,), names, [PolyMatrix.zeros(1, 1)] * len(names), Poly.zero())


# -- twisted tensor product --------------------------------------------------


def twisted_tensor(
    m1: GradedRobyModule, m2: GradedRobyModule, xi, *, require_primitive: bool = True
) -> GradedRobyModule:
    """phi(m)(w1 (x) w2) = phi1(m)w1 (x) w2 + xi^deg(w1) w1 (x) phi2(m)w2.

    The two-factor case of ``twisted_tensor_all``.  Targets add; gradings
    add mod e.  xi must be a primitive e-th root of unity for the Roby
    identity to survive: the mixed terms of the e-th power carry the
    xi-binomial coefficients [e choose i]_xi, 0 < i < e, which vanish
    exactly then.  Pass require_primitive=False only to build the
    documented failing counterexample.
    """
    return twisted_tensor_all((m1, m2), xi, require_primitive=require_primitive)


def twisted_tensor_all(modules, xi, *, require_primitive: bool = True) -> GradedRobyModule:
    """M_0 (x) M_1 (x) ... (x) M_k in one pass: ``twisted_tensor`` folded from the left.

    The fold's refusals come in its order, before any matrix is built.
    Basis actions are the union of the factors' in order, a missing one
    acting by 0; the T-slots pair by position (a basis action may be named
    "T").  A source algebra survives when every factor shares it.
    """
    if not modules:
        raise InputError("a twisted tensor needs at least one module")
    first, e = modules[0], modules[0].degree
    tvars = {n: v for n, v, _ in first._basis}
    names = [t[:2] for t in first.named_actions]
    for m in modules[1:]:
        if m.degree != e:
            raise InputError(f"cannot tensor degrees {e} and {m.degree}")
        if first.has_tslot != m.has_tslot:
            raise InputError("cannot tensor a form module with a char-poly module")
        if not isinstance(xi, (int, Fraction, CycScalar)):
            raise InputError(f"the twist must be an exact scalar, got {type(xi).__name__}")
        if require_primitive and not is_primitive_root(xi, e):
            raise InputError(f"the twist must be a primitive root of unity of order {e}")
        if first.has_tslot and names != [t[:2] for t in m.named_actions]:
            raise InputError("char-poly modules must share basis and dual names")
        right = {n: w for n, w, _ in m._basis}
        for n, v in tvars.items():
            if v and right.get(n) and v != right[n]:
                raise InputError(f"action {n} has target variables {v!r} and {right[n]!r}")
        tvars.update((n, tvars.get(n) or w) for n, w in right.items())
    # classes[j][p] is the grade of prefix p = (i_0, ..., i_(j-1)) of factor
    # j, whose phase is xi^classes[j][p]; the last list is the grading
    classes = [(0,)]
    for m in modules:
        classes.append([(a + g) % e for a in classes[-1] for g in m.grading])
    tables = [{n: a for n, _, a in m._basis} for m in modules]
    columns = [[t.get(n) for t in tables] for n in tvars]
    if first.has_tslot:
        columns.append([m.tslot for m in modules])
    phases, dim = [xi ** g for g in range(e)], len(classes[-1])
    mats = [
        PolyMatrix.kron_sum([(c, a) for c, a in zip(classes, col) if a is not None], phases, dim)
        for col in columns
    ]
    source = first.source_algebra
    shared = all(m.source_algebra == source for m in modules)
    return GradedRobyModule(
        e, classes[-1], tvars, mats[: len(tvars)],
        sum((m.target_poly for m in modules[1:]), first.target_poly),
        target_vars=tvars.values(), tslot=mats[-1] if first.has_tslot else None,
        tvar=first.tvar, source_algebra=source if shared else None,
    )


# -- characteristic morphisms ---------------------------------------------------


@dataclass
class CharMorphism:
    """Matrices C(gamma_i) with chi(C(a), a) = 0; verified, never assumed."""

    source: FreeAlgebra
    matrices: list
    charpoly: CharPoly

    def __post_init__(self):
        if len(self.matrices) != self.source.rank:
            raise InputError("need one matrix per algebra basis element")
        dims = {m.nrows for m in self.matrices} | {m.ncols for m in self.matrices}
        if len(dims) != 1:
            raise InputError("characteristic morphism matrices must be square, equal size")
        if self.charpoly.rank != self.source.rank:
            raise InputError("characteristic polynomial rank does not match the algebra")

    @property
    def dim(self) -> int:
        return self.matrices[0].nrows

    def generic_matrix(self, coeff_names) -> PolyMatrix:
        return PolyMatrix.combination(
            [(Poly.variable(name), m) for name, m in zip(coeff_names, self.matrices)], self.dim
        )

    def substitute_base(self, bindings) -> "CharMorphism":
        """Restrict along base-ring substitution (e.g. onto a line)."""
        return CharMorphism(
            self.source.restrict(bindings),
            [m.substitute(bindings) for m in self.matrices],
            self.charpoly.substitute_base(bindings),
        )

    def all_vars(self):
        vs = set(self.charpoly.poly.vars)
        vs.update(self.charpoly.dual_names)
        vs.add(self.charpoly.tvar)
        for m in self.matrices:
            vs.update(m.vars)
        return vs


def char_morphism(module: GradedRobyModule) -> CharMorphism:
    """Extract C(gamma_i) = -action(gamma_i) * action(T)^(d-1).

    T^(d-1) is T^(-1) because T^d = I for a monic target; that identity is
    checked here rather than trusted, and a module whose T-slot is not cyclic
    (a single-monomial module, say) is rejected.
    """
    if not module.has_tslot:
        raise InputError("characteristic morphisms need a T-slot target")
    if module.source_algebra is None:
        raise InputError("attach the source algebra before extracting the morphism")
    d = module.degree
    t_inv = module.tslot.pow(d - 1)
    if module.tslot * t_inv != PolyMatrix.identity(module.dim):
        report = Report(title="characteristic morphism extraction")
        report.add("tslot_invertible", False, detail="action(T)^d is not the identity")
        raise VerificationError("action(T)^d != I; target cannot be monic", report=report)
    matrices = [-(a * t_inv) for a in module.actions]
    chi = CharPoly(d, module.target_poly, module.tvar, module.target_vars)
    return CharMorphism(module.source_algebra, matrices, chi)


# -- verification ------------------------------------------------------------------


def _graded_check(report: Report, module: GradedRobyModule) -> None:
    e = module.degree
    g = module.grading
    for name, _, m in module.named_actions:
        for r, c, _ in m.nonzeros():
            if g[r] != (g[c] + 1) % e:
                detail = f"action {name} entry ({r},{c}) breaks the grading"
                report.add("graded", False, detail=detail)
                return
    report.add("graded", True)


def _cycle_is_scalar(m: PolyMatrix, grading, d: int, c) -> bool:
    """True only when m^d = c*I follows from one grade cycle.

    The lemma of the module docstring: c != 0, every nonzero of m goes from
    grade g to grade g+1 mod d, the d grade classes V_g have one size, and
    P_0 = m[V_0,V_{d-1}] ... m[V_2,V_1] m[V_1,V_0] equals c*I.  False means
    only that the lemma does not decide; the caller then forms m^d.
    """
    if not c:
        return False
    if any(grading[r] != (grading[col] + 1) % d for r, col, _ in m.nonzeros()):
        return False
    classes = [[i for i, g in enumerate(grading) if g == k] for k in range(d)]
    if len({len(v) for v in classes}) != 1:
        return False
    cycle = m.submatrix(classes[1], classes[0])
    for g in range(1, d):
        cycle = m.submatrix(classes[(g + 1) % d], classes[g]) * cycle
    return cycle.plus_scalar(-c).is_zero()


def verify_roby(module: GradedRobyModule) -> Report:
    """Gradedness plus the power identity on a generic element, both exact.

    The power identity G^d = c*I is decided on one grade cycle when the
    lemma of the module docstring applies and P_0 = c*I.  Otherwise (c = 0,
    unequal grade classes, an ungraded entry, or P_0 != c*I) G^d is formed
    in full, and a failure names the first nonzero entry of G^d - c*I.
    """
    report = Report(title=f"roby module: degree {module.degree}, dim {module.dim}")
    _graded_check(report, module)
    avoid = module.all_vars()
    named = module.named_actions
    coeffs = fresh_names("s", len(module.actions), avoid)
    coeffs += fresh_names("r", len(named) - len(coeffs), avoid | set(coeffs))
    bindings = {v: Poly.variable(c) for (_, v, _), c in zip(named, coeffs)}
    generic = module.generic_matrix(coeffs)
    value = module.target_poly.substitute(bindings)
    if _cycle_is_scalar(generic, module.grading, module.degree, value):
        report.add("power_identity", True)
    else:
        power = generic.pow(module.degree)
        check_vanishes(report, "power_identity", power.plus_scalar(-value))
    report.meta["dim"] = module.dim
    report.meta["degree"] = module.degree
    report.meta["actions"] = list(module.action_names)
    report.meta["tslot"] = module.has_tslot
    return report


def verify_char_morphism(cm: CharMorphism, chi: CharPoly | None = None) -> Report:
    """Cayley-Hamilton for the generic element; unit and multiplicativity too.

    Only the Cayley-Hamilton identity is required: a characteristic morphism
    need not be an algebra morphism, so the unit and multiplicativity rows
    are informational.  They can still decide the required row: when both
    hold, C is an action, and chi(C(a)) = C(chi(rho(a)) 1) by the lemma of
    ``freealg``, so a zero unit column chi(rho(a)) 1 of the source algebra
    proves Cayley-Hamilton (``cayley_hamilton_by_laws``).  Otherwise, and
    whenever that column is nonzero, chi(C(a)) is formed in full and a
    failure names its first nonzero entry.
    """
    if chi is None:
        chi = cm.charpoly
    if len(cm.matrices) != chi.rank:
        raise InputError("matrix count must equal the characteristic polynomial rank")
    report = Report(title=f"characteristic morphism: rank {chi.rank}, dim {cm.dim}")
    algebra = cm.source
    avoid = cm.all_vars()
    coeffs = fresh_names("a", chi.rank, avoid)
    values = [Poly.variable(a) for a in coeffs]
    laws = algebra.action_laws(cm.matrices)
    if cayley_hamilton_by_laws(algebra, laws, chi, values):
        report.add("cayley_hamilton", True)
    else:
        value = chi.evaluate_matrix(cm.generic_matrix(coeffs), values)
        check_vanishes(report, "cayley_hamilton", value)
    unit_ok, pair = laws
    report.add("unit", unit_ok, required=False)
    detail = _product_detail(algebra, pair)
    report.add("multiplicativity", pair is None, required=False, detail=detail)
    report.meta["rank"] = chi.rank
    report.meta["dim"] = cm.dim
    return report


def _product_detail(algebra: FreeAlgebra, pair) -> str:
    if pair is None:
        return ""
    i, j = pair
    names = algebra.basis_names
    return f"C({names[i]})*C({names[j]}) is not the image of the product"


@dataclass(frozen=True)
class Filtration:
    """An increasing chain of coordinate subspaces exhausting the module."""

    dim: int
    flags: tuple
    levels: tuple = ()

    def __post_init__(self):
        flags = tuple(frozenset(int(i) for i in f) for f in self.flags)
        object.__setattr__(self, "flags", flags)
        levels = tuple(self.levels) if self.levels else tuple(range(len(flags)))
        object.__setattr__(self, "levels", levels)
        if not flags:
            raise InputError("a filtration needs at least one flag")
        if len(levels) != len(flags):
            raise InputError("need one level label per flag")
        if list(levels) != sorted(set(levels)):
            raise InputError("level labels must strictly increase")
        if any(i < 0 or i >= self.dim for f in flags for i in f):
            raise InputError("flag indices out of range")
        prev: frozenset = frozenset()
        for f in flags:
            if not prev < f:
                raise InputError("flags must strictly increase")
            prev = f
        if flags[-1] != frozenset(range(self.dim)):
            raise InputError("the last flag must be the whole space")

    @classmethod
    def trivial(cls, dim: int) -> "Filtration":
        return cls(dim, (range(dim),))

    @classmethod
    def from_levels(cls, labels) -> "Filtration":
        """Build flags from a per-basis-vector level labeling."""
        labels = list(labels)
        cuts = sorted(set(labels))
        flags = []
        acc: set = set()
        for level in cuts:
            acc |= {i for i, l in enumerate(labels) if l == level}
            flags.append(frozenset(acc))
        return cls(len(labels), flags, tuple(cuts))

    def quotients(self):
        """(level, sorted index list) per graded piece, flag-adapted order."""
        prev: frozenset = frozenset()
        out = []
        for level, f in zip(self.levels, self.flags):
            out.append((level, sorted(f - prev)))
            prev = f
        return out


def verify_filtered_pseudo(cm: CharMorphism, filtration: Filtration) -> Report:
    """Flag preservation plus algebra-morphism laws on each graded quotient."""
    if filtration.dim != cm.dim:
        raise InputError("filtration dimension does not match the morphism")
    algebra = cm.source
    report = Report(
        title=f"filtered pseudomorphism: dim {cm.dim}, {len(filtration.flags)} flags"
    )
    quotients = filtration.quotients()
    # entry (r, c) leaves a flag iff some flag holds c but not r; the first
    # such flag is the one that first holds c
    first = [0] * cm.dim
    for k, (_, idx) in enumerate(quotients):
        for i in idx:
            first[i] = k
    detail = ""
    for name, m in zip(algebra.basis_names, cm.matrices):
        leak = min(
            ((first[c], c, r) for r, c, _ in m.nonzeros() if first[r] > first[c]),
            default=None,
        )
        if leak is not None:
            detail = f"C({name}) entry ({leak[2]},{leak[1]}) leaves a flag"
            break
    ok = not detail
    report.add("flags_preserved", ok, detail=detail)
    unit_detail, mult_detail = "", ""
    if ok:
        for level, idx in quotients:
            unit_ok, pair = algebra.action_laws([m.submatrix(idx, idx) for m in cm.matrices])
            if not unit_ok and not unit_detail:
                unit_detail = f"quotient at level {level} misses the unit"
            if pair is not None and not mult_detail:
                mult_detail = f"level {level}: {_product_detail(algebra, pair)}"
    report.add("quotient_unit", ok and not unit_detail, detail=unit_detail)
    report.add("quotient_multiplicativity", ok and not mult_detail, detail=mult_detail)
    report.meta["levels"] = [level for level, _ in quotients]
    report.meta["quotient_dims"] = [len(idx) for _, idx in quotients]
    return report


# -- induction from a module over a cover ------------------------------------------


@dataclass(frozen=True)
class AlgebraEmbedding:
    """A -> B^(x n), componentwise algebra morphisms, given by B-coordinates.

    components[p][m] is the coordinate vector (over the basis of B) of the
    image of the p-th basis element of A in the m-th factor.
    """

    source: FreeAlgebra
    target: FreeAlgebra
    components: tuple

    def __post_init__(self):
        comps = tuple(
            tuple(tuple(as_poly(c) for c in vec) for vec in row)
            for row in self.components
        )
        object.__setattr__(self, "components", comps)
        a, b = self.source, self.target
        if len(comps) != a.rank:
            raise InputError("need one image per basis element of the source")
        n = {len(row) for row in comps}
        if len(n) != 1:
            raise InputError("ragged component count")
        self_n = n.pop()
        if self_n < 1:
            raise InputError("need at least one component")
        for row in comps:
            for vec in row:
                if len(vec) != b.rank:
                    raise InputError("coordinate vectors must have the target's rank")
        # B acts faithfully on itself, so the laws hold on the coordinate
        # vectors exactly when they hold on their multiplication matrices
        for m in range(self_n):
            unit_ok, pair = a.action_laws([b.element_rep(row[m]) for row in comps])
            if not unit_ok:
                raise InputError(f"component {m + 1} does not preserve the unit")
            if pair is not None:
                p, q = pair
                raise InputError(
                    f"component {m + 1} is not multiplicative on "
                    f"({a.basis_names[p]}, {a.basis_names[q]})"
                )

    @property
    def ncomponents(self) -> int:
        return len(self.components[0])


def induce_roby(
    split_module: GradedRobyModule,
    module_action,
    embedding: AlgebraEmbedding,
) -> GradedRobyModule:
    """Restrict the split construction along A -> B^(x d) acting on a module.

    ``module_action`` gives the B-module structure on a free module W, one
    matrix per basis element of B; the axioms are checked eagerly.  The
    output lives on k^d (x) W, T acts by the split T on the k^d factor, and
    gamma_p acts through the split idempotent slots by the images of its
    embedding components.  Both the Roby identity for chi_A and the
    B-linearity of the extracted characteristic morphism are verified;
    failure raises rather than returning a broken module.
    """
    a = embedding.source
    b = embedding.target
    d = embedding.ncomponents
    if a.rank != d:
        raise InputError(
            f"embedding has {d} components but the source algebra has rank {a.rank}; "
            "the induced module needs one component per basis element"
        )
    if not split_module.has_tslot or split_module.dim != d or split_module.degree != d:
        raise InputError(f"the split module must be the rank-{d} cyclic one")
    actions_b = [m if isinstance(m, PolyMatrix) else PolyMatrix.from_rows(m) for m in module_action]
    if len(actions_b) != b.rank:
        raise InputError("need one action matrix per basis element of B")
    sizes = {m.nrows for m in actions_b} | {m.ncols for m in actions_b}
    if len(sizes) != 1:
        raise InputError("module action matrices must be square, equal size")
    w = sizes.pop()
    unit_ok, pair = b.action_laws(actions_b)
    if not unit_ok:
        raise InputError("module action does not send the unit of B to the identity")
    if pair is not None:
        i, j = pair
        raise InputError(f"module action breaks on ({b.basis_names[i]}, {b.basis_names[j]})")

    # gamma_p acts by sum_m slot_m (x) rho(component m of gamma_p), where rho
    # sends B-coordinates to the module action
    new_actions = [
        PolyMatrix.combination(
            [
                (1, slot.kron(PolyMatrix.combination(zip(coords, actions_b), w)))
                for slot, coords in zip(split_module.actions, row)
            ],
            d * w,
        )
        for row in embedding.components
    ]
    new_tslot = split_module.tslot.kron(PolyMatrix.identity(w))
    grading = [g for g in split_module.grading for _ in range(w)]
    module = GradedRobyModule.over(a, grading, new_actions, new_tslot)
    report = verify_roby(module)
    if not report.ok:
        raise VerificationError(
            "induced module fails the Roby identity; the embedding does not "
            "multiply out to the characteristic polynomial",
            report=report,
        )
    cm = char_morphism(module)
    linearity = Report(title="induced morphism B-linearity")
    for i, mb in enumerate(actions_b):
        diag = PolyMatrix.identity(d).kron(mb)
        for p, cmat in enumerate(cm.matrices):
            if cmat * diag != diag * cmat:
                detail = f"C({a.basis_names[p]}) fails to commute with {b.basis_names[i]}"
                linearity.add("module_morphism", False, detail=detail)
                raise VerificationError("characteristic morphism is not B-linear", report=linearity)
    return module
