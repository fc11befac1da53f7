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

The power identity from the factors.  The xi-binomial lemma: if YX =
xi*XY with xi a primitive e-th root of unity, (X + Y)^e = X^e + Y^e, since
every coefficient [e choose i]_xi with 0 < i < e vanishes.  In the sum
above put X_j = (D_0 (x) ... (x) D_(j-1)) (x) G_j (x) I for the generic
elements G_j.  A graded G_l raises the grade by one, so D_l G_l = xi*G_l D_l,
and X_j X_l = xi*X_l X_j for l < j; by induction G^e = sum_j X_j^e, and
X_j^e = I (x) G_j^e (x) I because D_l^e = I.  A module built by
``twisted_tensor_all`` records (modules, xi) as its ``tensor_of``, and
``verify_roby`` writes its graded and power-identity rows as true, with no
product of the module's size, when

(i) each factor passes its own ``verify_roby``, by this lemma again when
    the factor is itself a recorded tensor, as in a binary fold;
(ii) every factor has the module's degree e, and xi is an exact primitive
     e-th root of unity;
(iii') every factor has the module's t-variable, its (name, target
     variable) pairs are among the module's, and no target variable of a
     pair it lacks occurs in its target.  A check binds each target
     variable v, in the target alone, to the fresh coefficient of the one
     action aimed at v (a module refuses a repeated target variable); the
     matrices keep their variables.  So the factor's check and the
     module's bind each variable of c_j to the same action, whatever the
     order of the actions, and an action the factor lacks is 0 in slot j.
     Sending each of the factor's fresh coefficients to the module's, a
     ring map, turns the factor's identity into X_j^e = c_j*I in the
     module's variables, and G = sum_j X_j term by term;
(iv) the module's grading is sum_l g_l(i_l) mod e on seed-major indices;
(v) each action equals the sum above, cell by cell, by the O(nnz)
    certificate ``PolyMatrix.is_twisted_sum``, which reads the finished
    matrices and shares no code with ``twisted_tensor_all``;
(vi) the factors' targets sum to the module's target, so c = sum_j c_j.

Then every nonzero raises the grade by one, and G^e = sum_j c_j*I = c*I.
When any condition fails, and for every module without the record (read
from a file, built by hand), the module is checked itself; a wrong record
can only send a module there, so a failing report is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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
    T-slot) for a characteristic polynomial target.  A check binds each
    target variable, in the target alone, to one action's coefficient, so
    a repeated target variable is refused.  The generic element,
    the variable set, the grading check and the twisted tensor read the
    triples and need no T-slot branch of their own.  ``action_names``,
    ``actions``, ``target_vars`` (basis actions only) and ``tslot`` are
    read-only views of them; ``has_tslot`` is ``tvar is not None``.

    ``tensor_of`` is (factors, xi) on a module that ``twisted_tensor_all``
    built, and None on every other, read from a file or built by hand.
    ``verify_roby`` tries the xi-binomial lemma on it first; the record is
    a hint, never trusted, and no view or renderer reads it.
    """

    __slots__ = (
        "degree", "dim", "grading", "tvar", "named_actions", "target_poly", "source_algebra",
        "tensor_of",
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
        tensor_of=None,
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
        # a check binds each target variable to one action's coefficient
        if len(set(target_vars)) != len(target_vars):
            raise InputError(f"repeated target variables {target_vars}: one action per variable")
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
        self.tensor_of = tensor_of

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
    "T").  A source algebra survives when every factor shares it.  The
    result records (modules, xi) as its ``tensor_of``.
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
        tensor_of=(tuple(modules), xi),
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


def _not_monic():
    """Refuse a T-slot with T^d != I, with the report both paths give."""
    report = Report(title="characteristic morphism extraction")
    report.add("tslot_invertible", False, detail="action(T)^d is not the identity")
    raise VerificationError("action(T)^d != I; target cannot be monic", report=report)


def _relabelling(t: PolyMatrix, d: int):
    """(pi, -(1/c_r) per r) for T monomial with constants and T^d = I.

    None when T is not monomial with constant entries; a monomial T with
    T^d != I fails as the product path does.  Walking d steps from each r
    along pi is O(dim * d).  1/c_r is the product of the other d - 1
    scalars on r's cycle, the entry T^(d-1)[pi(r), r] that ``pow`` forms,
    so the scalar types are those of the product path.
    """
    form = t.monomial_scalars()
    if form is None:
        return None
    pi, c = form
    scales = []
    for r in range(len(pi)):
        s = pi[r]
        inv = c[s]
        for _ in range(d - 2):
            s = pi[s]
            inv = inv * c[s]
        if pi[s] != r or c[r] * inv != 1:
            _not_monic()
        scales.append(-inv)
    return pi, scales


def char_morphism(module: GradedRobyModule) -> CharMorphism:
    """Extract C(gamma_i) = -action(gamma_i) * action(T)^(d-1).

    action(T)^(d-1) is T^(-1) because T^d = I for a monic target; that
    identity is checked here rather than trusted, and a module whose T-slot
    is not cyclic (a single-monomial module, say) is rejected.

    The relabelling lemma.  Let T[r, pi(r)] = c_r be the only nonzero of
    row r and of column pi(r), each c_r a constant.  Then (T^d)[r, pi^d(r)]
    is c_r c_pi(r) ... c_(pi^(d-1)(r)) and every other entry of row r is
    zero, so T^d = I exactly when each walk of d steps along pi returns to
    its start with product 1; that is checked in O(dim * d).  T^(-1) then
    has the one nonzero T^(-1)[pi(r), r] = 1/c_r in column r, and column r
    of C(gamma) is -(1/c_r) times column pi(r) of action(gamma), which one
    pass over the action's nonzeros writes (``PolyMatrix.relabelled``),
    equal key for key to the product.  Every T-slot the pipeline makes is
    such a T (T_seed ⊗ I).  Any other T takes the product path: T^(d-1) by
    ``pow``, negated once, checked by T * T^(d-1) = I, and multiplied into
    each action.  A failing T gives the same report on either path.
    """
    if not module.has_tslot:
        raise InputError("characteristic morphisms need a T-slot target")
    if module.source_algebra is None:
        raise InputError("attach the source algebra before extracting the morphism")
    d, t = module.degree, module.tslot
    relabelling = _relabelling(t, d)
    if relabelling is not None:
        pi, scales = relabelling
        matrices = [a.relabelled(pi, scales, t, d - 1) for a in module.actions]
    else:
        t_inv = t.pow(d - 1)
        if t * t_inv != PolyMatrix.identity(module.dim):
            _not_monic()
        neg_inv = -t_inv
        matrices = [a * neg_inv for a in module.actions]
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


def _power_check(report: Report, module: GradedRobyModule) -> None:
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


def _binds_alike(factor: GradedRobyModule, module: GradedRobyModule) -> bool:
    """Condition (iii'): factor's own check binds what module's check binds.

    The factor has the module's degree and t-variable, its (name, target
    variable) pairs, T-slot included, are among the module's, and no
    target variable of a pair it lacks occurs in its target.
    """
    if factor.degree != module.degree or factor.tvar != module.tvar:
        return False
    own = {t[:2] for t in factor.named_actions}
    pairs = {t[:2] for t in module.named_actions}
    return own <= pairs and not any(factor.target_poly.degree_in(v) for _, v in pairs - own)


def _tensor_lemma(module: GradedRobyModule, modules, xi) -> bool:
    """True only when the xi-binomial lemma proves module graded with G^e = c*I.

    Conditions (i)-(vi) of the module docstring, cheapest first; False
    means only that the lemma does not decide, and the caller then checks
    the module itself.  In the certificate an action a factor lacks is
    its zero matrix.
    """
    e = module.degree
    if not isinstance(xi, (int, Fraction, CycScalar)):
        return False
    if not is_primitive_root(xi, e):
        return False
    if not all(_binds_alike(m, module) for m in modules):
        return False
    if sum((m.target_poly for m in modules), Poly.zero()) != module.target_poly:
        return False
    if module.grading != tuple(sum(gs) % e for gs in product(*(m.grading for m in modules))):
        return False
    if not all(verify_roby(m).ok for m in modules):
        return False
    phases = [xi ** g for g in range(e)]
    # a basis target variable is never the t-variable, so (name, variable)
    # tells the T-slot from a basis action named "T"
    tables = [{(n, v): a for n, v, a in m.named_actions} for m in modules]
    zeros = [PolyMatrix.zeros(m.dim, m.dim) for m in modules]
    return all(
        a.is_twisted_sum(
            [(m.grading, t.get((n, v), z)) for m, t, z in zip(modules, tables, zeros)], phases
        )
        for n, v, a in module.named_actions
    )


def verify_roby(module: GradedRobyModule) -> Report:
    """Gradedness plus the power identity on a generic element, both exact.

    A module that ``twisted_tensor_all`` built records its factors and
    twist.  When the xi-binomial lemma of the module docstring applies to
    that record, both rows are decided from the factors and an O(nnz)
    certificate, with no product of the module's size.  Otherwise, and
    always for a module without the record, the module itself is checked:
    the power identity G^d = c*I is decided on one grade cycle when that
    lemma applies and P_0 = c*I, and in every other case (c = 0, unequal
    grade classes, an ungraded entry, or P_0 != c*I) G^d is formed in
    full, so a failure names the first nonzero entry of G^d - c*I.  A
    failing report is the same on either path.
    """
    report = Report(title=f"roby module: degree {module.degree}, dim {module.dim}")
    if module.tensor_of is not None and _tensor_lemma(module, *module.tensor_of):
        report.add("graded", True)
        report.add("power_identity", True)
    else:
        _graded_check(report, module)
        _power_check(report, module)
    report.meta["dim"] = module.dim
    report.meta["degree"] = module.degree
    report.meta["actions"] = list(module.action_names)
    report.meta["tslot"] = module.has_tslot
    return report


def verify_char_morphism(cm: CharMorphism) -> Report:
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
    chi = cm.charpoly
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
    """A coordinate filtration, stored as the level of each basis vector.

    The flag at level l holds every basis vector labelled at most l, so the
    flags increase and exhaust the module, and entry (r, c) of a matrix
    leaves a flag exactly when labels[r] > labels[c].
    """

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def levels(self) -> tuple:
        return tuple(sorted(set(self.labels)))

    @classmethod
    def trivial(cls, dim: int) -> "Filtration":
        return cls((0,) * dim)

    def quotients(self):
        """(level, sorted index list) per graded piece, levels ascending."""
        pieces: dict = {}
        for i, level in enumerate(self.labels):
            pieces.setdefault(level, []).append(i)
        return sorted(pieces.items())


def verify_filtered_pseudo(cm: CharMorphism, filtration: Filtration, *, seed=None) -> Report:
    """Flag preservation plus algebra-morphism laws on each graded quotient.

    ``seed``, when given, holds one matrix S per algebra basis element, the
    seed of a seed-major assembly (basis i = s*W + rho, w = dim S, W =
    dim / w) whose depth labels depend on rho alone.  Each C-matrix is then
    first read by the certificate ``PolyMatrix.is_filtered_kron``: no entry
    leaves a flag, and every level block is S ⊗ I_m.  When it holds for
    every matrix, the flags are kept, and since X -> X ⊗ I_m is an
    injective unital ring map that commutes with combinations with
    polynomial coefficients, ``action_laws`` returns the same (unit_ok,
    first failing pair) on every level's blocks as on the seed: the laws
    are decided on the seed alone, and the lowest level, the one the
    per-level loop names first, is the one named.  The report's meta then
    says ``seed_blocks: True``.  On any leak or mismatch (``seed_blocks:
    False``), and always without a seed, each level's blocks are cut out
    and checked, so a failing report is the same either way.
    """
    if filtration.dim != cm.dim:
        raise InputError("filtration dimension does not match the morphism")
    algebra = cm.source
    labels = filtration.labels
    quotients = filtration.quotients()
    report = Report(title=f"filtered pseudomorphism: dim {cm.dim}, {len(quotients)} flags")
    certified = seed is not None and len(seed) == len(cm.matrices) and all(
        m.is_filtered_kron(s, labels) for m, s in zip(cm.matrices, seed)
    )
    detail = ""
    if certified:
        pieces = [(quotients[0][0], seed)]
    else:
        for name, m in zip(algebra.basis_names, cm.matrices):
            leak = min(
                ((labels[c], c, r) for r, c, _ in m.nonzeros() if labels[r] > labels[c]),
                default=None,
            )
            if leak is not None:
                detail = f"C({name}) entry ({leak[2]},{leak[1]}) leaves a flag"
                break
        pieces = (
            (level, [m.submatrix(idx, idx) for m in cm.matrices]) for level, idx in quotients
        )
    ok = not detail
    report.add("flags_preserved", ok, detail=detail)
    unit_detail, mult_detail = "", ""
    if ok:
        for level, blocks in pieces:
            unit_ok, pair = algebra.action_laws(blocks)
            if not unit_ok and not unit_detail:
                unit_detail = f"quotient at level {level} misses the unit"
            if pair is not None and not mult_detail:
                mult_detail = f"level {level}: {_product_detail(algebra, pair)}"
    report.add("quotient_unit", ok and not unit_detail, detail=unit_detail)
    report.add("quotient_multiplicativity", ok and not mult_detail, detail=mult_detail)
    report.meta["levels"] = [level for level, _ in quotients]
    report.meta["quotient_dims"] = [len(idx) for _, idx in quotients]
    if seed is not None:
        report.meta["seed_blocks"] = certified
    return report
