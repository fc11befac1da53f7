"""Finite free algebras over polynomial rings and their characteristic polynomials.

A ``FreeAlgebra`` is a free module R^d with a commutative, associative,
unital multiplication given by structure constants in R.  All three laws are
validated eagerly at construction; nothing downstream rechecks them.  Unit and
associativity are the action laws (``FreeAlgebra.action_laws``, on every
ordered pair of basis elements) of the algebra's own regular representation.
The characteristic polynomial of the generic element is computed from the
regular representation by the Berkowitz algorithm, which is division-free, so
it works verbatim over the polynomial ring.

The unit shift.  Suppose the unit is the basis element gamma_u and its table
row is the identity, L_u = I; ``unit_index`` is that u, read from the table,
so it holds for tables built with ``validate=False`` too.  Lemma: then
rho(a) = G_u*I + rho(a') with a' = a - G_u*gamma_u, so det(t*I - rho(a)) =
det((t - G_u)*I - rho(a')), that is chi_a(t) = chi_a'(t - G_u), an exact
identity in R[G, t] with no division and no sampling.  ``char_poly`` runs
Berkowitz on rho(a'), which lacks G_u, and reads its coefficient column out
in powers of t - G_u.  With no such u (split algebras, tables that break the
unit row) it runs on rho(a) itself.

The base change.  Let z^d = sum a_k z^k define a monogenic algebra, and give
each tail coefficient a_k of two or more terms a fresh symbol W_k.  The map
phi: W_k -> a_k is a ring morphism that fixes the duals and t, and the same
power loop builds both tables, so the real table is phi of the generic one
entrywise and rho(a) = phi(rho_W(a)).  Lemma: det(t*I - rho(a)) =
phi(det(t*I - rho_W(a))), exactly, as phi commutes with every sum and
product of the determinant.  ``char_poly`` so runs Berkowitz (with the unit
shift) over the generic table, where no power of a_k is ever expanded, and
substitutes W_k -> a_k once in the result.

The shape check.  Write chi = sum_k c_k t^k with no t in any c_k, and let
the duals be distinct names other than t.  Lemma: for rank d >= 1, c_d = 1,
c_k = 0 for k > d and each nonzero c_k is a form of degree d - k in the
duals exactly when (1) chi is homogeneous of degree d in (t, duals) and (2)
chi - t^d has t-degree below d.  (1) says each term of c_k t^k has dual
degree d - k; (2) says chi - t^d has no term at t^k for k >= d, that is
c_d - 1 = 0 and c_k = 0 above d.  Both are whole-polynomial queries on the
packed keys, so ``CharPoly`` accepts chi on them without splitting it into
coefficients; only when one fails does its per-coefficient loop run, to
decide the edge cases (rank 0, a chi without t) and word the refusal.

Cayley-Hamilton on the unit column.  Let C send gamma_i to the matrix M_i
and pass the action laws: C(1) = I and C(gamma_i) C(gamma_j) =
C(gamma_i gamma_j) for every ordered pair.  Lemma: then C(x w) = C(x) C(w)
for all x and w, by bilinearity; no commutativity or associativity of the
table is used.  Left multiplication by a = sum a_i gamma_i is rho(a) = sum
a_i * left_mult[i], so w_0 = 1 and w_(k+1) = rho(a) w_k give C(w_k) =
C(a)^k, and chi(C(a)) = C(chi(rho(a)) 1) for any a_i and any coefficients
of chi.  Hence chi(C(a)) = 0 exactly once the rank x 1 column chi(rho(a)) 1
is zero.  ``cayley_hamilton_by_laws`` decides it so, with ``rank`` products
of rho(a) by a column; this is a proof, not a sample.  When the laws fail or
the column is nonzero, the caller evaluates chi(C(a)) in full, so a failing
report names its first offending entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .matrix import PolyMatrix, check_vanishes
from .poly import Poly, as_poly
from .report import Report

__all__ = [
    "FreeAlgebra",
    "CharPoly",
    "split_algebra",
    "monogenic_algebra",
    "regular_representation",
    "char_poly",
    "char_poly_of_matrix",
    "restrict_char_poly",
    "cayley_hamilton_check",
    "cayley_hamilton_by_laws",
    "MAX_RANK",
]

# Largest algebra rank, checked before any table of rank^3 structure
# constants is built (rank 2000 would ask for 8 * 10^9).  It bounds the tables,
# not the characteristic polynomial, which for z^9 - x*z - y already has 25207
# terms.
MAX_RANK = 16


def _check_rank(d: int) -> None:
    if d > MAX_RANK:
        raise InputError(f"algebra rank {d} exceeds the cap of {MAX_RANK}")


class FreeAlgebra:
    """Structure constants c[i][j] = coordinates of gamma_i * gamma_j.

    ``generic`` is None, or (generic algebra, bindings) as set by
    ``monogenic_algebra`` for ``char_poly``'s base change.
    """

    __slots__ = (
        "rank", "basis_names", "dual_names", "base_vars", "degrees", "table", "unit", "tvar",
        "left_mult", "unit_index", "generic",
    )

    def __init__(
        self,
        basis_names,
        table,
        *,
        base_vars=(),
        unit=None,
        degrees=None,
        dual_names=None,
        tvar="t",
        validate=True,
    ):
        self.rank = len(basis_names)
        d = self.rank
        if d < 1:
            raise InputError("an algebra needs at least one basis element")
        _check_rank(d)
        self.basis_names = tuple(str(n) for n in basis_names)
        if len(set(self.basis_names)) != d:
            raise InputError("duplicate basis names")
        self.tvar = tvar
        if dual_names is None:
            dual_names = tuple(f"G{i + 1}" for i in range(d))
        self.dual_names = tuple(dual_names)
        if len(self.dual_names) != d or len(set(self.dual_names)) != d:
            raise InputError("need one distinct dual variable per basis element")
        if tvar in self.dual_names:
            raise InputError(f"{tvar!r} cannot double as a dual variable")
        self.degrees = tuple(int(x) for x in degrees) if degrees is not None else None
        if self.degrees is not None and len(self.degrees) != d:
            raise InputError("need one degree per basis element")
        self.table = [
            [[as_poly(c) for c in table[i][j]] for j in range(d)] for i in range(d)
        ]
        for i in range(d):
            for j in range(d):
                if len(self.table[i][j]) != d:
                    raise InputError("structure constant rows must have length rank")
        if unit is None:
            unit_coords = [Poly.const(1)] + [Poly.zero()] * (d - 1)
        else:
            unit_coords = [as_poly(c) for c in unit]
            if len(unit_coords) != d:
                raise InputError("unit coordinate vector must have length rank")
        self.unit = unit_coords
        # left_mult[i] multiplies by gamma_i: its column j is the table row c[i][j]
        c = self.table
        self.left_mult = tuple(
            PolyMatrix.from_rows([[c[i][j][k] for j in range(d)] for k in range(d)])
            for i in range(d)
        )
        used = set(base_vars).union(*(x.vars for x in (*self.left_mult, *unit_coords)))
        reserved = set(self.dual_names) | {tvar}
        if reserved & used:
            raise InputError(
                f"structure constants collide with dual variables or {tvar!r}: "
                f"{sorted(reserved & used)}"
            )
        self.base_vars = tuple(sorted(used))
        self.unit_index = self._find_unit_index()
        self.generic = None
        if validate:
            self._validate()

    # -- laws -------------------------------------------------------------

    def _validate(self) -> None:
        d = self.rank
        c = self.table
        for i in range(d):
            for j in range(i + 1, d):
                if any(c[i][j][k] != c[j][i][k] for k in range(d)):
                    raise InputError(
                        f"multiplication is not commutative at "
                        f"({self.basis_names[i]}, {self.basis_names[j]})"
                    )
        # a failing law is located at the first nonzero column of the difference
        left = self.left_mult
        unit_ok, pair = self.action_laws(left)
        if not unit_ok:
            miss = self.element_rep(self.unit).plus_scalar(-1)
            j = miss.transpose().first_nonzero()[0]
            raise InputError(f"unit law fails on {self.basis_names[j]}")
        if pair is not None:
            i, j = pair
            k = (left[i] * left[j] - self.element_rep(c[i][j])).transpose().first_nonzero()[0]
            raise InputError(
                f"multiplication is not associative at "
                f"({self.basis_names[i]}, {self.basis_names[j]}, {self.basis_names[k]})"
            )
        if self.degrees is not None:
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        p = c[i][j][k]
                        if not p:
                            continue
                        want = self.degrees[i] + self.degrees[j] - self.degrees[k]
                        if p.homogeneous_degree() != want:
                            raise InputError(
                                f"structure constant ({i},{j},{k}) is not homogeneous "
                                f"of degree {want}: {p}"
                            )

    # -- algebra operations --------------------------------------------------

    def _find_unit_index(self):
        """The index u with unit = e_u and c[u][j] = c[j][u] = e_j for all j, or None.

        The table is read directly, not trusted to ``_validate``: tables built
        with ``validate=False`` may break the unit law.  Split presentations
        have no such u, as their unit is e_1 + ... + e_d.
        """
        def is_basis(coords, j):
            return all(p == 1 if k == j else not p for k, p in enumerate(coords))

        c = self.table
        for u in range(self.rank):
            if is_basis(self.unit, u):
                if all(is_basis(c[u][j], j) and is_basis(c[j][u], j) for j in range(self.rank)):
                    return u
                return None
        return None

    def action_laws(self, matrices) -> tuple:
        """The laws of an action gamma_i -> matrices[i], checked exactly.

        Returns (unit_ok, pair): unit_ok says the unit maps to the identity,
        and pair is the first (i, j) over every ordered pair, as the matrices
        need not commute, where matrices[i] * matrices[j] is not the image of
        gamma_i gamma_j, or None.  On ``left_mult`` column k of the two sides
        is gamma_i (gamma_j gamma_k) and (gamma_i gamma_j) gamma_k.

        When the unit is a basis element gamma_u whose table row and column
        are the identity (``unit_index``), unit_ok is matrices[u] == I, and if
        it holds no pair with i == u or j == u is multiplied: both sides are
        then matrices[j] (resp. matrices[i]) for any matrices, so the result is
        the full loop's.  A rank-d monogenic algebra thus makes (d - 1)^2
        products instead of d^2.
        """
        n = matrices[0].nrows
        u = self.unit_index
        if u is None:
            unit_ok = PolyMatrix.combination(zip(self.unit, matrices), n) == PolyMatrix.identity(n)
        else:
            unit_ok = matrices[u] == PolyMatrix.identity(n)
        skip = u if unit_ok else None
        for i in range(self.rank):
            if i == skip:
                continue
            for j in range(self.rank):
                if j == skip:
                    continue
                image = PolyMatrix.combination(zip(self.table[i][j], matrices), n)
                if matrices[i] * matrices[j] != image:
                    return unit_ok, (i, j)
        return unit_ok, None

    def _basis_coords(self, j: int):
        return [Poly.const(1) if k == j else Poly.zero() for k in range(self.rank)]

    def product(self, u, v):
        """Coordinates of the product of two coordinate vectors."""
        d = self.rank
        out = [Poly.zero() for _ in range(d)]
        for i in range(d):
            ui = u[i]
            if not ui:
                continue
            for j in range(d):
                vj = v[j]
                if not vj:
                    continue
                uv = ui * vj
                for k in range(d):
                    ck = self.table[i][j][k]
                    if ck:
                        out[k] = out[k] + uv * ck
        return out

    def element_rep(self, coords) -> PolyMatrix:
        """Matrix of multiplication by sum(coords[i] * gamma_i) in the basis."""
        return PolyMatrix.combination(zip(coords, self.left_mult), self.rank)

    def regular_representation(self) -> PolyMatrix:
        """Matrix of the generic element sum(Gamma_i gamma_i); linear in duals."""
        return self.element_rep([Poly.variable(g) for g in self.dual_names])

    def restrict(self, bindings) -> "FreeAlgebra":
        """Substitute base variables (e.g. onto a line); laws survive substitution.

        The result has no ``generic`` algebra: its table is taken as given.
        """
        keys = set(bindings)
        if not keys <= set(self.base_vars):
            raise InputError(f"bindings must cover base variables only, got {sorted(keys)}")
        new_table = [
            [[c.substitute(bindings) for c in self.table[i][j]] for j in range(self.rank)]
            for i in range(self.rank)
        ]
        new_unit = [c.substitute(bindings) for c in self.unit]
        new_base = set(self.base_vars) - keys
        for b in bindings.values():
            new_base.update(as_poly(b).vars)
        return FreeAlgebra(
            self.basis_names,
            new_table,
            base_vars=tuple(sorted(new_base)),
            unit=new_unit,
            degrees=None if bindings else self.degrees,
            dual_names=self.dual_names,
            tvar=self.tvar,
        )

    def __eq__(self, other):
        # ``generic`` is a way to compute, not part of the algebra
        if not isinstance(other, FreeAlgebra):
            return NotImplemented
        if (
            self.rank != other.rank
            or self.basis_names != other.basis_names
            or self.dual_names != other.dual_names
            or self.tvar != other.tvar
            or self.degrees != other.degrees
        ):
            return False
        if any(a != b for a, b in zip(self.unit, other.unit)):
            return False
        return self.left_mult == other.left_mult

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FreeAlgebra(rank={self.rank}, basis={list(self.basis_names)})"


@dataclass
class CharPoly:
    """det(t*I - rho(generic)): monic of degree rank in t, over R[duals].

    The shape check of the module docstring: for rank >= 1, chi is monic of
    degree rank with each t^k coefficient a form of degree rank - k in the
    duals exactly when chi is homogeneous of degree rank in (t, duals) and
    chi - t^rank has t-degree below rank.  Those two queries accept chi;
    when one fails, the per-coefficient loop decides and words the refusal.
    A t-variable among the duals, or a repeated dual, is refused first.
    """

    rank: int
    poly: Poly
    tvar: str
    dual_names: tuple

    def __post_init__(self):
        self.dual_names = tuple(self.dual_names)
        if len(set(self.dual_names)) != len(self.dual_names):
            raise InputError("need one distinct dual variable per basis element")
        if self.tvar in self.dual_names:
            raise InputError(f"{self.tvar!r} cannot double as a dual variable")
        poly, tvar, rank = self.poly, self.tvar, self.rank
        # t^rank is built as one term, so the check makes no kernel product;
        # a chi without t (rank 0 among them) is left to the loop
        if (
            tvar in poly.vars
            and poly.homogeneous_degree((tvar, *self.dual_names)) == rank
            and (poly - Poly((tvar,), {(rank,): 1})).degree_in(tvar) < rank
        ):
            return
        coeffs = self.coefficients()
        top = coeffs.get(self.rank)
        if top is None or top != 1:
            raise InputError("characteristic polynomial must be monic of degree rank")
        # the t^(d-j) coefficient is a degree-j form in the dual variables
        for k, c in coeffs.items():
            if c and c.homogeneous_degree(self.dual_names) != self.rank - k:
                raise InputError(
                    f"t^{k} coefficient is not homogeneous of degree "
                    f"{self.rank - k} in the dual variables: {c}"
                )

    def coefficients(self) -> dict:
        """Map t-exponent -> coefficient Poly (t removed from the context)."""
        return self.poly.coefficient_map(self.tvar)

    def substitute_base(self, bindings) -> "CharPoly":
        banned = (set(self.dual_names) | {self.tvar}) & set(bindings)
        if banned:
            raise InputError(f"cannot bind dual variables or {self.tvar!r}: {sorted(banned)}")
        for v in bindings.values():
            vp = as_poly(v)
            if set(vp.vars) & (set(self.dual_names) | {self.tvar}):
                raise InputError("binding values may not involve dual variables or t")
        return CharPoly(self.rank, self.poly.substitute(bindings), self.tvar, self.dual_names)

    def bound_coefficients(self, gamma_values) -> dict:
        """Map t-exponent -> coefficient with Gamma_i -> gamma_values[i].

        A dual bound to itself is dropped from the bindings, and when none
        is left the coefficients are returned unsubstituted: the same Polys
        that substituting the identity gives, with no call made for them.
        """
        if len(gamma_values) != self.rank:
            raise InputError("need one value per dual variable")
        bindings = {
            v: g for v, g in zip(self.dual_names, gamma_values) if as_poly(g) != Poly.variable(v)
        }
        coeffs = self.coefficients()
        if not bindings:
            return coeffs
        return {j: c.substitute(bindings) for j, c in coeffs.items()}

    def evaluate_matrix(self, m: PolyMatrix, gamma_values) -> PolyMatrix:
        """chi with t -> m and Gamma_i -> gamma_values[i], by Horner."""
        coeffs = self.bound_coefficients(gamma_values)
        n = m.nrows
        if not self.rank:
            return PolyMatrix.identity(n)
        acc = None  # the leading coefficient is 1, so the first step is m itself
        for j in range(self.rank - 1, -1, -1):
            acc = m if acc is None else acc * m
            cj = coeffs.get(j)
            if cj is not None and cj:
                acc = acc.plus_scalar(cj)
        return acc

    def __eq__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.tvar == other.tvar
            and self.dual_names == other.dual_names
            and self.poly == other.poly
        )

    def __str__(self) -> str:
        return str(self.poly)


# -- the Berkowitz algorithm ----------------------------------------------------


def _berkowitz_column(m: PolyMatrix) -> PolyMatrix:
    """Coefficients of det(t*I - m) as an (n+1) x 1 column, descending in t.

    Division-free (Berkowitz 1984), one leading submatrix at a time: the
    column of the leading (k+1) x (k+1) submatrix is a (k+2) x (k+1)
    lower-triangular Toeplitz matrix times the column of the leading k x k
    one a, starting from [1] for 0 x 0.  With r and c the rest of row and
    column k, the Toeplitz matrix's first column is 1, -m[k][k], -r*c,
    -r*a*c, ..., -r*a^(k-1)*c.  Every step is a matrix operation, so the
    keys stay packed throughout.
    """
    one = vec = PolyMatrix.identity(1)
    for k in range(m.nrows):
        lead = list(range(k))
        a = m.submatrix(lead, lead)
        r = m.submatrix([k], lead)
        c = m.submatrix(lead, [k])
        column = [one, -m.submatrix([k], [k])]
        for j in range(k):
            if j:
                c = a * c
            column.append(-(r * c))
        vec = PolyMatrix.toeplitz(column, k + 1) * vec
    return vec


def _read_out(column: PolyMatrix, x: Poly) -> Poly:
    """The polynomial of an (n+1) x 1 coefficient column, descending in x.

    It is read out once, as the row [x^n ... x 1] times the column.
    """
    powers = [Poly.const(1)]
    for _ in range(column.nrows - 1):
        powers.append(powers[-1] * x)
    return (PolyMatrix.from_rows([powers[::-1]]) * column).entry(0, 0)


def char_poly_of_matrix(m: PolyMatrix, tvar: str = "t") -> Poly:
    """det(tvar*I - m) as a Poly, computed without divisions."""
    if m.nrows != m.ncols:
        raise InputError("characteristic polynomial needs a square matrix")
    if tvar in m.vars:
        raise InputError(f"matrix entries already involve {tvar!r}")
    return _read_out(_berkowitz_column(m), Poly.variable(tvar))


# -- contract-named operations -----------------------------------------------------


def split_algebra(d: int, *, base_vars=(), dual_names=None, tvar="t") -> FreeAlgebra:
    """R^d with coordinatewise product: orthogonal idempotents e_1..e_d.

    The unit is e_1 + ... + e_d, not a basis element; all operations consult
    the stored unit coordinates rather than assuming gamma_1 is the unit.
    """
    if d < 1:
        raise InputError("split algebra needs rank >= 1")
    _check_rank(d)
    names = [f"e{i + 1}" for i in range(d)]
    if dual_names is None:
        dual_names = [f"x{i + 1}" for i in range(d)]
    table = [
        [
            [Poly.const(1) if (i == j and k == i) else Poly.zero() for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    return FreeAlgebra(
        names,
        table,
        base_vars=base_vars,
        unit=[Poly.const(1)] * d,
        degrees=[0] * d,
        dual_names=dual_names,
        tvar=tvar,
    )


def monogenic_algebra(
    p: Poly, var: str, *, basis_names=None, dual_names=None, tvar="t"
) -> FreeAlgebra:
    """R[z]/(p(z)) for p monic in var; basis 1, z, ..., z^(d-1).

    The basis is named 1, z, z2, ... (``_power_name`` keeps z^k clear of the
    base variables) unless ``basis_names`` gives one name per power.

    With z^d = sum a_k z^k, each tail coefficient a_k of two or more terms
    gets a fresh symbol W_k (``_power_name`` keeps it clear of every base
    variable, dual and t).  The same power loop then builds the generic
    table over the W_k, and ``generic`` keeps that algebra, unvalidated,
    with the bindings W_k -> a_k, for ``char_poly``'s base change.  With no
    such coefficient ``generic`` stays None.
    """
    p = as_poly(p)
    if var not in p.vars:
        raise InputError(f"defining polynomial does not involve {var!r}")
    d = p.degree_in(var)
    if d < 1:
        raise InputError("defining polynomial must have positive degree")
    _check_rank(d)
    coeffs = p.coefficient_map(var)
    if coeffs.get(d) != 1:
        raise InputError(f"defining polynomial must be monic in {var!r}")
    # z^d = -(lower part); tail[k] = coefficient of z^k in z^d
    tail = [-(coeffs.get(k, Poly.zero())) for k in range(d)]
    base_vars = tuple(v for v in p.vars if v != var)
    names = ["1"] if d == 1 else ["1", var] + [_power_name(var, k, base_vars) for k in range(2, d)]
    if basis_names is not None:
        if len(basis_names) != d:
            raise InputError(
                f"need {d} basis names for {var}^0..{var}^{d - 1}, got {len(basis_names)}"
            )
        names = basis_names
    graded = p.homogeneous_degree() == d
    algebra = FreeAlgebra(
        names,
        _power_table(tail),
        base_vars=base_vars,
        degrees=list(range(d)) if graded else None,
        dual_names=dual_names,
        tvar=tvar,
    )
    # the generic table is built from pruned coefficients, so a variable that
    # only fat coefficients bring (z2 in x^6 + y^6 + z2^6) stays out of its keys
    taken = {*algebra.base_vars, *algebra.dual_names, tvar}
    bindings = {}
    generic_tail = []
    for k, a in enumerate(tail):
        if len(a.terms) > 1:
            w = _power_name("W", k, taken)
            taken.add(w)
            bindings[w] = a
            a = Poly.variable(w)
        generic_tail.append(a.pruned())
    if bindings:
        generic = FreeAlgebra(
            names, _power_table(generic_tail), dual_names=algebra.dual_names, tvar=tvar,
            validate=False,
        )
        algebra.generic = (generic, bindings)
    return algebra


def _power_table(tail) -> list:
    """The table of R[z]/(z^d - sum tail[k] z^k): gamma_i gamma_j = z^(i+j) reduced."""
    d = len(tail)
    pows = [[Poly.const(1) if k == i else Poly.zero() for k in range(d)] for i in range(d)]
    for _ in range(d, 2 * d - 1):
        prev = pows[-1]
        shifted = [Poly.zero()] + prev[:-1]
        top = prev[d - 1]
        if top:
            shifted = [shifted[k] + top * tail[k] for k in range(d)]
        pows.append(shifted)
    return [[pows[i + j] for j in range(d)] for i in range(d)]


def _power_name(var: str, k: int, taken) -> str:
    name = f"{var}{k}"
    while name in taken:
        name += "_"
    return name


def regular_representation(algebra: FreeAlgebra) -> PolyMatrix:
    return algebra.regular_representation()


def char_poly(algebra: FreeAlgebra) -> CharPoly:
    """Characteristic polynomial of the generic element, monic in t.

    The t^(d-j) coefficient is (-1)^j tr(wedge^j rho) and in particular has
    total degree j in the dual variables; the determinant route computes all
    of them at once.

    When ``unit_index`` is some u, the unit gamma_u has L_u = I, so by the
    unit shift of the module docstring chi_a(t) = chi_a'(t - G_u) with
    a' = a - G_u*gamma_u: Berkowitz runs on rho(a'), which lacks G_u, and
    the column is read out in powers of t - G_u.  When it is None, Berkowitz
    runs on rho(a) itself.

    When ``algebra.generic`` holds a generic algebra and its bindings
    W_k -> a_k (``monogenic_algebra`` with a tail coefficient of two or more
    terms), the polynomial is taken over the generic algebra, unit shift
    included, and the bindings are substituted once, by the base change of
    the module docstring.  Split algebras, explicit tables and tails of
    one-term coefficients have no generic algebra.
    """
    if algebra.generic is None:
        poly = _berkowitz_poly(algebra)
    else:
        generic, bindings = algebra.generic
        poly = _berkowitz_poly(generic).substitute(bindings)
    return CharPoly(algebra.rank, poly, algebra.tvar, algebra.dual_names)


def _berkowitz_poly(algebra: FreeAlgebra) -> Poly:
    """det(t*I - rho(a)) for the generic element a, with the unit shift when it applies."""
    duals = [Poly.variable(g) for g in algebra.dual_names]
    t = Poly.variable(algebra.tvar)
    u = algebra.unit_index
    if u is not None:
        t = t - duals[u]
        duals[u] = Poly.zero()
    return _read_out(_berkowitz_column(algebra.element_rep(duals)), t)


def restrict_char_poly(chi: CharPoly, bindings) -> CharPoly:
    """Substitute base-ring variables only (duals and t are off limits)."""
    return chi.substitute_base(bindings)


def cayley_hamilton_by_laws(algebra: FreeAlgebra, laws, chi: CharPoly, gamma_values) -> bool:
    """True only when chi(C(a)) = 0 follows from the unit column.

    laws is ``algebra.action_laws(matrices)`` for C(gamma_i) = matrices[i],
    and a = sum gamma_values[i] * gamma_i.  By the lemma of the module
    docstring, (True, None) and a zero column chi(rho(a)) 1, found by Horner
    from the unit's coordinates, prove chi(C(a)) = 0.  False means only that
    the lemma does not decide; the caller then evaluates chi(C(a)) in full.
    """
    if laws != (True, None):
        return False
    coeffs = chi.bound_coefficients(gamma_values)
    rho = algebra.element_rep(gamma_values)
    unit = PolyMatrix.from_rows([[c] for c in algebra.unit])
    acc = unit  # the leading coefficient is 1
    for j in range(chi.rank - 1, -1, -1):
        acc = rho * acc
        cj = coeffs.get(j)
        if cj:
            acc = acc + unit.scaled(cj)
    return acc.is_zero()


def cayley_hamilton_check(algebra: FreeAlgebra, chi: CharPoly | None = None) -> Report:
    """chi(rho(generic), Gamma) == 0 as a matrix of polynomial identities.

    By default chi is recomputed from the algebra.  Passing a chi computed
    elsewhere turns this into a consistency check between the two: feeding it
    the characteristic polynomial of a different (or corrupted) multiplication
    table makes the identity fail.

    The regular representation is an action exactly when the table is unital
    and associative, which ``validate=False`` algebras need not be, so its
    laws are checked here.  When they hold, the identity is decided on the
    unit column (``cayley_hamilton_by_laws``); otherwise, and whenever that
    column is nonzero, chi(rho) is formed in full and a failure names its
    first nonzero entry.
    """
    report = Report(title=f"cayley-hamilton: rank {algebra.rank}")
    if chi is None:
        chi = char_poly(algebra)
    elif chi.rank != algebra.rank or chi.dual_names != algebra.dual_names:
        raise InputError("characteristic polynomial does not match the algebra's shape")
    duals = [Poly.variable(g) for g in algebra.dual_names]
    if cayley_hamilton_by_laws(algebra, algebra.action_laws(algebra.left_mult), chi, duals):
        report.add("cayley_hamilton", True)
    else:
        value = chi.evaluate_matrix(algebra.regular_representation(), duals)
        check_vanishes(report, "cayley_hamilton", value)
    report.meta["rank"] = algebra.rank
    return report
