"""Built-in seed modules for cover pipelines.

A seed is a graded Roby module with a T-slot whose target is the
characteristic polynomial of a cover algebra R[z]/(z^d - q).  Split covers
are already handled by ``split_roby``; this module adds the matrix-root
families: any square Z with Z^d = q*I spawns a (d*w)-dimensional seed, with
the rank-2 matrix factorizations of a double cover as the smallest case.
"""

from __future__ import annotations

from .errors import InputError
from .freealg import FreeAlgebra, _check_rank, monogenic_algebra
from .matrix import PolyMatrix
from .poly import Poly, as_poly
from .roby import GradedRobyModule
from .scalars import make_root

__all__ = [
    "companion_matrix",
    "cyclic_cover_seed",
    "mf_seed",
    "perturbed_split_algebra",
]


def companion_matrix(p, var: str) -> PolyMatrix:
    """Multiplication by ``var`` on R[var]/(p), for p monic in ``var``.

    This is the canonical matrix root of p: its image satisfies p(Z) = 0,
    so for p = var^d - q it gives Z^d = q*I on d dimensions.
    """
    p = as_poly(p)
    if var not in p.vars:
        raise InputError(f"polynomial does not involve {var!r}")
    coeffs = p.coefficient_map(var)
    d = max(coeffs)
    if coeffs.get(d) != 1:
        raise InputError(f"polynomial must be monic in {var!r}")
    rows = [[Poly.zero()] * d for _ in range(d)]
    for j in range(d - 1):
        rows[j + 1][j] = Poly.const(1)
    # var * var^(d-1) = -(low-order part), spread down the last column
    for k in range(d):
        c = coeffs.get(k)
        if c is not None and c:
            rows[k][d - 1] = -c
    return PolyMatrix.from_rows(rows)


def cyclic_cover_seed(
    zmat,
    cover_degree: int,
    *,
    var: str = "z",
    basis_names=None,
    dual_names=None,
    tvar: str = "t",
) -> GradedRobyModule:
    """Seed for the cover var^d = q from a matrix root Z with Z^d = q*I.

    The module lives on d blocks of the space Z acts on.  Every action
    shifts block j to block j+1; the shift for the basis element var^k
    carries -zeta^(j*k) * Z^k (zeta a primitive d-th root), and the T-slot
    carries the identity.  A generic element therefore has block entries
    P(zeta^j Z) for the single polynomial P(w) = r - a_0 - a_1 w - ..., all
    commuting, so its d-th power is diag of the full product over j.  That
    product is invariant under Z -> zeta Z, hence a polynomial in
    Z^d = q*I, and counting eigenvalues it is exactly the characteristic
    polynomial of the cover algebra.  Dimension d*w for Z of size w.  The
    names go to ``monogenic_algebra``.
    """
    if not isinstance(zmat, PolyMatrix):
        zmat = PolyMatrix.from_rows(zmat)
    d = cover_degree
    if not isinstance(d, int) or d < 2:
        raise InputError("cover degree must be an integer >= 2")
    # the cover degree is the algebra's rank: refuse it before Z^d is built
    _check_rank(d)
    nrows, ncols = zmat.shape
    if nrows != ncols:
        raise InputError("matrix root must be square")
    if var in zmat.vars:
        raise InputError(f"matrix root may not involve the cover variable {var!r}")
    q = zmat.pow(d).scalar_identity_multiple()
    if q is None:
        raise InputError(f"matrix root does not satisfy Z^{d} = q*identity")
    relation = Poly.variable(var) ** d - q
    algebra = monogenic_algebra(
        relation, var, basis_names=basis_names, dual_names=dual_names, tvar=tvar
    )
    zeta = make_root(d)
    w = nrows
    powers = [PolyMatrix.identity(w)]
    for _ in range(d - 1):
        powers.append(powers[-1] * zmat)
    actions = [
        PolyMatrix.cyclic_shift([powers[k].scaled(-(zeta ** (j * k))) for j in range(d)])
        for k in range(d)
    ]
    grading = [j for j in range(d) for _ in range(w)]
    tslot = PolyMatrix.cyclic_shift([PolyMatrix.identity(w)] * d)
    return GradedRobyModule.over(algebra, grading, actions, tslot)


def mf_seed(
    f, g, *, var: str = "z", basis_names=None, dual_names=None, tvar: str = "t"
) -> GradedRobyModule:
    """Rank-2 matrix-factorization seed for the double cover var^2 = f*g.

    [[0, f], [g, 0]] squares to f*g * identity, so the cover construction
    applies with d = 2 and produces a 4-dimensional module.
    """
    f = as_poly(f)
    g = as_poly(g)
    if not f or not g:
        raise InputError("both factors must be nonzero")
    zmat = PolyMatrix.from_rows([[Poly.zero(), f], [g, Poly.zero()]])
    return cyclic_cover_seed(
        zmat, 2, var=var, basis_names=basis_names, dual_names=dual_names, tvar=tvar
    )


def perturbed_split_algebra(h, *, dual_names=("x1", "x2"), tvar: str = "t") -> FreeAlgebra:
    """Rank-2 algebra degenerating to the split one where h vanishes.

    e1*e2 = h*(e1+e2) and ei^2 = ei - h*(e1+e2), with unit e1+e2.  The
    characteristic polynomial picks up one correction term:

        (t - x1)(t - x2) + (x1 - x2)^2 * h

    so setting h = 0 recovers the split cover exactly.  Ungraded for h != 0;
    useful as the smallest input whose deviation from its own restriction is
    nontrivial.
    """
    h = as_poly(h)
    one = Poly.const(1)
    table = [
        [[one - h, -h], [h, h]],
        [[h, h], [-h, one - h]],
    ]
    return FreeAlgebra(
        ("e1", "e2"),
        table,
        unit=(1, 1),
        dual_names=dual_names,
        tvar=tvar,
    )
