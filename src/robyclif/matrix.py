"""Matrices over sparse polynomials.

A ``PolyMatrix`` stores its entries as a flat row-major list of term maps,
all aligned to one variable context, so products run straight through the
kernel term-map routines without per-entry alignment.  Coefficients are
``int`` when integral (``identity`` stores the int 1), ``Fraction`` when
rational and ``CycScalar`` only when not in Q.  The matrices this
package builds are mostly empty (assembly actions are 1-5% nonzero), so
every pass -- product, Kronecker product, sum, scaling, substitution,
realignment -- spends work only on nonzero entries, plus the cost of
writing the output list.  A linear combination sum c_i * M_i is one
``combination`` call, which reads each matrix once.  Entries are read-only:
matrices share term maps with each other (``submatrix``, ``transpose``,
sums with an empty side) and an empty slot may be one shared empty map.
"""

from __future__ import annotations

from . import kernel
from .errors import InputError
from .poly import Poly, Scalar, _align_terms, _coerce_coeff, as_poly

__all__ = ["PolyMatrix", "matpoly_pow", "is_scalar_multiple_of_identity", "check_vanishes"]


class PolyMatrix:
    __slots__ = ("nrows", "ncols", "vars", "data")

    def __init__(self, nrows: int, ncols: int, vars: tuple, data: list, *, _canonical=False):
        # data: flat row-major list of term maps aligned to vars
        if _canonical:
            self.nrows, self.ncols, self.vars, self.data = nrows, ncols, vars, data
            return
        if nrows < 0 or ncols < 0 or len(data) != nrows * ncols:
            raise InputError("matrix shape does not match entry count")
        self.nrows, self.ncols = nrows, ncols
        self.vars = tuple(vars)
        self.data = data

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        """Build from nested lists of Poly / scalar / polynomial strings."""
        grid = []
        for row in rows:
            grid.append([as_poly(x) for x in row])
        nrows = len(grid)
        ncols = len(grid[0]) if grid else 0
        if any(len(r) != ncols for r in grid):
            raise InputError("ragged rows in matrix literal")
        vs = set()
        for row in grid:
            for p in row:
                vs.update(p.vars)
        vars = tuple(sorted(vs))
        data = [p.aligned(vars) for row in grid for p in row]
        return cls(nrows, ncols, vars, data, _canonical=True)

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        data = [{}] * (n * n)
        for i in range(n):
            data[i * n + i] = {(): 1}
        return cls(n, n, (), data, _canonical=True)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(nrows, ncols, (), [{}] * (nrows * ncols), _canonical=True)

    @classmethod
    def diagonal(cls, entries) -> "PolyMatrix":
        polys = [as_poly(x) for x in entries]
        n = len(polys)
        vs = tuple(sorted({v for p in polys for v in p.vars}))
        data = [{}] * (n * n)
        for i, p in enumerate(polys):
            data[i * n + i] = p.aligned(vs)
        return cls(n, n, vs, data, _canonical=True)

    @classmethod
    def combination(cls, pairs, n: int) -> "PolyMatrix":
        """Sum of c * M over (coefficient, n x n matrix) pairs.

        Coefficients are Polys, polynomial strings or scalars; zero ones are
        skipped.  Each slot accumulates in pair order through ``mul_terms``
        and ``add_terms``, so the term maps, their key order and ``vars``
        equal those of the running sum ``zeros(n, n) + M_1.scaled(c_1) + ...``.
        """
        terms = []
        for c, m in pairs:
            if m.shape != (n, n):
                raise InputError(f"shape mismatch: {m.shape} in a combination of {n}x{n} matrices")
            p = as_poly(c)
            if p:
                terms.append((p, m))
        vs = tuple(sorted({v for p, m in terms for v in p.vars + m.vars}))
        data = [{}] * (n * n)
        for p, m in terms:
            pt = p.aligned(vs)
            for k, t in enumerate(m.aligned_data(vs)):
                if t:
                    t = kernel.mul_terms(t, pt)
                    data[k] = kernel.add_terms(data[k], t) if data[k] else t
        return cls(n, n, vs, data, _canonical=True)

    # -- context -----------------------------------------------------------------

    def aligned_data(self, vars: tuple) -> list:
        if vars == self.vars:
            return self.data
        old = self.vars
        return [_align_terms(t, old, vars) if t else t for t in self.data]

    def _common(self, other: "PolyMatrix"):
        if self.vars == other.vars:
            return self.vars, self.data, other.data
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        return vs, self.aligned_data(vs), other.aligned_data(vs)

    # -- access --------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Poly:
        return Poly(self.vars, self.data[i * self.ncols + j], _canonical=True).pruned()

    def rows(self):
        for i in range(self.nrows):
            yield [self.entry(i, j) for j in range(self.ncols)]

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        data = [
            self.data[i * self.ncols + j] for i in row_idx for j in col_idx
        ]
        return PolyMatrix(len(row_idx), len(col_idx), self.vars, data, _canonical=True)

    def transpose(self) -> "PolyMatrix":
        data = [
            self.data[i * self.ncols + j]
            for j in range(self.ncols)
            for i in range(self.nrows)
        ]
        return PolyMatrix(self.ncols, self.nrows, self.vars, data, _canonical=True)

    # -- arithmetic -------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} + {other.shape}")
        vs, a, b = self._common(other)
        data = [kernel.add_terms(x, y) if x and y else x or y for x, y in zip(a, b)]
        return PolyMatrix(self.nrows, self.ncols, vs, data, _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} - {other.shape}")
        vs, a, b = self._common(other)
        data = [
            (kernel.sub_terms(x, y) if x else kernel.neg_terms(y)) if y else x
            for x, y in zip(a, b)
        ]
        return PolyMatrix(self.nrows, self.ncols, vs, data, _canonical=True)

    def __neg__(self):
        data = [kernel.neg_terms(t) if t else t for t in self.data]
        return PolyMatrix(self.nrows, self.ncols, self.vars, data, _canonical=True)

    def scaled(self, c) -> "PolyMatrix":
        """Multiply every entry by a Poly or scalar."""
        if isinstance(c, Scalar):
            c = _coerce_coeff(c)
            data = [kernel.scale_terms(t, c) if t else t for t in self.data]
            return PolyMatrix(self.nrows, self.ncols, self.vars, data, _canonical=True)
        p = as_poly(c)
        vs = tuple(sorted(set(self.vars) | set(p.vars)))
        pt = p.aligned(vs)
        data = [kernel.mul_terms(t, pt) if t else t for t in self.aligned_data(vs)]
        return PolyMatrix(self.nrows, self.ncols, vs, data, _canonical=True)

    def __mul__(self, other):
        if isinstance(other, (Poly,) + Scalar):
            return self.scaled(other)
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise InputError(f"shape mismatch: {self.shape} @ {other.shape}")
        vs, a, b = self._common(other)
        data = kernel.matmul_terms(a, b, self.nrows, self.ncols, other.ncols)
        return PolyMatrix(self.nrows, other.ncols, vs, data, _canonical=True)

    def __rmul__(self, other):
        if isinstance(other, (Poly,) + Scalar):
            return self.scaled(other)
        return NotImplemented

    def pow(self, n: int) -> "PolyMatrix":
        """Binary exponentiation; n >= 0, square matrix."""
        if self.nrows != self.ncols:
            raise InputError("only square matrices can be raised to a power")
        if not isinstance(n, int) or n < 0:
            raise InputError("matrix powers must be nonnegative integers")
        result = PolyMatrix.identity(self.nrows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; left factor indexes the outer blocks."""
        vs, a, b = self._common(other)
        p, q = other.nrows, other.ncols
        n, m = self.nrows * p, self.ncols * q
        right = [(k * m + l, t) for k in range(p) for l in range(q) if (t := b[k * q + l])]
        data = [{}] * (n * m)
        for i in range(self.nrows):
            for j in range(self.ncols):
                block = a[i * self.ncols + j]
                if block:
                    corner = i * p * m + j * q
                    for offset, t in right:
                        data[corner + offset] = kernel.mul_terms(block, t)
        return PolyMatrix(n, m, vs, data, _canonical=True)

    def substitute(self, bindings) -> "PolyMatrix":
        polys = [
            Poly(self.vars, t, _canonical=True).pruned().substitute(bindings) if t else None
            for t in self.data
        ]
        vs = tuple(sorted({v for p in polys if p is not None for v in p.vars}))
        empty: dict = {}
        data = [p.aligned(vs) if p is not None else empty for p in polys]
        return PolyMatrix(self.nrows, self.ncols, vs, data, _canonical=True)

    # -- queries --------------------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not t for t in self.data)

    def first_nonzero(self):
        """(i, j, Poly) of the first nonzero entry in row-major order, or None."""
        for i in range(self.nrows):
            for j in range(self.ncols):
                t = self.data[i * self.ncols + j]
                if t:
                    return i, j, Poly(self.vars, t, _canonical=True).pruned()
        return None

    def scalar_identity_multiple(self):
        """The Poly c with self == c * I, or None if there is no such c."""
        if self.nrows != self.ncols or self.nrows == 0:
            return None
        diag = self.data[0]
        for i in range(self.nrows):
            for j in range(self.ncols):
                t = self.data[i * self.ncols + j]
                if i == j:
                    if t != diag:
                        return None
                elif t:
                    return None
        return Poly(self.vars, diag, _canonical=True).pruned()

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        _, a, b = self._common(other)
        return a == b

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        rows = []
        for i in range(self.nrows):
            rows.append("[" + ", ".join(str(self.entry(i, j)) for j in range(self.ncols)) + "]")
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self.nrows}x{self.ncols})"


def check_vanishes(report, name: str, m: PolyMatrix) -> None:
    """Add the check ``name`` to report: m is zero, else its first nonzero entry."""
    offender = m.first_nonzero()
    report.add(
        name,
        offender is None,
        detail="" if offender is None else f"entry ({offender[0]},{offender[1]}): {offender[2]}",
    )


def matpoly_pow(m: PolyMatrix, n: int) -> PolyMatrix:
    """Contract-named wrapper for :meth:`PolyMatrix.pow`."""
    return m.pow(n)


def is_scalar_multiple_of_identity(m: PolyMatrix):
    """The scalar (as Poly) with m == c*I, or None."""
    return m.scalar_identity_multiple()
