"""Matrices over sparse polynomials.

A ``PolyMatrix`` stores its entries as a flat row-major list of term maps in
one context, so products run straight through the kernel's packed loops
without per-entry alignment.  Coefficients are ``int`` when integral
(``identity`` stores the int 1), ``Fraction`` when rational and
``CycScalar`` only when not in Q.  This module is the only one that knows
the layout and the keys: other modules read entries through ``entry``,
``rows``, ``nonzeros`` and ``occurring_vars``.

Persistent packed keys.  A matrix's context is ``vars`` (its variable
names), ``width`` (bits per exponent field, a multiple of 8, 8 for a new
matrix) and ``top`` (an upper bound on every exponent, below 2**width).
Each key is one int holding exponent i of ``vars`` in bits
[i*width, (i+1)*width), so a monomial product is one int add and the keys
stay packed from one operation to the next.

- The width rule.  Every result gets a bound from its operands' bounds: the
  sum for products, Kronecker products, combinations and scaling by a
  polynomial, the larger one for sums.  When that bound would reach
  2**width, the operands are first re-encoded at the least wider multiple
  of 8 bits that holds it, so a field never carries and no exponent is
  refused.
- Contexts meet through ``aligned_data``, which re-encodes keys into a
  larger ``vars`` or a wider field with one gather of bytes per key, and
  returns the list itself when the keys would not change.
- Keys are decoded only where a polynomial leaves the matrix: ``entry``,
  ``rows``, ``first_nonzero``, ``scalar_identity_multiple`` and ``__str__``
  (and ``substitute``, for the terms a nonzero binding rewrites).

The matrices this package builds are mostly empty (assembly actions are
1-5% nonzero).  So every pass -- product, Kronecker product, sum, scaling,
substitution, realignment, transpose and the zero and identity tests --
finds the nonzero slots in one C-level pass (``compress`` over the slot
indices, or a list copy or slice) and runs Python code only per nonzero,
in row-major order.  What remains O(rows * cols) is allocating and copying
the flat list.  A linear combination sum c_i * M_i is one ``combination``
call, which reads each matrix once; self + c * I is one ``plus_scalar``
call, which runs Python code on the n diagonal slots only.  Entries are
read-only: matrices share term maps with each other (``submatrix``,
``transpose``, sums with an empty side, the diagonal of ``plus_scalar``) and
an empty slot may be one shared empty map.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress
from operator import or_

from . import kernel
from .errors import InputError
from .kernel import map_nonempty, nonempty, update_nonempty
from .poly import Poly, Scalar, _coerce_coeff, as_poly

__all__ = ["PolyMatrix", "matpoly_pow", "is_scalar_multiple_of_identity", "check_vanishes"]

# Bits per exponent field of a matrix built from polynomials whose exponents
# fit in it; wider fields come only from the width rule.
_WIDTH = 8


def _fit(top: int, width: int) -> int:
    """The least multiple of 8 bits, at least width, whose fields hold top."""
    while top >> width:
        width += 8
    return width


def _top(p: Poly) -> int:
    """The largest exponent of p."""
    return max(map(max, p.terms)) if p.vars and p.terms else 0


def _packer(vars: tuple, width: int):
    """A function from a Poly over a subset of vars to its packed term map."""
    recoders: dict = {}

    def pack(p: Poly) -> dict:
        if not p.terms:
            return p.terms
        if p.vars not in recoders:
            fields = [vars.index(v) for v in p.vars]
            recoders[p.vars] = kernel.repacker(fields, width, width)
        recode = recoders[p.vars]
        terms = kernel.pack(p.terms, width)
        return terms if recode is None else recode(terms)

    return pack


def _context_of(polys: list):
    """(vars, width, top, packer) of the least context holding the polys."""
    vars = tuple(sorted({v for p in polys for v in p.vars}))
    top = max(map(_top, polys), default=0)
    width = _fit(top, _WIDTH)
    return vars, width, top, _packer(vars, width)


def _make(nrows: int, ncols: int, vars: tuple, width: int, top: int, data: list) -> "PolyMatrix":
    m = object.__new__(PolyMatrix)
    m.nrows, m.ncols, m.vars, m.width, m.top, m.data = nrows, ncols, vars, width, top, data
    return m


class PolyMatrix:
    __slots__ = ("nrows", "ncols", "vars", "width", "top", "data")

    def __init__(self, nrows: int, ncols: int, vars, data: list):
        """From a flat row-major list of term maps keyed by exponent tuples over vars."""
        vars = tuple(vars)
        if nrows < 0 or ncols < 0 or len(data) != nrows * ncols:
            raise InputError("matrix shape does not match entry count")
        top = 0
        for terms in data:
            for exp in terms:
                if len(exp) != len(vars) or not all(isinstance(e, int) and e >= 0 for e in exp):
                    raise InputError(f"exponent tuple {exp!r} does not fit the variables {vars}")
                if exp:
                    top = max(top, *exp)
        width = _fit(top, _WIDTH)
        self.nrows, self.ncols, self.vars, self.width, self.top = nrows, ncols, vars, width, top
        self.data = [kernel.pack(t, width) if t else t for t in data]

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
        polys = [p for row in grid for p in row]
        vars, width, top, pack = _context_of(polys)
        return _make(nrows, ncols, vars, width, top, [pack(p) for p in polys])

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        data = [{}] * (n * n)
        for i in range(n):
            data[i * n + i] = {0: 1}
        return _make(n, n, (), _WIDTH, 0, data)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "PolyMatrix":
        return _make(nrows, ncols, (), _WIDTH, 0, [{}] * (nrows * ncols))

    @classmethod
    def diagonal(cls, entries) -> "PolyMatrix":
        polys = [as_poly(x) for x in entries]
        n = len(polys)
        vars, width, top, pack = _context_of(polys)
        data = [{}] * (n * n)
        for i, p in enumerate(polys):
            data[i * n + i] = pack(p)
        return _make(n, n, vars, width, top, data)

    @classmethod
    def combination(cls, pairs, n: int) -> "PolyMatrix":
        """Sum of c * M over (coefficient, n x n matrix) pairs.

        Coefficients are Polys, polynomial strings or scalars; zero ones are
        skipped.  Each slot accumulates in pair order through ``mul_packed``
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
        top = max((m.top + _top(p) for p, m in terms), default=0)
        width = _fit(top, max((m.width for _, m in terms), default=_WIDTH))
        pack = _packer(vs, width)
        data = [{}] * (n * n)
        for p, m in terms:
            pt = pack(p)
            src = m.aligned_data(vs, width=width)
            for k in nonempty(src):
                t = kernel.mul_packed(src[k], pt)
                data[k] = kernel.add_terms(data[k], t) if data[k] else t
        return _make(n, n, vs, width, top, data)

    # -- context -----------------------------------------------------------------

    def aligned_data(self, vars: tuple, *, width: int) -> list:
        """The term maps with keys over vars (a superset) at a field width.

        The width must hold ``top``.  Returns ``data`` itself when the keys
        do not change, as when vars only adds variables after the last one.
        """
        if vars == self.vars and width == self.width:
            return self.data
        recode = kernel.repacker([vars.index(v) for v in self.vars], self.width, width)
        if recode is None:
            return self.data
        return map_nonempty(self.data, recode)

    def _common(self, other: "PolyMatrix", top: int):
        """(vars, width, self's data, other's data) in one context holding top."""
        if self.vars == other.vars:
            vs = self.vars
        else:
            vs = tuple(sorted(set(self.vars) | set(other.vars)))
        width = _fit(top, max(self.width, other.width))
        return vs, width, self.aligned_data(vs, width=width), other.aligned_data(vs, width=width)

    def _writable(self, data: list) -> list:
        """data, or a copy if it is self's own list.

        ``aligned_data`` returns either ``self.data`` or a fresh list; an
        output may be written into the fresh one, so it is copied only once.
        """
        return list(data) if data is self.data else data

    def _poly(self, terms: dict) -> Poly:
        """A term map decoded to a Poly over the variables that occur in it."""
        if not terms:
            return Poly.zero()
        width = self.width
        mask = (1 << width) - 1
        occ = reduce(or_, terms)
        used = [i for i in range(len(self.vars)) if occ >> (i * width) & mask]
        vars = self.vars if len(used) == len(self.vars) else tuple(self.vars[i] for i in used)
        return Poly(vars, kernel.unpack(terms, used, width), _canonical=True)

    # -- access --------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Poly:
        return self._poly(self.data[i * self.ncols + j])

    def rows(self):
        for i in range(self.nrows):
            yield [self.entry(i, j) for j in range(self.ncols)]

    def nonzeros(self):
        """(i, j, terms) for each nonzero entry, in row-major order.

        ``terms`` is the entry's term map in the matrix's own packed keys:
        it is read-only, and only its size means anything outside this
        module.  ``entry`` gives the polynomial.
        """
        data, ncols = self.data, self.ncols
        for k in nonempty(data):
            i, j = divmod(k, ncols)
            yield i, j, data[k]

    def occurring_vars(self) -> tuple:
        """The variables with a nonzero exponent in some term, in ``vars`` order."""
        occ = reduce(or_, chain.from_iterable(compress(self.data, self.data)), 0)
        mask = (1 << self.width) - 1
        return tuple(v for i, v in enumerate(self.vars) if occ >> (i * self.width) & mask)

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        data: list = []
        for i in row_idx:
            data += map(self.data[i * self.ncols : (i + 1) * self.ncols].__getitem__, col_idx)
        return _make(len(row_idx), len(col_idx), self.vars, self.width, self.top, data)

    def transpose(self) -> "PolyMatrix":
        data: list = []
        for j in range(self.ncols):
            data += self.data[j :: self.ncols]
        return _make(self.ncols, self.nrows, self.vars, self.width, self.top, data)

    # -- arithmetic -------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} + {other.shape}")
        top = max(self.top, other.top)
        vs, width, a, b = self._common(other, top)
        data = self._writable(a)
        for k in nonempty(b):
            x = data[k]
            data[k] = kernel.add_terms(x, b[k]) if x else b[k]
        return _make(self.nrows, self.ncols, vs, width, top, data)

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} - {other.shape}")
        top = max(self.top, other.top)
        vs, width, a, b = self._common(other, top)
        data = self._writable(a)
        for k in nonempty(b):
            x = data[k]
            data[k] = kernel.sub_terms(x, b[k]) if x else kernel.neg_terms(b[k])
        return _make(self.nrows, self.ncols, vs, width, top, data)

    def __neg__(self):
        data = map_nonempty(self.data, kernel.neg_terms)
        return _make(self.nrows, self.ncols, self.vars, self.width, self.top, data)

    def scaled(self, c) -> "PolyMatrix":
        """Multiply every entry by a Poly or scalar."""
        if isinstance(c, Scalar):
            c = _coerce_coeff(c)
            data = map_nonempty(self.data, lambda t: kernel.scale_terms(t, c))
            return _make(self.nrows, self.ncols, self.vars, self.width, self.top, data)
        p = as_poly(c)
        vs = tuple(sorted(set(self.vars) | set(p.vars)))
        top = self.top + _top(p)
        width = _fit(top, self.width)
        pt = _packer(vs, width)(p)
        data = self._writable(self.aligned_data(vs, width=width))
        update_nonempty(data, lambda t: kernel.mul_packed(t, pt))
        return _make(self.nrows, self.ncols, vs, width, top, data)

    def plus_scalar(self, c) -> "PolyMatrix":
        """self + c * I for a square matrix and a Poly or scalar c.

        One pass over the n diagonal slots: each gains c's terms through
        ``add_terms``, or holds them (shared) where it was empty.  The term
        maps, their key order and ``vars`` equal those of
        ``self + identity(n).scaled(c)``, which builds and scales n^2 slots.
        """
        n = self.nrows
        if n != self.ncols:
            raise InputError(f"shape mismatch: {self.shape} + scalar * identity")
        p = as_poly(c)
        vs = tuple(sorted(set(self.vars) | set(p.vars)))
        top = max(self.top, _top(p))
        width = _fit(top, self.width)
        pt = _packer(vs, width)(p)
        data = self._writable(self.aligned_data(vs, width=width))
        if pt:
            for k in range(0, n * n, n + 1):
                x = data[k]
                data[k] = kernel.add_terms(x, pt) if x else pt
        return _make(n, n, vs, width, top, data)

    def __mul__(self, other):
        if isinstance(other, (Poly,) + Scalar):
            return self.scaled(other)
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise InputError(f"shape mismatch: {self.shape} @ {other.shape}")
        top = self.top + other.top
        vs, width, a, b = self._common(other, top)
        data = kernel.matmul_terms(a, b, self.nrows, self.ncols, other.ncols)
        return _make(self.nrows, other.ncols, vs, width, top, data)

    def __rmul__(self, other):
        if isinstance(other, (Poly,) + Scalar):
            return self.scaled(other)
        return NotImplemented

    def pow(self, n: int) -> "PolyMatrix":
        """Binary exponentiation; n >= 0, square matrix.

        The chain starts from the first factor and squares only while bits
        remain, so it does (bit_length - 1) + (popcount - 1) products.
        """
        if self.nrows != self.ncols:
            raise InputError("only square matrices can be raised to a power")
        if not isinstance(n, int) or n < 0:
            raise InputError("matrix powers must be nonnegative integers")
        if not n:
            return PolyMatrix.identity(self.nrows)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; left factor indexes the outer blocks."""
        top = self.top + other.top
        vs, width, a, b = self._common(other, top)
        p, q = other.nrows, other.ncols
        n, m = self.nrows * p, self.ncols * q
        right = [(k // q * m + k % q, b[k]) for k in nonempty(b)]
        data = [{}] * (n * m)
        mul = kernel.mul_packed
        for k in nonempty(a):
            i, j = divmod(k, self.ncols)
            block = a[k]
            corner = i * p * m + j * q
            for offset, t in right:
                data[corner + offset] = mul(block, t)
        return _make(n, m, vs, width, top, data)

    def substitute(self, bindings) -> "PolyMatrix":
        """Entrywise simultaneous substitution var -> value.

        Values are anything ``as_poly`` accepts.  Entry by entry, the result
        and its ``vars`` equal those of substituting each entry's ``Poly``.
        On packed keys, a term with a nonzero field under a variable bound
        to zero is dropped by one mask test, and a term with no other bound
        variable keeps its key, re-encoded; only the remaining terms are
        decoded and substituted as a ``Poly``.
        """
        width, names = self.width, self.vars
        present = self.occurring_vars()
        vals = {v: as_poly(b) for v, b in bindings.items() if v in present}
        # each entry's Poly substitution keeps its unbound variables and gains
        # those of the values it substitutes; vs is their union over entries
        kept = {v for v in present if v not in vals}
        vs = tuple(sorted(kept.union(*(p.vars for p in vals.values()))))
        fields = [((1 << width) - 1) << (i * width) for i in range(len(names))]
        zero_mask = sum(f for f, v in zip(fields, names) if v in vals and not vals[v])
        bound_mask = sum(f for f, v in zip(fields, names) if vals.get(v))
        nonzero = {v: p for v, p in vals.items() if p}
        results = []  # (slot, terms over self's keys with no bound variable, or a Poly)
        top = 0
        for k in nonempty(self.data):
            terms = self.data[k]
            occ = reduce(or_, terms)
            if occ & zero_mask:
                terms = {e: c for e, c in terms.items() if not e & zero_mask}
                if not terms:
                    continue
                occ = reduce(or_, terms)
            if occ & bound_mask:
                p = self._poly(terms).substitute(nonzero)
                top = max(top, _top(p))
                results.append((k, p))
            else:
                top = max(top, self.top)
                results.append((k, terms))
        width = _fit(top, width)
        pack = _packer(vs, width)
        recode = kernel.repacker(
            [None if v in vals or v not in vs else vs.index(v) for v in names], self.width, width
        )
        data = [{}] * len(self.data)
        for k, r in results:
            if isinstance(r, Poly):
                data[k] = pack(r)
            else:
                data[k] = r if recode is None else recode(r)
        return _make(self.nrows, self.ncols, vs, width, top, data)

    # -- queries --------------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.data)

    def first_nonzero(self):
        """(i, j, Poly) of the first nonzero entry in row-major order, or None."""
        for i, j, t in self.nonzeros():
            return i, j, self._poly(t)
        return None

    def scalar_identity_multiple(self):
        """The Poly c with self == c * I, or None if there is no such c."""
        n = self.nrows
        if n != self.ncols or n == 0:
            return None
        diag = self.data[0]
        if self.data[:: n + 1].count(diag) != n:
            return None
        if any(k % (n + 1) for k in nonempty(self.data)):
            return None
        return self._poly(diag)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        _, _, a, b = self._common(other, max(self.top, other.top))
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
