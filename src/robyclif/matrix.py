"""Matrices over sparse polynomials.

A ``PolyMatrix`` stores its entries as a flat row-major list of term maps in
one context, so products run straight through the kernel's packed loops
without per-entry alignment.  Coefficients are ``int`` when integral
(``identity`` stores the int 1), ``Fraction`` when rational and
``CycScalar`` only when not in Q.  This module is the only one that knows
the layout, and it shares the keys with ``poly.py`` only: other modules read
entries through ``entry``, ``rows``, ``nonzeros``, ``occurring_vars`` and
``cell_texts``, which prints only the nonzero slots.

Persistent packed keys.  A matrix's context is ``vars`` (its variable
names), ``width`` (bits per exponent field, a multiple of 8, 8 for a new
matrix) and ``top`` (an upper bound on every exponent, below 2**width), and
its keys are those of ``Poly`` (see ``poly.py``): exponent i of ``vars`` in
bits [i*width, (i+1)*width) of one int, so a monomial product is one int add
and the keys stay packed from one operation to the next.

- The width rule is ``Poly``'s.  Every result gets a bound from its
  operands' bounds: the sum for products, Kronecker products, combinations
  and scaling by a polynomial, the larger one for sums.  When that bound
  would reach 2**width, the operands are first re-encoded at the least
  wider multiple of 8 bits that holds it, so a field never carries and no
  exponent is refused.
- Contexts meet in one join, ``poly._context``, and a matrix built from
  Polys is written by one cell writer, ``_from_cells``.  Keys cross through
  ``aligned_data``, which re-encodes them into a larger ``vars`` or a wider
  field with one gather of bytes per key, and returns the list itself when
  the keys would not change; a Poly's map enters likewise, or is shared.
- A polynomial leaves the matrix (``entry``, ``rows``, ``first_nonzero``,
  ``scalar_identity_multiple``, ``cell_texts``, and ``substitute`` for the
  terms a nonzero binding rewrites) as the Poly of its term map, pruned to
  the variables that occur in it: a re-encoding that drops fields, or none.
  No key is decoded here; exponent tuples are packed only by the
  constructor.

The matrices this package builds are mostly empty (assembly actions are
1-5% nonzero).  So every pass -- product, Kronecker product, sum, scaling,
substitution, realignment, transpose and the zero and identity tests --
finds the nonzero slots in one C-level pass (``compress`` over the slot
indices, or a list copy or slice) and runs Python code only per nonzero,
in row-major order.  What remains O(rows * cols) is allocating and copying
the flat list.  A linear combination sum c_i * M_i is one ``combination``
call, which reads each matrix once; a sum of D (x) M (x) I with diagonal D
is one ``kron_sum`` call, which writes each nonzero of each M on its cells
with no Kronecker product; self + c * I is one ``plus_scalar``
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
from .poly import (
    _WIDTH,
    Poly,
    Scalar,
    _coerce_coeff,
    _context,
    _fit,
    _new,
    _recoded,
    _recoder,
    as_poly,
)

__all__ = ["PolyMatrix", "matpoly_pow", "is_scalar_multiple_of_identity", "check_vanishes"]

def _make(nrows: int, ncols: int, vars: tuple, width: int, top: int, data: list) -> "PolyMatrix":
    m = object.__new__(PolyMatrix)
    m.nrows, m.ncols, m.vars, m.width, m.top, m.data = nrows, ncols, vars, width, top, data
    return m


def _from_cells(nrows: int, ncols: int, cells: list) -> "PolyMatrix":
    """The matrix with Poly p at each (slot, p) of cells, every other slot empty.

    The context holds every given Poly, zeros included, so a zero entry
    such as ``x - x`` still puts its variables in ``vars``.
    """
    top = max((p.top for _, p in cells), default=0)
    vars, width = _context([p for _, p in cells], top)
    data = [{}] * (nrows * ncols)
    for k, p in cells:
        if p:
            data[k] = p._keys_in(vars, width)
    return _make(nrows, ncols, vars, width, top, data)


def _add_run(data: list, start: int, count: int, step: int, t: dict) -> None:
    """Add the term map t into count cells from start, step apart.

    A run no earlier term touched is one slice assignment; otherwise each
    cell gains t through ``add_terms``, or holds it where it was empty.
    """
    stop = start + count * step
    if any(data[start:stop:step]):
        for k in range(start, stop, step):
            x = data[k]
            data[k] = kernel.add_terms(x, t) if x else t
    else:
        data[start:stop:step] = [t] * count


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
        grid = [[as_poly(x) for x in row] for row in rows]
        ncols = len(grid[0]) if grid else 0
        if any(len(r) != ncols for r in grid):
            raise InputError("ragged rows in matrix literal")
        return _from_cells(len(grid), ncols, [*enumerate(chain.from_iterable(grid))])

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls.diagonal([Poly.const(1)] * n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "PolyMatrix":
        return _from_cells(nrows, ncols, [])

    @classmethod
    def diagonal(cls, entries) -> "PolyMatrix":
        polys = [as_poly(x) for x in entries]
        n = len(polys)
        return _from_cells(n, n, [(i * (n + 1), p) for i, p in enumerate(polys)])

    @classmethod
    def cyclic_shift(cls, blocks) -> "PolyMatrix":
        """Block j of d at block (j + 1 mod d, j); every other block is zero.

        A block is a w x w matrix, or anything ``as_poly`` accepts when
        w = 1.  Only the blocks' nonzero slots are written, in the context
        ``from_rows`` gives the whole grid.
        """
        shapes = {b.shape if isinstance(b, PolyMatrix) else (1, 1) for b in blocks}
        w = max(shapes, default=(0, 0))[0]
        if shapes != {(w, w)}:
            raise InputError("a cyclic shift needs square blocks of one size")
        d = len(blocks)
        n = d * w
        cells = []
        for j, b in enumerate(blocks):
            corner = (j + 1) % d * w * n + j * w
            if isinstance(b, PolyMatrix):
                cells += [(corner + r * n + c, b.entry(r, c)) for r, c, _ in b.nonzeros()]
            else:
                cells.append((corner, as_poly(b)))
        return _from_cells(n, n, cells)

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
        top = max((m.top + p.top for p, m in terms), default=0)
        vs, width = _context([*chain.from_iterable(terms)], top)
        data = [{}] * (n * n)
        for p, m in terms:
            pt = p._keys_in(vs, width)
            src = m.aligned_data(vs, width=width)
            for k in nonempty(src):
                t = kernel.mul_terms(src[k], pt)
                data[k] = kernel.add_terms(data[k], t) if data[k] else t
        return _make(n, n, vs, width, top, data)

    @classmethod
    def kron_sum(cls, terms, phases, n: int) -> "PolyMatrix":
        """Sum of D ⊗ M ⊗ I_w over (classes, M) terms, each n x n.

        D is diag(phases[c] for c in classes), M is square, and w is what
        makes the side n.  One pass over M's nonzeros writes each term: a
        nonzero is scaled once per phase class that occurs, and lands on a run
        of w cells, stride n + 1, per prefix index of that class.  A cell an
        earlier term wrote gains the new terms through ``add_terms``, so the
        term maps and ``vars`` equal those of the running sum of
        ``diagonal(D).kron(M).kron(identity(w))`` over the terms.
        """
        scales = [_coerce_coeff(c) for c in phases]
        for classes, m in terms:
            size = len(classes) * m.nrows
            if m.nrows != m.ncols or not size or n % size:
                raise InputError(f"a {m.shape} matrix by {len(classes)} phases does not tile {n}")
        top = max((m.top for _, m in terms), default=0)
        vs, width = _context([m for _, m in terms], top)
        data = [{}] * (n * n)
        for classes, m in terms:
            src, d = m.aligned_data(vs, width=width), m.nrows
            w = n // (len(classes) * d)
            starts: dict = {}  # phase class -> first cell of each prefix's diagonal block
            for p, c in enumerate(classes):
                if scales[c]:
                    starts.setdefault(c, []).append(p * d * w * (n + 1))
            for k in nonempty(src):
                r, col = divmod(k, d)
                offset = r * w * n + col * w
                for c, firsts in starts.items():
                    t = src[k] if scales[c] == 1 else kernel.scale_terms(src[k], scales[c])
                    for first in firsts:
                        _add_run(data, first + offset, w, n + 1, t)
        return _make(n, n, vs, width, top, data)

    @classmethod
    def toeplitz(cls, column, ncols: int) -> "PolyMatrix":
        """The lower-triangular Toeplitz matrix with first column ``column``.

        ``column`` is a list of 1 x 1 matrices; entry (i, j) is column[i - j]
        for i >= j and zero above the diagonal.  Entries are shared, not
        copied, and no key is decoded.
        """
        top = max((c.top for c in column), default=0)
        vs, width = _context(column, top)
        col = [c.aligned_data(vs, width=width)[0] for c in column]
        data: list = []
        for i in range(len(col)):
            lower = min(i + 1, ncols)
            data += [col[i - j] for j in range(lower)] + [{}] * (ncols - lower)
        return _make(len(col), ncols, vs, width, top, data)

    # -- context -----------------------------------------------------------------

    def aligned_data(self, vars: tuple, *, width: int) -> list:
        """The term maps with keys over vars (a superset) at a field width.

        The width must hold ``top``.  Returns ``data`` itself when the keys
        do not change, as when vars only adds variables after the last one.
        """
        if vars == self.vars and width == self.width:
            return self.data
        recode = _recoder(self.vars, self.width, vars, width)
        if recode is None:
            return self.data
        return map_nonempty(self.data, recode)

    def _common(self, other: "PolyMatrix", top: int):
        """(vars, width, self's data, other's data) in one context holding top."""
        vs, width = _context((self, other), top)
        return vs, width, self.aligned_data(vs, width=width), other.aligned_data(vs, width=width)

    def _meet(self, p: Poly, top: int):
        """(vars, width, data to write into, p's terms) in one context holding top."""
        vs, width = _context((self, p), top)
        data = self.aligned_data(vs, width=width)  # self.data itself, or a fresh list
        return vs, width, list(data) if data is self.data else data, p._keys_in(vs, width)

    def _poly(self, terms: dict) -> Poly:
        """A term map as a Poly over the variables that occur in it."""
        if not terms:
            return Poly.zero()
        return _new(self.vars, self.width, self.top, terms).pruned()

    # -- access --------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Poly:
        return self._poly(self.data[i * self.ncols + j])

    def rows(self):
        for i in range(self.nrows):
            yield [self.entry(i, j) for j in range(self.ncols)]

    def cell_texts(self) -> list:
        """Rows of entry text: ``"0"`` for an empty slot, ``str(entry)`` for a nonzero.

        Only the nonzero slots become polynomials.
        """
        n, rows = self.ncols, []
        for i in range(self.nrows):
            row = self.data[i * n : (i + 1) * n]
            texts = ["0"] * n
            for j in nonempty(row):
                texts[j] = str(self._poly(row[j]))
            rows.append(texts)
        return rows

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

    def _sum(self, other, sign: str, terms_op, lone_op):
        """self + or - other: terms_op on two slots' terms, lone_op on other's alone."""
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} {sign} {other.shape}")
        top = max(self.top, other.top)
        vs, width, a, b = self._common(other, top)
        data = list(a) if a is self.data else a  # an output is written into a fresh list
        for k in nonempty(b):
            x = data[k]
            data[k] = terms_op(x, b[k]) if x else lone_op(b[k])
        return _make(self.nrows, self.ncols, vs, width, top, data)

    def __add__(self, other):
        return self._sum(other, "+", kernel.add_terms, lambda t: t)

    def __sub__(self, other):
        return self._sum(other, "-", kernel.sub_terms, kernel.neg_terms)

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
        top = self.top + p.top
        vs, width, data, pt = self._meet(p, top)
        update_nonempty(data, lambda t: kernel.mul_terms(t, pt))
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
        top = max(self.top, p.top)
        vs, width, data, pt = self._meet(p, top)
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
        """Binary exponentiation (``kernel.power``); n >= 0, square matrix."""
        if self.nrows != self.ncols:
            raise InputError("only square matrices can be raised to a power")
        if not isinstance(n, int) or n < 0:
            raise InputError("matrix powers must be nonnegative integers")
        if not n:
            return PolyMatrix.identity(self.nrows)
        return kernel.power(self, n)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; left factor indexes the outer blocks."""
        top = self.top + other.top
        vs, width, a, b = self._common(other, top)
        p, q = other.nrows, other.ncols
        n, m = self.nrows * p, self.ncols * q
        right = [(k // q * m + k % q, b[k]) for k in nonempty(b)]
        data = [{}] * (n * m)
        mul = kernel.mul_terms
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
        # those of the values it substitutes; vs is their union over entries,
        # where a zero Poly over the kept variables meets the values
        kept = _new(tuple(v for v in present if v not in vals), width, 0, {})
        vs, _ = _context([kept, *vals.values()], 0)
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
                top = max(top, p.top)
                results.append((k, p))
            else:
                top = max(top, self.top)
                results.append((k, terms))
        width = _fit(top, width)
        data = [{}] * len(self.data)
        for k, r in results:
            if isinstance(r, Poly):
                data[k] = r._keys_in(vs, width)
            else:
                data[k] = _recoded(r, names, self.width, vs, width)
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
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in self.cell_texts()) + "]"

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
