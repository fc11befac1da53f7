"""Mutation check: each hand-written fault in the kernel, the context join
``poly._context``, the one substitution routine ``poly._substituted`` (its
zero-binding mask, its groups and its whole-map shortcut), the matrix module,
Berkowitz's characteristic polynomial, its unit shift and its base change
over a cover's generic tail (``freealg.monogenic_algebra``), the two-query
shape check of ``CharPoly``, the Cayley-Hamilton check on the unit column
(``freealg.cayley_hamilton_by_laws``), the cyclotomic scalars and their
product cache, the matrix printer ``PolyMatrix.cell_texts``, the polynomial
parser and its one-term term path (``poly._Parser``: the exponent cap on a
name's power, the names under a ``^0``, a product's width), the matrix reader
``specfile._matrix_rows`` (cells that cancel to zero, and reading every row
before the row lengths), the grade-cycle power identity of ``roby.py``, the
char-poly module constructor ``GradedRobyModule.over``, the phases of the
one-pass twisted tensor ``roby.twisted_tensor_all``, the sum its cell writer
``PolyMatrix.kron_sum`` makes where two families share a cell, the
xi-binomial lemma that decides a twisted tensor's Roby identity from its
recorded factors (``roby._tensor_lemma``), its condition on the factors'
bindings (``roby._binds_alike``) and its certificate
``PolyMatrix.is_twisted_sum``, a
filtration's graded pieces and flag-leak scan (``roby.Filtration.quotients``,
``roby.verify_filtered_pseudo``), the seed-block certificate
``PolyMatrix.is_filtered_kron`` (its count of same-level nonzeros, its
rho_r == rho_c test and its periodic-labels test) and the quotients' laws
decided on the seed only when it holds, the characteristic morphism read off
a monomial T-slot by relabelling (``roby._relabelling``'s cycle walk and
inverse scalars, ``PolyMatrix.relabelled`` and ``monomial_scalars``), the
unit law decided without a built identity (``freealg._is_identity`` and
``PolyMatrix.scalar_identity_multiple``'s count of nonzeros), the pipeline's comparison of its
quotients with the seed restricted to the line (``pipeline.run_pipeline``),
the splitting-type scan of ``linegeom.py`` or the CLI's one document
renderer must make the fast test suite fail.

Usage, from the root of a checkout:

    python3 tests/mutation_check.py            # every mutant
    python3 tests/mutation_check.py --list     # names only
    python3 tests/mutation_check.py NAME ...   # the named mutants

For each mutant the script copies the checkout (without .git and caches) into
a temporary directory, applies one source edit there, and runs
``pytest -x -q -m "not slow"`` on the copy.  The unmutated copy runs first and
must pass.  A mutant is caught when the suite fails.  The script exits 1 if
any mutant survives or its edit no longer matches the source.  It uses only
the standard library and runs one suite at a time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "robyclif"

# (name, file under src/robyclif, exact source text, its replacement)
MUTANTS = (
    (
        "width check skipped, so a field carries",
        "poly.py",
        "    return vs, _fit(top, width)\n",
        "    return vs, width\n",
    ),
    (
        "the context join keeps the first part's variables when the parts differ",
        "poly.py",
        "        vs = tuple(sorted({v for p in parts for v in p.vars}))\n",
        "        vs = parts[0].vars\n",
    ),
    (
        "the context join's width ignores the parts' widths",
        "poly.py",
        "        if p.width > width:\n            width = p.width\n",
        "",
    ),
    (
        "a Poly product keeps its operands' width",
        "poly.py",
        "        top = self.top + other.top\n",
        "        top = max(self.top, other.top)\n",
    ),
    (
        "a one-term power multiplies its key before widening it",
        "poly.py",
        "                new_width = _fit(top, width)\n",
        "                new_width = width\n",
    ),
    (
        "one nonzero dropped from each row",
        "kernel.py",
        "a_cols = [list(compress(range(k), a[i * k : (i + 1) * k])) for i in range(n)]",
        "a_cols = [list(compress(range(k), a[i * k : (i + 1) * k]))[:-1] for i in range(n)]",
    ),
    (
        "s visited out of ascending order",
        "kernel.py",
        "        for s in cols:\n            left = a[i * k + s]",
        "        for s in reversed(cols):\n            left = a[i * k + s]",
    ),
    (
        "a cancelled term kept as a stored zero",
        "kernel.py",
        "                            cur = cur + c\n"
        "                            if cur:\n"
        "                                acc[exp] = cur\n"
        "                            else:\n"
        "                                del acc[exp]\n"
        "        # an entry",
        "                            cur = cur + c\n"
        "                            acc[exp] = cur\n"
        "        # an entry",
    ),
    (
        "a sum written into an input map",
        "matrix.py",
        'self._sum(other, "+", kernel.add_terms, lambda t: t)',
        'self._sum(other, "+", lambda x, y: kernel.add_into(x, y) or x, lambda t: t)',
    ),
    (
        "the last row skipped",
        "kernel.py",
        "    for i, cols in enumerate(a_cols):\n        row = [empty] * m",
        "    for i, cols in enumerate(a_cols[:-1]):\n        row = [empty] * m",
    ),
    (
        "terms killed by a zero binding kept",
        "poly.py",
        "        if occ & zero_mask:\n",
        "        if False:\n",
    ),
    (
        "a substitution group keeps its bound bits in its keys",
        "poly.py",
        "                groups.setdefault(g, {})[k ^ g] = c\n",
        "                groups.setdefault(g, {})[k] = c\n",
    ),
    (
        "the whole-map shortcut of a substitution passes a one-term map with a bound variable",
        "poly.py",
        "        if occ & bound_mask:\n",
        "        if occ & bound_mask and len(terms) > 1:\n",
    ),
    (
        "a re-encoded key's new fields filled from its top byte, not with zeros",
        "kernel.py",
        "src = [old_bytes] * (new_step * (max(f for _, f in kept) + 1))",
        "src = [old_bytes - 1] * (new_step * (max(f for _, f in kept) + 1))",
    ),
    (
        "a pruned polynomial loses its last variable",
        "poly.py",
        "return [occ >> (i * width) & mask for i in range(len(self.vars))]",
        "return [occ >> (i * width) & mask for i in range(len(self.vars) - 1)]",
    ),
    (
        "the Toeplitz band shifted below the diagonal",
        "matrix.py",
        "lower = min(i + 1, ncols)",
        "lower = min(i, ncols)",
    ),
    (
        "the corner's sign dropped from Berkowitz's Toeplitz column",
        "freealg.py",
        "column = [one, -m.submatrix([k], [k])]",
        "column = [one, m.submatrix([k], [k])]",
    ),
    (
        "the unit shift read out in powers of t + G_u",
        "freealg.py",
        "        t = t - duals[u]\n",
        "        t = t + duals[u]\n",
    ),
    (
        "the unit's dual left in rho while the read-out is still shifted",
        "freealg.py",
        "        duals[u] = Poly.zero()\n",
        "",
    ),
    (
        "a cover's tail symbol W_k bound to a_(k+1)",
        "freealg.py",
        "            bindings[w] = a\n",
        "            bindings[w] = tail[(k + 1) % d]\n",
    ),
    (
        "the last multi-term tail coefficient left unsubstituted",
        "freealg.py",
        "poly = _berkowitz_poly(generic).substitute(bindings)",
        "poly = _berkowitz_poly(generic).substitute(dict([*bindings.items()][:-1]))",
    ),
    (
        "Cayley-Hamilton decided on the unit column without the laws",
        "freealg.py",
        "    if laws != (True, None):\n        return False\n",
        "",
    ),
    (
        "the unit column replaced by the first basis vector",
        "freealg.py",
        "unit = PolyMatrix.from_rows([[c] for c in algebra.unit])",
        "unit = PolyMatrix.from_rows([[int(k == 0)] for k in range(algebra.rank)])",
    ),
    (
        "Horner's constant term skipped on the unit column",
        "freealg.py",
        "        cj = coeffs.get(j)\n        if cj:\n            acc = acc + unit",
        "        cj = coeffs.get(j) if j else None\n        if cj:\n            acc = acc + unit",
    ),
    (
        "the last fold row of a cyclotomic product skipped",
        "scalars.py",
        "for row, c in zip(_fold_table(order), out[d:]):",
        "for row, c in zip(_fold_table(order)[:-1], out[d:]):",
    ),
    (
        "a cyclotomic value times -1 returned unchanged",
        "scalars.py",
        "            if f == -1:\n                return -self",
        "            if f == -1:\n                return self",
    ),
    (
        "the same-order product taken without comparing orders",
        "scalars.py",
        "if type(other) is CycScalar and other.order == self.order:\n"
        "            return _product(",
        "if type(other) is CycScalar:\n"
        "            return _product(",
    ),
    (
        "an integral Fraction left in a cyclotomic product",
        "scalars.py",
        "    return _reduced(order, tuple(low))",
        "    x = _reduced(order, ())\n    x.coeffs = tuple(low)\n    return x",
    ),
    (
        "the cyclotomic product cache keyed without the order",
        "scalars.py",
        "@lru_cache(maxsize=CACHE_SIZE)\ndef _product(",
        "def _keyed_without_order(fn):\n"
        "    orders = []\n\n"
        "    @lru_cache(maxsize=CACHE_SIZE)\n"
        "    def by_tuples(a, b):\n"
        "        return fn(orders[-1], a, b)\n\n"
        "    def cached(order, a, b):\n"
        "        orders.append(order)\n"
        "        return by_tuples(a, b)\n\n"
        "    cached.__wrapped__ = fn\n"
        "    cached.cache_info, cached.cache_clear = by_tuples.cache_info, by_tuples.cache_clear\n"
        "    return cached\n\n\n"
        "@_keyed_without_order\ndef _product(",
    ),
    (
        "a name under a ^0 kept in the parsed variables",
        "poly.py",
        "                del self.seen[mark:]  # names under a ^0 leave the result\n",
        "",
    ),
    (
        "a one-term power leaves its coefficient unraised",
        "poly.py",
        "* n, c**n, new_width, top)",
        "* n, c, new_width, top)",
    ),
    (
        "the term path skips the exponent cap on name^n",
        "poly.py",
        "    if n > MAX_EXPONENT:\n        raise InputError(f\"power ^{n} is above",
        "    if n > MAX_EXPONENT and type(base) is not tuple:\n"
        "        raise InputError(f\"power ^{n} is above",
    ),
    (
        "the term path keeps a name read only under ^0 in the parsed variables",
        "poly.py",
        "    vars = tuple(sorted(set(parser.seen)))\n",
        "    vars = parser.vars\n",
    ),
    (
        "a product of one-term factors keeps the left factor's width",
        "poly.py",
        "        width = wa if wa == wb and not top >> wa else _fit(top, max(wa, wb))\n",
        "        width = wa\n",
    ),
    (
        "the matrix reader drops zero cells that carry variables",
        "specfile.py",
        "            if p or p.vars:\n",
        "            if p:\n",
    ),
    (
        "the matrix reader checks row lengths before reading later rows",
        "specfile.py",
        "        elif len(row) != ncols:\n            ragged = True\n",
        "        elif len(row) != ncols:\n"
        "            raise InputError(\"ragged rows in matrix literal\")\n",
    ),
    (
        "the parser's context built from a prefix of the tokens",
        "poly.py",
        "t for t in set(tokens) if",
        "t for t in set(tokens[: len(tokens) // 2]) if",
    ),
    (
        "the vanishing check names the last nonzero entry, not the first",
        "matrix.py",
        "    offender = m.first_nonzero()\n",
        "    offender = next(((i, j, m.entry(i, j).pruned()) for i, j, _ in reversed([*m.nonzeros()])), None)\n",
    ),
    (
        "cell_texts writes 0 for a row's last nonzero",
        "matrix.py",
        "            for j in nonempty(row):\n",
        "            for j in [*nonempty(row)][:-1]:\n",
    ),
    (
        "a cyclic shift puts block j at block row j, not j + 1 mod d",
        "matrix.py",
        "corner = (j + 1) % d * w * n + j * w",
        "corner = j * w * n + j * w",
    ),
    (
        "the grade cycle decides a zero target",
        "roby.py",
        "    if not c:\n        return False\n",
        "",
    ),
    (
        "the grade cycle decides unequal grade classes",
        "roby.py",
        "    if len({len(v) for v in classes}) != 1:\n        return False\n",
        "",
    ),
    (
        "the grade cycle decides an ungraded matrix",
        "roby.py",
        "    if any(grading[r] != (grading[col] + 1) % d for r, col, _ in m.nonzeros()):\n"
        "        return False\n",
        "",
    ),
    (
        "a char-poly module built over an algebra takes its basis names as duals",
        "roby.py",
        "            target_vars=algebra.dual_names,\n",
        "            target_vars=algebra.basis_names,\n",
    ),
    (
        "CharPoly accepts chi whose t^rank coefficient is not 1",
        "freealg.py",
        "            and (poly - Poly((tvar,), {(rank,): 1})).degree_in(tvar) < rank\n",
        "            and (poly - Poly((tvar,), {(rank,): 1})).degree_in(tvar) <= rank\n",
    ),
    (
        "CharPoly's homogeneity query leaves t out, so every chi takes the loop",
        "freealg.py",
        "poly.homogeneous_degree((tvar, *self.dual_names)) == rank",
        "poly.homogeneous_degree(self.dual_names) == rank",
    ),
    (
        "the splitting-type scan stops at K0 without waiting for the rank",
        "linegeom.py",
        "        if k >= top and delta == rank:\n",
        "        if k >= top:\n",
    ),
    (
        "K0 ignores the relation degrees",
        "linegeom.py",
        "    top = max(module.gen_degrees + module.rel_degrees)\n",
        "    top = max(module.gen_degrees)\n",
    ),
    (
        "the drop check stops short of K0, not at the scan's last degree",
        "linegeom.py",
        "        if delta < prev_delta:\n",
        "        if delta < prev_delta and k < top:\n",
    ),
    (
        "the one-pass twisted tensor's phases skip the seed's grading",
        "roby.py",
        "    classes = [(0,)]\n    for m in modules:\n",
        "    classes = [(0,), [0] * first.dim]\n    for m in modules[1:]:\n",
    ),
    (
        "a cell two tensor families share keeps the last family written",
        "matrix.py",
        "            data[k] = kernel.add_terms(x, t) if x else t\n",
        "            data[k] = t\n",
    ),
    (
        "the tensor certificate compares the factor entries without their phases",
        "matrix.py",
        "runs = {g: [kernel.scale_terms(src[k], scales[g])] * w for g in grades}",
        "runs = {g: [src[k]] * w for g in grades}",
    ),
    (
        "the tensor certificate skips the nonzero count",
        "matrix.py",
        "        return self.nnz() == want\n",
        "        return True\n",
    ),
    (
        "the tensor certificate accepts a diagonal nonzero",
        "matrix.py",
        "                if r == c:\n                    return False\n",
        "",
    ),
    (
        "the tensor certificate re-encodes a factor variable the matrix cannot hold",
        "matrix.py",
        "            if not known.issuperset(m.occurring_vars()):\n                return False\n",
        "",
    ),
    (
        "the tensor lemma is accepted with a twist that is not primitive",
        "roby.py",
        "    if not is_primitive_root(xi, e):\n        return False\n",
        "",
    ),
    (
        "the tensor lemma drops the target-sum check",
        "roby.py",
        "    if sum((m.target_poly for m in modules), Poly.zero()) != module.target_poly:\n"
        "        return False\n",
        "",
    ),
    (
        "the tensor lemma skips the grading comparison",
        "roby.py",
        "    if module.grading != tuple(sum(gs) % e for gs in product(*(m.grading for m in modules))):\n"
        "        return False\n",
        "",
    ),
    (
        "the tensor lemma trusts the factors without their own checks",
        "roby.py",
        "    if not all(verify_roby(m).ok for m in modules):\n        return False\n",
        "",
    ),
    (
        "the tensor lemma trusts a recorded module without its certificate",
        "roby.py",
        "    return all(\n        a.is_twisted_sum(",
        "    return True or all(\n        a.is_twisted_sum(",
    ),
    (
        "the binding condition (iii') drops its no-mention rule",
        "roby.py",
        "    return own <= pairs and not any(factor.target_poly.degree_in(v) for _, v in pairs - own)\n",
        "    return own <= pairs\n",
    ),
    (
        "the leak scan counts an entry within one level as leaving a flag",
        "roby.py",
        "if labels[r] > labels[c]),",
        "if labels[r] >= labels[c]),",
    ),
    (
        "quotients() lists the levels in descending order",
        "roby.py",
        "        return sorted(pieces.items())\n",
        "        return sorted(pieces.items(), reverse=True)\n",
    ),
    (
        "the seed's C-matrices are compared without the line restriction",
        "pipeline.py",
        "    seed_line = [m.substitute(spec.line) for m in char_morphism(seed).matrices]\n",
        "    seed_line = char_morphism(seed).matrices\n",
    ),
    (
        "the seed-block certificate drops the count of same-level nonzeros",
        "matrix.py",
        "        return count == per * seed.nnz()\n",
        "        return True\n",
    ),
    (
        "the seed-block certificate accepts a same-level nonzero off its own rho",
        "matrix.py",
        "                if rho_r != rho_c or data[k] != src[s_r * w + s_c]:\n",
        "                if data[k] != src[s_r * w + s_c]:\n",
    ),
    (
        "the seed-block certificate accepts labels that depend on the seed index",
        "matrix.py",
        "        if labels != labels[:per] * w:\n            return False\n",
        "",
    ),
    (
        "the quotients' laws are decided on the seed without the certificate",
        "roby.py",
        "    certified = seed is not None and len(seed) == len(cm.matrices) and all(\n"
        "        m.is_filtered_kron(s, labels) for m, s in zip(cm.matrices, seed)\n"
        "    )\n",
        "    certified = seed is not None\n",
    ),
    (
        "the relabelling's cycle check walks one step short",
        "roby.py",
        "        for _ in range(d - 2):\n",
        "        for _ in range(d - 3):\n",
    ),
    (
        "the relabelling scales column r by c_r instead of 1/c_r",
        "roby.py",
        "        scales.append(-inv)\n",
        "        scales.append(-c[r])\n",
    ),
    (
        "the relabelling moves column s to pi(s) instead of pi^-1(s)",
        "matrix.py",
        "            dest[s] = r\n",
        "            dest[r] = s\n",
    ),
    (
        "the monomial form takes a non-constant one-term entry for a scalar",
        "matrix.py",
        "        if any(len(t) != 1 or 0 not in t for t in entries):\n",
        "        if any(len(t) != 1 for t in entries):\n",
    ),
    (
        "the scalar-identity test wants n nonzeros when the scalar is 0",
        "matrix.py",
        "        if self.nnz() != (n if diag else 0):\n",
        "        if self.nnz() != n:\n",
    ),
    (
        "the unit law accepts any scalar multiple of the identity",
        "freealg.py",
        "    return not n or m.scalar_identity_multiple() == 1\n",
        "    return not n or m.scalar_identity_multiple() is not None\n",
    ),
    (
        "the CLI's JSON documents written with unsorted keys",
        "cli.py",
        "return json.dumps(data, indent=2, sort_keys=True)",
        "return json.dumps(data, indent=2)",
    ),
)


def copy_checkout(dest: Path) -> None:
    shutil.copytree(
        ROOT, dest, dirs_exist_ok=True,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out"),
    )


def run_suite(checkout: Path) -> tuple:
    """(passed, seconds) of the fast suite on a checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow", "-p", "no:cacheprovider",
         "tests"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    return proc.returncode == 0, time.perf_counter() - start


def apply(checkout: Path, filename: str, old: str, new: str) -> bool:
    path = checkout / PACKAGE / filename
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return False
    path.write_text(text.replace(old, new), encoding="utf-8")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, filename, _, _ in MUTANTS:
            print(f"{filename}: {name}")
        return 0
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")

    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        checkout = Path(tmp) / "checkout"
        copy_checkout(checkout)
        passed, seconds = run_suite(checkout)
        print(f"unmutated: {'passes' if passed else 'FAILS'} ({seconds:.1f} s)")
        if not passed:
            return 1
        survivors = 0
        for name, filename, old, new in chosen:
            shutil.rmtree(checkout)
            copy_checkout(checkout)
            if not apply(checkout, filename, old, new):
                print(f"{name}: the edit no longer matches {filename}")
                survivors += 1
                continue
            passed, seconds = run_suite(checkout)
            print(f"{name}: {'SURVIVED' if passed else 'caught'} ({seconds:.1f} s)")
            survivors += passed
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
