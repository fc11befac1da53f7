"""Mutation check: each hand-written fault in the kernel or the matrix module
must make the fast test suite fail.

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
        "matrix.py",
        "width = _fit(top, max(self.width, other.width))",
        "width = max(self.width, other.width)",
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
        "data[k] = kernel.add_terms(x, b[k]) if x else b[k]",
        "data[k] = (kernel.add_into(x, b[k]) or x) if x else b[k]",
    ),
    (
        "the last row skipped",
        "kernel.py",
        "    for i, cols in enumerate(a_cols):\n        row = [empty] * m",
        "    for i, cols in enumerate(a_cols[:-1]):\n        row = [empty] * m",
    ),
    (
        "terms killed by a zero binding kept",
        "matrix.py",
        "            if occ & zero_mask:",
        "            if False:",
    ),
    (
        "a re-encoded key's new fields filled from its top byte, not with zeros",
        "kernel.py",
        "src = [old_bytes] * (new_step * (max(f for _, f in kept) + 1))",
        "src = [old_bytes - 1] * (new_step * (max(f for _, f in kept) + 1))",
    ),
    (
        "a decoded entry loses its last variable",
        "matrix.py",
        "used = [i for i in range(len(self.vars)) if occ >> (i * width) & mask]",
        "used = [i for i in range(len(self.vars) - 1) if occ >> (i * width) & mask]",
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
