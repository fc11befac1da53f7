"""Regenerate the golden CLI transcripts in tests/golden/.

    python3 tests/make_golden.py

This script is the only writer of tests/golden/; ``tests/test_golden.py``
reads the files and compares them byte for byte with fresh runs.  Only rerun
it when an output is meant to change, and say in CHANGES.md which files
changed and why.

The corpus holds module files and transcripts:

- ``<stem>.roby``: a module file.  The five built modules are the standard
  output of ``robyclif roby build``; the four failing ones are built in
  Python below and written with ``render_roby_module``.
- ``<stem>.<command>.txt`` and ``<stem>.<command>.json``: one run of
  ``robyclif roby verify`` or ``robyclif charmor`` on that file, plain and
  with ``--json``, as its exit code, standard output and standard error.
- the transcripts named in ``DEMO_RUNS``: ``robyclif pipeline`` on both demo
  pipelines (text and ``--json``) and ``robyclif charpoly`` on the demo
  quadric algebra (plain, ``--json`` and ``--restrict``), on the files in
  demo/.

One rule masks a transcript, and nothing else does: the integer after
``timing_ms: `` (text) or ``"timing_ms": `` (JSON) becomes ``<ms>``.  It is
the pipeline report's wall-clock time, the only field that differs between
identical runs.  Every other byte is compared exactly as printed.  The
commands run in-process through ``robyclif.cli.main``, from inside the
directory that holds their input, with the bare file name, so no path
reaches an output.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEMO = HERE.parent / "demo"
sys.path.insert(0, str(HERE.parent / "src"))

from robyclif.cli import main  # noqa: E402
from robyclif.matrix import PolyMatrix  # noqa: E402
from robyclif.poly import HomForm, parse_poly  # noqa: E402
from robyclif.roby import GradedRobyModule, monomial_roby, twisted_tensor  # noqa: E402
from robyclif.specfile import parse_roby_module, render_roby_module  # noqa: E402

# stem -> the `roby build` arguments that write the module file
BUILT = {
    "split3": ["--kind", "split", "--degree", "3"],
    "mf_x_y": ["--kind", "mf", "--f", "x", "--g", "y"],
    "cyclic_z3_x_y": ["--kind", "cyclic", "--poly", "z^3 - x - y", "--cover", "3"],
    "cyclic_z4_xy": ["--kind", "cyclic", "--poly", "z^4 - x*y", "--cover", "4"],
    "cyclic_z5_x2_y": ["--kind", "cyclic", "--poly", "z^5 - x^2 + 3/2*y", "--cover", "5"],
}

COMMANDS = {"verify": ["roby", "verify"], "charmor": ["charmor"]}

# transcript name -> arguments of one run from inside demo/
DEMO_RUNS = {
    "quadric.pipeline.txt": ["pipeline", "quadric.pipeline"],
    "quadric.pipeline.json": ["pipeline", "quadric.pipeline", "--json"],
    "perturbed_split.pipeline.txt": ["pipeline", "perturbed_split.pipeline"],
    "perturbed_split.pipeline.json": ["pipeline", "perturbed_split.pipeline", "--json"],
    "quadric.charpoly.txt": ["charpoly", "quadric.algebra"],
    "quadric.charpoly.json": ["charpoly", "quadric.algebra", "--json"],
    "quadric.charpoly_restrict.txt": ["charpoly", "quadric.algebra", "--restrict", "z2 -> 0"],
}

# the one masking rule: the pipeline report's wall-clock time
TIMING = re.compile(r'("?timing_ms"?: )\d+')


def mask(text: str) -> str:
    return TIMING.sub(r"\1<ms>", text)


def run(argv) -> str:
    """The masked transcript of one in-process CLI run: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return mask(f"[exit {code}]\n[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}")


def replaced(module: GradedRobyModule, **changes) -> GradedRobyModule:
    """The module with some of its constructor arguments changed."""
    fields = dict(
        degree=module.degree,
        grading=module.grading,
        action_names=module.action_names,
        actions=module.actions,
        target_poly=module.target_poly,
        target_vars=module.target_vars,
        tslot=module.tslot,
        tvar=module.tvar,
        source_algebra=module.source_algebra,
    )
    return GradedRobyModule(**{**fields, **changes})


def unit(n: int, i: int, j: int, value=1) -> PolyMatrix:
    """The n x n matrix with value at (i, j) and zeros elsewhere."""
    return PolyMatrix.from_rows([[value if (r, c) == (i, j) else 0 for c in range(n)]
                                 for r in range(n)])


def tampered_in_block(module: GradedRobyModule, g: int) -> GradedRobyModule:
    """x added to the first action at an entry from grade g to grade g+1.

    The module stays graded, and its power identity fails.
    """
    grading, d, n = module.grading, module.degree, module.dim
    r, c = next((r, c) for c in range(n) for r in range(n)
                if grading[c] == g and grading[r] == (g + 1) % d)
    return replaced(module, actions=[module.actions[0] + unit(n, r, c, "x"), *module.actions[1:]])


def failing_modules(built: dict) -> dict:
    """stem -> module file text of the four cases that must fail."""
    # y1^3 + y2^3 tensored with the twist 1, not a primitive cube root
    m1, m2 = (monomial_roby(HomForm(parse_poly(f"{v}^3"), 3, (v,))) for v in ("y1", "y2"))
    untwisted = twisted_tensor(m1, m2, 1, require_primitive=False)
    split = parse_roby_module(built["split3"])
    # the split module with its grading reversed: T and the e_i break it
    misgraded = replaced(split, grading=tuple(reversed(split.grading)))
    # T scaled by 2 in one entry, so T^3 = 2I
    t = split.tslot
    r, c = next((r, c) for r in range(t.nrows) for c in range(t.ncols) if t.entry(r, c))
    nonmonic = replaced(split, tslot=t + unit(t.nrows, r, c))
    tampered = tampered_in_block(parse_roby_module(built["cyclic_z3_x_y"]), 0)
    return {
        name: render_roby_module(m)
        for name, m in (
            ("untwisted_xi1", untwisted),
            ("misgraded_split3", misgraded),
            ("nonmonic_tslot_split3", nonmonic),
            ("tampered_cyclic_z3_x_y", tampered),
        )
    }


def module_files() -> dict:
    """file name -> text of every module file in the corpus."""
    built = {}
    for stem, args in BUILT.items():
        transcript = run(["roby", "build", *args])
        head, _, rest = transcript.partition("[stdout]\n")
        text, _, err = rest.partition("[stderr]\n")
        if head != "[exit 0]\n" or err:
            raise RuntimeError(f"roby build for {stem} failed: {transcript}")
        built[stem] = text
    files = {**built, **failing_modules(built)}
    return {f"{stem}.roby": text for stem, text in files.items()}


def transcripts(stems) -> dict:
    """file name -> transcript, for each command and format on each module.

    Runs from the current directory, which must hold the module files.
    """
    out = {}
    for stem in stems:
        for command, argv in COMMANDS.items():
            out[f"{stem}.{command}.txt"] = run([*argv, f"{stem}.roby"])
            out[f"{stem}.{command}.json"] = run([*argv, f"{stem}.roby", "--json"])
    return out


def main_write() -> int:
    GOLDEN.mkdir(exist_ok=True)
    files = module_files()
    for name, text in files.items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        outputs = transcripts(name[: -len(".roby")] for name in files)
    finally:
        os.chdir(cwd)
    os.chdir(DEMO)
    try:
        outputs.update((name, run(argv)) for name, argv in DEMO_RUNS.items())
    finally:
        os.chdir(cwd)
    for name, text in outputs.items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    print(f"wrote {len(files)} module files and {len(outputs)} transcripts to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main_write())
