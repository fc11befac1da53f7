"""Regenerate the golden CLI transcripts in tests/golden/.

    python3 tests/make_golden.py

This script is the only writer of tests/golden/; ``tests/test_golden.py``
reads the files and compares them byte for byte with fresh runs.  Only rerun
it when an output is meant to change, and say in CHANGES.md which files
changed and why.

The corpus holds module files and transcripts:

- ``<stem>.roby``: a module file.  The five built modules are the standard
  output of ``robyclif roby build``; the four failing ones and the four
  split3 modules of ``CHI_REPLACED`` are built in Python below and written
  with ``render_roby_module``.
- ``<stem>.<command>.txt`` and ``<stem>.<command>.json``: one run of
  ``robyclif roby verify`` or ``robyclif charmor`` on that file, plain and
  with ``--json``, as its exit code, standard output and standard error.
- the transcripts named in ``DEMO_RUNS``: ``robyclif pipeline`` on both demo
  pipelines (text and ``--json``) and ``robyclif charpoly`` on the demo
  quadric algebra (plain, ``--json`` and ``--restrict``), on the files in
  demo/.
- ``<stem>.algebra`` and ``<stem>.charpoly.txt`` / ``.json``: the algebra
  files in ``ALGEBRAS`` and ``robyclif charpoly`` on each, plain and with
  ``--json``.
- ``multi_branch_<n>.report.txt`` and ``.report.json``, the report of
  ``run_pipeline`` on the multi-branch quadric cover with n = 1..5 off-line
  variables (``multi_branch_spec`` in ``test_pipeline.py``), and
  ``multi_branch_<n>.assembly``, its assembled module rendered as a module
  file.
- ``noncommuting.charmor.*`` and ``noncommuting.filtered.*``: the
  ``verify_char_morphism`` and ``verify_filtered_pseudo`` reports (trivial
  filtration) of the non-commuting pair C(z) = E23, C(w) = E12, which fails
  multiplicativity.
- ``<stem>.txt``, ``.json`` and ``.csv`` for each stem in ``NUMERIC_RUNS``:
  one ``robyclif cohom`` or ``robyclif numerology`` run, plain and in each
  of its pinned output formats.  These runs read no file.
- ``exit2_<family>.txt`` and ``.json``: one refused input per family of
  ``InputError`` in ``EXIT2_RUNS``, named after the module that refuses it,
  plain and with ``--json``, run on the input file ``exit2_<family>.in``
  where the family reads one.

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
from robyclif.pipeline import run_pipeline  # noqa: E402
from robyclif.poly import HomForm, parse_poly  # noqa: E402
from robyclif.roby import (  # noqa: E402
    Filtration,
    GradedRobyModule,
    monomial_roby,
    twisted_tensor,
    verify_char_morphism,
    verify_filtered_pseudo,
)
from robyclif.specfile import parse_roby_module, render_roby_module  # noqa: E402
from test_pipeline import multi_branch_spec  # noqa: E402
from test_point_oracle import noncommuting_counterexample  # noqa: E402
from test_freealg import BENCHMARK_COVERS, UNIT_SECOND_ALGEBRA  # noqa: E402

# stem -> the `roby build` arguments that write the module file
BUILT = {
    "split3": ["--kind", "split", "--degree", "3"],
    "mf_x_y": ["--kind", "mf", "--f", "x", "--g", "y"],
    "cyclic_z3_x_y": ["--kind", "cyclic", "--poly", "z^3 - x - y", "--cover", "3"],
    "cyclic_z4_xy": ["--kind", "cyclic", "--poly", "z^4 - x*y", "--cover", "4"],
    "cyclic_z5_x2_y": ["--kind", "cyclic", "--poly", "z^5 - x^2 + 3/2*y", "--cover", "5"],
}

COMMANDS = {"verify": ["roby", "verify"], "charmor": ["charmor"]}

# stem -> what is added to split3's target; each sum is refused as a
# characteristic polynomial by `charmor` (exit 2) and fails the power identity
CHI_REPLACED = {
    "chi_leading_2_split3": "t^3",  # 2*t^3 leads: not monic
    "chi_leading_x_split3": "x*t^3",  # (1 + x)*t^3 leads: not monic
    "chi_t4_split3": "t^4",  # a t^4 term above the rank
    "chi_t2_x1_squared_split3": "t^2*x1 - t^2*x1^2",  # t^2*x1 becomes t^2*x1^2
}

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

# stem -> text of the algebra file <stem>.algebra that `charpoly` runs on:
# the quintic perfbench cover, and an explicit basis whose unit is gamma_2
ALGEBRAS = {
    "quintic_cover": f"[algebra]\nmonogenic = {BENCHMARK_COVERS[1]}\nvar = z\n",
    "unit_second": UNIT_SECOND_ALGEBRA,
}

# the off-line variable counts of the pinned multi-branch pipeline runs
MULTI_BRANCH = range(1, 6)

# family -> (text of the input file exit2_<family>.in, or None for no file,
# arguments with FILE for that file's bare name): one refusal per module
EXIT2_RUNS = {
    "cli": (None, ["charpoly", "missing.algebra"]),
    "specfile": ("[algebra]\nmonogenic = z^2 - x\n", ["charpoly", "FILE"]),
    "poly_syntax": ("[algebra]\nmonogenic = z^2 - 2x\nvar = z\n", ["charpoly", "FILE"]),
    "poly_cap": ("[algebra]\nmonogenic = z^2 - x^1001\nvar = z\n", ["charpoly", "FILE"]),
    "scalars": ("[algebra]\nmonogenic = z^2 - zeta100000*x\nvar = z\n", ["charpoly", "FILE"]),
    "freealg": ("[algebra]\nsplit = 200\n", ["charpoly", "FILE"]),
    "seeds": (None, ["roby", "build", "--kind", "cyclic", "--poly", "2*z^3 - x", "--cover", "3"]),
    "matrix": (
        "[roby]\ndegree = 2\ngrading = 0, 1\ntarget = a\n\n[action a]\nrow = 0, 1\nrow = 0\n",
        ["roby", "verify", "FILE"],
    ),
    "roby": (
        "[roby]\ndegree = 1001\ngrading = 0\ntarget = a\n\n[action a]\nrow = x + y\n",
        ["roby", "verify", "FILE"],
    ),
    "pipeline": (
        "[pipeline]\nseed = mf(x, y)\nline = z2 -> 1\n\n"
        "[algebra]\nmonogenic = z^2 - x*y - z2^2\nvar = z\n",
        ["pipeline", "FILE"],
    ),
    "report": ('{"checks": 5}\n', ["report", "FILE"]),
    "surfnum": (None, ["cohom", "--table", "100000000"]),
}

# stem -> (arguments of one `cohom` or `numerology` run, the formats it is pinned in)
NUMERIC_RUNS = {
    "cohom_bidegree_1_0": (["cohom", "--bidegree", "1", "0"], ("txt", "json", "csv")),
    # h1 = 4
    "cohom_bidegree_m3_1": (["cohom", "--bidegree", "-3", "1"], ("txt", "json", "csv")),
    "cohom_table_3": (["cohom", "--table", "3"], ("txt", "json", "csv")),
    "cohom_ulrich_scan_2": (["cohom", "--ulrich-scan", "2"], ("txt", "json", "csv")),
    "cohom_twists_3_m2_m6_2": (["cohom", "--twists", "3", "-2", "-6", "2"], ("txt", "json", "csv")),
    # the Lefschetz pattern check fails: exit 1
    "cohom_twists_0_3_m6_2": (["cohom", "--twists", "0", "3", "-6", "2"], ("txt", "json", "csv")),
    "numerology_monad_1_2_2": (["numerology", "--monad", "1", "2", "2"], ("txt", "json")),
    "numerology_ec_1_1_2": (["numerology", "--ec", "1", "1", "2"], ("txt", "json")),
    "numerology_beta_1_3_3": (["numerology", "--beta", "1/3", "3"], ("txt", "json", "csv")),
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
    """stem -> module file text of the eight cases that must fail."""
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
    chi_replaced = [
        (stem, replaced(split, target_poly=split.target_poly + parse_poly(added)))
        for stem, added in CHI_REPLACED.items()
    ]
    return {
        name: render_roby_module(m)
        for name, m in (
            ("untwisted_xi1", untwisted),
            ("misgraded_split3", misgraded),
            ("nonmonic_tslot_split3", nonmonic),
            ("tampered_cyclic_z3_x_y", tampered),
            *chi_replaced,
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


def report_files() -> dict:
    """file name -> masked text of each pinned report and assembly outside the CLI."""
    out = {}
    for n in MULTI_BRANCH:
        result = run_pipeline(multi_branch_spec(n))
        out[f"multi_branch_{n}.report.txt"] = mask(result.report.to_text())
        out[f"multi_branch_{n}.report.json"] = mask(result.report.to_json())
        out[f"multi_branch_{n}.assembly"] = render_roby_module(result.assembly)
    cm = noncommuting_counterexample()
    for name, report in (
        ("charmor", verify_char_morphism(cm)),
        ("filtered", verify_filtered_pseudo(cm, Filtration.trivial(cm.dim))),
    ):
        out[f"noncommuting.{name}.txt"] = report.to_text()
        out[f"noncommuting.{name}.json"] = report.to_json()
    return out


def exit2_inputs() -> dict:
    """file name -> text of each input file an exit-2 run reads."""
    return {f"exit2_{family}.in": text for family, (text, _) in EXIT2_RUNS.items() if text}


def charpoly_argv(stem: str, fmt: str) -> list:
    """The arguments of one `charpoly` run, from inside the directory of its algebra file."""
    return ["charpoly", f"{stem}.algebra"] + (["--json"] if fmt == "json" else [])


def exit2_argv(family: str, fmt: str) -> list:
    """The arguments of one exit-2 run, from inside the directory of its input."""
    _, argv = EXIT2_RUNS[family]
    argv = [f"exit2_{family}.in" if a == "FILE" else a for a in argv]
    return argv + (["--json"] if fmt == "json" else [])


def numeric_argv(stem: str, fmt: str) -> list:
    """The arguments of one pinned `cohom` or `numerology` run in one format."""
    argv, _ = NUMERIC_RUNS[stem]
    return argv + ([] if fmt == "txt" else [f"--{fmt}"])


def main_write() -> int:
    GOLDEN.mkdir(exist_ok=True)
    files = module_files()
    algebras = {f"{stem}.algebra": text for stem, text in ALGEBRAS.items()}
    for name, text in {**files, **exit2_inputs(), **algebras}.items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        outputs = transcripts(name[: -len(".roby")] for name in files)
        outputs.update(
            (f"exit2_{family}.{fmt}", run(exit2_argv(family, fmt)))
            for family in EXIT2_RUNS
            for fmt in ("txt", "json")
        )
        outputs.update(
            (f"{stem}.charpoly.{fmt}", run(charpoly_argv(stem, fmt)))
            for stem in ALGEBRAS
            for fmt in ("txt", "json")
        )
        outputs.update(
            (f"{stem}.{fmt}", run(numeric_argv(stem, fmt)))
            for stem, (_, fmts) in NUMERIC_RUNS.items()
            for fmt in fmts
        )
    finally:
        os.chdir(cwd)
    os.chdir(DEMO)
    try:
        outputs.update((name, run(argv)) for name, argv in DEMO_RUNS.items())
    finally:
        os.chdir(cwd)
    outputs.update(report_files())
    for name, text in outputs.items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    print(f"wrote {len(files)} module files, {len(algebras)} algebra files, "
          f"{len(exit2_inputs())} refused inputs and "
          f"{len(outputs)} transcripts and reports to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main_write())
