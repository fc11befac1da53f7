"""Command-line front end.

Subcommands cover the whole toolchain: characteristic polynomials of cover
algebras, building and verifying Roby modules, extracting characteristic
morphisms, the line-restriction pipeline, cohomology tables on the quadric,
bundle numerology, and re-rendering stored reports.  Exit codes: 0 when every
required check passes, 1 on a verification failure, 2 on bad input.

All output is exact (rationals as p/q); reports for identical inputs are
byte-identical apart from the timing_ms meta field.  Configuration comes from
one optional file; environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .errors import InputError, VerificationError
from .freealg import char_poly
from .linegeom import splitting_type, underlying_line_module
from .report import Report
from .roby import char_morphism, split_roby, verify_char_morphism, verify_roby
from .scalars import decimal_str
from .seeds import companion_matrix, cyclic_cover_seed, mf_seed
from .specfile import (
    Config,
    parse_algebra,
    parse_bindings,
    parse_config,
    parse_pipeline,
    parse_roby_module,
    render_roby_module,
)
from .surfnum import (
    BundleNumerics,
    beta_sequence,
    ec_tensor,
    monad_shape,
    p1xp1_cohomology,
    quadric_h1_table,
    quadric_twist_h1,
    quadric_ulrich_scan,
    wlp_check,
)
from .pipeline import run_pipeline

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


def _emit(document: str, args, config: Config) -> None:
    if not document.endswith("\n"):
        document += "\n"
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(document)
        return
    path = Path(out)
    if not path.is_absolute() and config.out_dir:
        path = Path(config.out_dir) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(document, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _render_report(report: Report, as_json: bool) -> str:
    return report.to_json() if as_json else report.to_text()


def _aligned(rows) -> str:
    """Right-justified columns of the cells' str."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _document(args, data, text: str, csv_rows=None) -> str:
    """A data command's document: data as JSON, csv_rows comma-joined, or text."""
    if args.json:
        return json.dumps(data, indent=2, sort_keys=True)
    if getattr(args, "csv", False):
        return "\n".join(",".join(str(cell) for cell in row) for row in csv_rows)
    return text


def _check_printable(*numbers) -> None:
    """InputError, before any output, if Python cannot print one of the ints.

    Products of bidegrees or ranks given on the command line can pass the
    interpreter's limit on the digits of a printed integer.
    """
    for n in numbers:
        decimal_str(n)


def _pick_format(args) -> None:
    if getattr(args, "json", False) and getattr(args, "csv", False):
        raise InputError("pick one of --json and --csv")


# -- subcommands -------------------------------------------------------------


def _cmd_charpoly(args, config: Config) -> int:
    algebra = parse_algebra(_read(args.spec))
    bindings = parse_bindings(args.restrict) if args.restrict else {}
    for var, value in bindings.items():
        if var not in algebra.base_vars:
            raise InputError(
                f"--restrict binding '{var} -> {value}' does not bind a base variable; "
                f"bindings must cover base variables only: {', '.join(algebra.base_vars) or 'none'}"
            )
    chi = char_poly(algebra)
    if bindings:
        chi = chi.substitute_base(bindings)
    poly = str(chi.poly)
    data = {"rank": chi.rank, "tvar": chi.tvar, "duals": list(chi.dual_names), "poly": poly}
    _emit(_document(args, data, poly), args, config)
    return 0


def _cmd_roby_build(args, config: Config) -> int:
    if args.kind == "split":
        if args.degree is None:
            raise InputError("building a split module needs --degree")
        duals = tuple(args.duals.split(",")) if args.duals else None
        module = split_roby(args.degree, dual_names=duals)
    elif args.kind == "mf":
        if args.f is None or args.g is None:
            raise InputError("building a matrix-factorization module needs --f and --g")
        module = mf_seed(args.f, args.g, var=args.var)
    else:  # cyclic
        if args.poly is None or args.cover is None:
            raise InputError("building a cyclic-cover module needs --poly and --cover")
        module = cyclic_cover_seed(
            companion_matrix(args.poly, args.var), args.cover, var=args.var
        )
    if args.json:
        raise InputError("roby build writes a module spec file; it has no --json output")
    _emit(render_roby_module(module), args, config)
    return 0


def _cmd_roby_verify(args, config: Config) -> int:
    module = parse_roby_module(_read(args.spec))
    report = verify_roby(module)
    _emit(_render_report(report, args.json), args, config)
    return 0 if report.ok else 1


def _cmd_charmor(args, config: Config) -> int:
    module = parse_roby_module(_read(args.spec))
    cm = char_morphism(module)
    report = verify_char_morphism(cm)
    report.meta["matrices"] = {
        name: m.cell_texts() for name, m in zip(cm.source.basis_names, cm.matrices)
    }
    _emit(_render_report(report, args.json), args, config)
    return 0 if report.ok else 1


def _cmd_pipeline(args, config: Config) -> int:
    spec = parse_pipeline(
        _read(args.spec), base_dir=Path(args.spec).resolve().parent
    )
    result = run_pipeline(spec)
    stype = splitting_type(
        underlying_line_module(result.restricted, line_vars=spec.line_vars)
    )
    result.report.meta["splitting_type"] = str(stype)
    _emit(_render_report(result.report, args.json), args, config)
    return 0


def _cmd_cohom(args, config: Config) -> int:
    _pick_format(args)
    ok = True
    if args.bidegree is not None:
        a, b = args.bidegree
        h0, h1, h2 = p1xp1_cohomology(a, b)
        chi = h0 - h1 + h2
        _check_printable(a, b, h0, h1, h2, chi)
        data = {"a": a, "b": b, "h0": h0, "h1": h1, "h2": h2, "chi": chi}
        text = _aligned([[f"O({a}, {b})", "h0", "h1", "h2", "chi"], ["", h0, h1, h2, chi]])
        rows = [[a, b, h0, h1, h2, chi]]
    elif args.table is not None:
        table = quadric_h1_table(args.table)
        data = {"s": args.table, "h1": {str(k): v for k, v in table.items()}}
        text = _aligned([["k", *table], ["h1", *table.values()]])
        rows = table.items()
    elif args.ulrich_scan is not None:
        rows = [[a, b, h0, v.value] for a, b, h0, v in quadric_ulrich_scan(args.ulrich_scan)]
        data = [dict(zip(("a", "b", "h0", "class"), row)) for row in rows]
        text = _aligned([["a", "b", "h0", "class"], *rows])
    else:
        a, b, lo, hi = args.twists
        seq = quadric_twist_h1(a, b, lo, hi)
        _check_printable(*seq.values())
        report = wlp_check(seq)
        ok = report.ok
        data = {**report.to_dict(), "h1": {str(k): v for k, v in seq.items()}}
        text = _aligned([["i", *seq], ["h1", *seq.values()]]) + "\n\n" + report.to_text()
        rows = seq.items()
    _emit(_document(args, data, text, rows), args, config)
    if not ok and args.csv:
        # the CSV rows carry no report, so the failed check is named here
        bad = report.first_failure()
        why = f" ({bad.detail})" if bad.detail else ""
        print(f"error: {report.title} failed: {bad.name}{why}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_numerology(args, config: Config) -> int:
    _pick_format(args)
    if args.csv and args.beta is None:
        mode = "--monad" if args.monad is not None else "--ec"
        raise InputError(f"numerology {mode} has no CSV output; --beta is the only mode with one")
    if args.monad is not None:
        r, d, m = args.monad
        shape = monad_shape(BundleNumerics(rank=r, degree=d, m=m))
        _check_printable(*shape.shape, shape.chi)
        data = {"shape": list(shape.shape), "chi": shape.chi}
        doc = _document(args, data, f"monad shape {shape.shape}\nchi = {shape.chi}")
    elif args.ec is not None:
        chi_e, r_e, r_f = args.ec
        value = ec_tensor(chi_e, r_e, r_f)
        _check_printable(value)
        # compact JSON, unlike every other document
        doc = json.dumps({"chi": value}) if args.json else f"chi(E (x) F) = {value}"
    else:
        beta0, steps = args.beta
        try:
            steps = int(steps)
        except ValueError:
            raise InputError(f"step count must be a non-negative integer, got {steps!r}") from None
        rows = list(enumerate(decimal_str(v) for v in beta_sequence(beta0, steps)))
        data = {"beta": [v for _, v in rows]}
        doc = _document(args, data, _aligned([["m", "beta_m"], *rows]), rows)
    _emit(doc, args, config)
    return 0


def _cmd_report(args, config: Config) -> int:
    try:
        data = json.loads(_read(args.file))
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.file} is not valid JSON: {exc}") from None
    report = Report.from_dict(data)
    _emit(_render_report(report, args.json), args, config)
    return 0 if report.ok else 1


# -- wiring ------------------------------------------------------------------


def _add_output_options(parser, *, csv=False):
    parser.add_argument("--json", action="store_true", help="structured output")
    if csv:
        parser.add_argument(
            "--csv", action="store_true", help="comma-separated data rows"
        )
    parser.add_argument("--out", metavar="PATH", help="write the document to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robyclif",
        description="Clifford-style cover algebras, Roby modules, and line restriction.",
    )
    parser.add_argument("--config", metavar="FILE", help="optional config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a cover algebra")
    p.add_argument("spec", help="algebra spec file")
    p.add_argument(
        "--restrict",
        metavar="BINDINGS",
        help="restrict the base, e.g. 'z2 -> 0'",
    )
    _add_output_options(p)
    p.set_defaults(handler="_cmd_charpoly")

    roby = sub.add_parser("roby", help="build or verify Roby modules")
    roby_sub = roby.add_subparsers(dest="roby_command", required=True)
    p = roby_sub.add_parser("build", help="write a built-in module as a spec file")
    p.add_argument("--kind", choices=("split", "mf", "cyclic"), required=True)
    p.add_argument("--degree", type=int, help="split: number of factors")
    p.add_argument("--duals", help="split: comma-separated dual names")
    p.add_argument("--f", help="mf: first factor")
    p.add_argument("--g", help="mf: second factor")
    p.add_argument("--poly", help="cyclic: defining polynomial")
    p.add_argument("--cover", type=int, help="cyclic: cover degree")
    p.add_argument("--var", default="z", help="cover variable (default z)")
    _add_output_options(p)
    p.set_defaults(handler="_cmd_roby_build")
    p = roby_sub.add_parser("verify", help="run the Roby identities on a module file")
    p.add_argument("spec", help="module spec file")
    _add_output_options(p)
    p.set_defaults(handler="_cmd_roby_verify")

    p = sub.add_parser("charmor", help="extract and verify a characteristic morphism")
    p.add_argument("spec", help="module spec file (needs a T-slot and a source)")
    _add_output_options(p)
    p.set_defaults(handler="_cmd_charmor")

    p = sub.add_parser("pipeline", help="cover algebra to filtered pseudomorphism")
    p.add_argument("spec", help="pipeline spec file")
    _add_output_options(p)
    p.set_defaults(handler="_cmd_pipeline")

    p = sub.add_parser("cohom", help="line-bundle cohomology on the quadric")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--bidegree", nargs=2, type=int, metavar=("A", "B"), help="h* of O(a, b)"
    )
    mode.add_argument("--table", type=int, metavar="S", help="h1 twist-family table")
    mode.add_argument(
        "--ulrich-scan",
        type=int,
        metavar="N",
        help="classify O(a, 1-a) for |a| <= N",
    )
    mode.add_argument(
        "--twists",
        nargs=4,
        type=int,
        metavar=("A", "B", "LO", "HI"),
        help="h1 of O(a+i, b+i) plus the Lefschetz pattern check",
    )
    _add_output_options(p, csv=True)
    p.set_defaults(handler="_cmd_cohom")

    p = sub.add_parser("numerology", help="monad shapes and Euler characteristics")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--monad", nargs=3, type=int, metavar=("R", "D", "M"), help="monad shape"
    )
    mode.add_argument(
        "--ec",
        nargs=3,
        type=int,
        metavar=("CHIE", "RE", "RF"),
        help="chi of a tensor with an Ulrich factor",
    )
    mode.add_argument(
        "--beta",
        nargs=2,
        metavar=("BETA0", "M"),
        help="the slope lower-bound recursion, exactly",
    )
    _add_output_options(p, csv=True)
    p.set_defaults(handler="_cmd_numerology")

    p = sub.add_parser("report", help="re-render a stored JSON report")
    p.add_argument("file", help="report JSON file")
    _add_output_options(p)
    p.set_defaults(handler="_cmd_report")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = parse_config(_read(args.config)) if args.config else Config()
        # by name, so a handler replaced after the parser was built is the one run
        return globals()[args.handler](args, config)
    except VerificationError as exc:
        if exc.report is not None:
            doc = _render_report(exc.report, getattr(args, "json", False))
            sys.stdout.write(doc + ("" if doc.endswith("\n") else "\n"))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input or a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
