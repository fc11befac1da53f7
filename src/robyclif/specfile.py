"""Sectioned text formats for algebras, modules, pipelines, and configuration.

The grammar is deliberately small.  '#' starts a comment, '[name]' or
'[name arg]' opens a section, and every other nonblank line is a
'key = value' pair belonging to the open section.  Repeated keys accumulate
in file order, which is how matrix rows are written.  Polynomials use the
syntax parse_poly accepts; rationals print as p/q.  Every render_* function
emits text whose parse yields an equal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .freealg import FreeAlgebra, monogenic_algebra, split_algebra
from .linegeom import GradedModuleP1
from .matrix import PolyMatrix, _from_cells
from .pipeline import PipelineSpec
from .poly import Poly, parse_poly
from .roby import GradedRobyModule, split_roby
from .seeds import companion_matrix, cyclic_cover_seed, mf_seed

__all__ = [
    "Config",
    "parse_algebra",
    "parse_bindings",
    "parse_config",
    "parse_line_module",
    "parse_pipeline",
    "parse_roby_module",
    "render_algebra",
    "render_line_module",
    "render_roby_module",
    "spec_kind",
]

_NAME_FORBIDDEN = set(" \t,*[]#=")


def _check_name(name: str, what: str) -> str:
    if not name or any(ch in _NAME_FORBIDDEN for ch in name):
        raise InputError(f"{what} {name!r} cannot be written in a spec file")
    return name


@dataclass
class _Section:
    name: str
    arg: str
    pairs: list
    line: int


def _parse_sections(text: str) -> list:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise InputError(f"line {lineno}: unterminated section header")
            head = line[1:-1].strip()
            if not head:
                raise InputError(f"line {lineno}: empty section header")
            name, _, arg = head.partition(" ")
            current = _Section(name, arg.strip(), [], lineno)
            sections.append(current)
            continue
        if current is None:
            raise InputError(f"line {lineno}: content before the first section header")
        key, sep, value = line.partition("=")
        if not sep:
            raise InputError(f"line {lineno}: expected 'key = value', got {line!r}")
        current.pairs.append((key.strip(), value.strip()))
    if not sections:
        raise InputError("the file contains no sections")
    return sections


def _pairs_map(section: _Section, allowed) -> dict:
    out: dict = {}
    for key, value in section.pairs:
        if key not in allowed:
            raise InputError(f"[{section.name}] does not take a key {key!r}")
        if key in out:
            raise InputError(f"[{section.name}] repeats the key {key!r}")
        else:
            out[key] = value
    return out


def _split_list(value: str) -> list:
    if not value.strip():
        return []
    items = list(map(str.strip, value.split(",")))
    if "" in items:
        raise InputError(f"empty entry in the list {value!r}")
    return items


def _int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def _poly_reader():
    """``parse_poly`` for one file: each distinct text is parsed once.

    Polys are immutable and matrices read-only, so equal cells can share
    one Poly.  Each parse_* call makes its own reader, so nothing is cached
    across calls.
    """
    polys: dict = {}

    def read(text: str) -> Poly:
        p = polys.get(text)
        if p is None:
            p = polys[text] = parse_poly(text)
        return p

    return read


def _matrix_rows(section: _Section, read) -> PolyMatrix:
    """The matrix of a section's 'row = ...' lines.

    Cells go through the file's reader, so each distinct cell text is
    parsed once however often it repeats, and a '0' cell, which the writer
    puts in every empty slot, is skipped unread (a module's matrices are
    mostly '0').  Only the cells whose Poly is nonzero or names a variable
    reach ``_from_cells``: a cell such as 'x - x' still puts x into ``vars``.
    Every row is read before the row lengths are compared, so a bad cell
    anywhere is reported before a ragged row.
    """
    cells, nrows, ncols, ragged = [], 0, 0, False
    for key, value in section.pairs:
        if key != "row":
            raise InputError(
                f"[{section.name}] takes only 'row = ...' lines, got {key!r}"
            )
        row = _split_list(value)
        if not nrows:
            ncols = len(row)
        elif len(row) != ncols:
            ragged = True
        start = nrows * ncols
        for j, text in enumerate(row):
            if text == "0":
                continue
            p = read(text)
            if p or p.vars:
                cells.append((start + j, p))
        nrows += 1
    if not nrows:
        raise InputError(f"[{section.name}] has no rows")
    if ragged:
        raise InputError("ragged rows in matrix literal")
    return _from_cells(nrows, ncols, cells)


def _matrix_lines(m: PolyMatrix) -> list:
    return ["row = " + ", ".join(row) for row in m.cell_texts()]


def spec_kind(text: str) -> str:
    """Name of the first section: algebra, roby, module, pipeline, or config."""
    return _parse_sections(text)[0].name


# -- algebras ---------------------------------------------------------------


def _algebra_from_sections(sections, read) -> FreeAlgebra:
    heads = [s for s in sections if s.name == "algebra"]
    tables = [s for s in sections if s.name == "table"]
    strays = [s for s in sections if s.name not in ("algebra", "table")]
    if strays:
        raise InputError(
            f"line {strays[0].line}: unexpected section [{strays[0].name}]"
        )
    if len(heads) != 1:
        raise InputError("need exactly one [algebra] section")
    if len(tables) > 1:
        raise InputError("need at most one [table] section")
    m = _pairs_map(
        heads[0],
        allowed={"monogenic", "var", "split", "basis", "duals", "tvar", "unit", "degrees"},
    )
    tvar = m.get("tvar", "t")
    duals = _split_list(m["duals"]) if "duals" in m else None
    modes = [k for k in ("monogenic", "split", "basis") if k in m]
    if len(modes) != 1:
        raise InputError("[algebra] needs exactly one of: monogenic, split, basis")
    mode = modes[0]
    if mode != "basis":
        for key in ("unit", "degrees"):
            if key in m:
                raise InputError(f"{key!r} only applies to an explicit basis")
        if tables:
            raise InputError(f"a {mode} algebra takes no [table] section")
    if mode == "monogenic":
        if "var" not in m:
            raise InputError("a monogenic algebra needs 'var'")
        return monogenic_algebra(
            read(m["monogenic"]), m["var"], dual_names=duals, tvar=tvar
        )
    if mode == "split":
        if "var" in m:
            raise InputError("'var' only applies to a monogenic algebra")
        return split_algebra(_int(m["split"], "split rank"), dual_names=duals, tvar=tvar)
    if "var" in m:
        raise InputError("'var' only applies to a monogenic algebra")
    basis = _split_list(m["basis"])
    if not tables:
        raise InputError("an explicit algebra needs a [table] section")
    d = len(basis)
    index = {}
    for i, name in enumerate(basis):
        if name in index:
            raise InputError(f"duplicate basis name {name!r}")
        index[name] = i
    grid = [[None] * d for _ in range(d)]
    for key, value in tables[0].pairs:
        parts = [p.strip() for p in key.split("*")]
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise InputError(
                f"[table] keys are products 'a*b' over the basis, got {key!r}"
            )
        i, j = index[parts[0]], index[parts[1]]
        coords = [read(c) for c in _split_list(value)]
        if len(coords) != d:
            raise InputError(f"product {key!r} needs {d} coordinates, got {len(coords)}")
        if grid[i][j] is not None:
            raise InputError(f"[table] repeats the product {key!r}")
        grid[i][j] = coords
        if i != j:
            grid[j][i] = coords
    missing = [
        f"{basis[i]}*{basis[j]}"
        for i in range(d)
        for j in range(i, d)
        if grid[i][j] is None
    ]
    if missing:
        raise InputError(f"[table] is missing products: {', '.join(missing)}")
    unit = [read(c) for c in _split_list(m["unit"])] if "unit" in m else None
    degrees = (
        [_int(g, "degree") for g in _split_list(m["degrees"])]
        if "degrees" in m
        else None
    )
    return FreeAlgebra(basis, grid, unit=unit, degrees=degrees, dual_names=duals, tvar=tvar)


def parse_algebra(text: str) -> FreeAlgebra:
    return _algebra_from_sections(_parse_sections(text), _poly_reader())


def render_algebra(algebra: FreeAlgebra) -> str:
    lines = ["[algebra]"]
    lines.append("basis = " + ", ".join(_check_name(n, "basis name") for n in algebra.basis_names))
    lines.append("duals = " + ", ".join(algebra.dual_names))
    lines.append(f"tvar = {algebra.tvar}")
    lines.append("unit = " + ", ".join(str(c) for c in algebra.unit))
    if algebra.degrees is not None:
        lines.append("degrees = " + ", ".join(str(g) for g in algebra.degrees))
    lines.append("")
    lines.append("[table]")
    for i in range(algebra.rank):
        for j in range(i, algebra.rank):
            key = f"{algebra.basis_names[i]}*{algebra.basis_names[j]}"
            lines.append(f"{key} = " + ", ".join(str(c) for c in algebra.table[i][j]))
    return "\n".join(lines) + "\n"


# -- Roby modules -----------------------------------------------------------


def parse_roby_module(text: str) -> GradedRobyModule:
    sections = _parse_sections(text)
    head = sections[0]
    if head.name != "roby":
        raise InputError("a module file starts with a [roby] section")
    m = _pairs_map(head, allowed={"degree", "grading", "target", "target_vars", "tvar"})
    for key in ("degree", "grading", "target"):
        if key not in m:
            raise InputError(f"[roby] needs {key!r}")
    read = _poly_reader()
    names = []
    actions = []
    tslot = None
    algebra_sections = []
    for sec in sections[1:]:
        if sec.name == "action":
            if not sec.arg:
                raise InputError(f"line {sec.line}: [action] needs a name argument")
            names.append(sec.arg)
            actions.append(_matrix_rows(sec, read))
        elif sec.name == "tslot":
            if tslot is not None:
                raise InputError("duplicate [tslot] section")
            tslot = _matrix_rows(sec, read)
        elif sec.name in ("algebra", "table"):
            algebra_sections.append(sec)
        else:
            raise InputError(
                f"line {sec.line}: unexpected section [{sec.name}] in a module file"
            )
    module = GradedRobyModule(
        _int(m["degree"], "degree"),
        [_int(g, "grading entry") for g in _split_list(m["grading"])],
        names,
        actions,
        read(m["target"]),
        target_vars=_split_list(m["target_vars"]) if "target_vars" in m else None,
        tslot=tslot,
        tvar=m.get("tvar"),
    )
    # verification binds each target variable in the target only, so one that
    # also occurs in a matrix would fail a sound module's identity
    used = {v for _, _, matrix in module.named_actions for v in matrix.occurring_vars()}
    for name, v, _ in module.named_actions:
        if v in used:
            raise InputError(f"target variable {v!r} of action {name} occurs in a matrix")
    if algebra_sections:
        module = module.with_source(_algebra_from_sections(algebra_sections, read))
    return module


def render_roby_module(module: GradedRobyModule) -> str:
    lines = ["[roby]"]
    lines.append(f"degree = {module.degree}")
    lines.append("grading = " + ", ".join(str(g) for g in module.grading))
    lines.append(f"target = {module.target_poly}")
    if module.target_vars != module.action_names:
        lines.append("target_vars = " + ", ".join(module.target_vars))
    if module.tvar is not None:
        lines.append(f"tvar = {module.tvar}")
    for name, action in zip(module.action_names, module.actions):
        lines.append("")
        lines.append(f"[action {_check_name(name, 'action name')}]")
        lines.extend(_matrix_lines(action))
    if module.tslot is not None:
        lines.append("")
        lines.append("[tslot]")
        lines.extend(_matrix_lines(module.tslot))
    if module.source_algebra is not None:
        lines.append("")
        lines.append(render_algebra(module.source_algebra).rstrip("\n"))
    return "\n".join(lines) + "\n"


# -- graded modules over the line ---------------------------------------------


def parse_line_module(text: str) -> GradedModuleP1:
    sections = _parse_sections(text)
    head = sections[0]
    if head.name != "module":
        raise InputError("a line-module file starts with a [module] section")
    m = _pairs_map(head, allowed={"generators", "vars", "rel_degrees"})
    if "generators" not in m:
        raise InputError("[module] needs 'generators'")
    relations = None
    for sec in sections[1:]:
        if sec.name != "relations":
            raise InputError(
                f"line {sec.line}: unexpected section [{sec.name}] in a module file"
            )
        if relations is not None:
            raise InputError("duplicate [relations] section")
        relations = _matrix_rows(sec, _poly_reader())
    return GradedModuleP1(
        [_int(g, "generator degree") for g in _split_list(m["generators"])],
        relations,
        rel_degrees=(
            [_int(g, "relation degree") for g in _split_list(m["rel_degrees"])]
            if "rel_degrees" in m
            else None
        ),
        vars=tuple(_split_list(m["vars"])) if "vars" in m else ("x", "y"),
    )


def render_line_module(module: GradedModuleP1) -> str:
    lines = ["[module]"]
    lines.append("generators = " + ", ".join(str(g) for g in module.gen_degrees))
    lines.append("vars = " + ", ".join(module.vars))
    if module.relations.ncols:
        lines.append("rel_degrees = " + ", ".join(str(d) for d in module.rel_degrees))
        lines.append("")
        lines.append("[relations]")
        lines.extend(_matrix_lines(module.relations))
    return "\n".join(lines) + "\n"


# -- pipelines -----------------------------------------------------------------


def parse_bindings(value: str) -> dict:
    bindings: dict = {}
    for item in _split_list(value):
        var, sep, expr = item.partition("->")
        if not sep:
            raise InputError(f"line bindings look like 'z2 -> 0', got {item!r}")
        var = var.strip()
        if var in bindings:
            raise InputError(f"duplicate line binding for {var!r}")
        bindings[var] = parse_poly(expr.strip())
    return bindings


def _build_seed(expr: str, algebra: FreeAlgebra, base_dir):
    """A builder seed in the algebra's basis, dual and t names, or a module file's own."""
    expr = expr.strip()
    if expr == "split":
        return split_roby(algebra.rank, dual_names=algebra.dual_names)
    names = dict(
        basis_names=algebra.basis_names, dual_names=algebra.dual_names, tvar=algebra.tvar
    )
    for builder in ("mf", "companion"):
        if expr.startswith(builder + "(") and expr.endswith(")"):
            args = _split_list(expr[len(builder) + 1 : -1])
            if builder == "mf" and len(args) not in (2, 3):
                raise InputError("mf takes two factors and an optional variable")
            if builder == "companion" and len(args) != 3:
                raise InputError("companion takes a polynomial, a variable, and a degree")
            degree = 2 if builder == "mf" else _int(args[2], "cover degree")
            # the same refusal PipelineSpec gives, before the names are sized by it
            if degree != algebra.rank:
                raise InputError(
                    f"seed degree {degree} does not match the algebra rank {algebra.rank}"
                )
            if builder == "mf":
                var = args[2] if len(args) == 3 else "z"
                return mf_seed(parse_poly(args[0]), parse_poly(args[1]), var=var, **names)
            return cyclic_cover_seed(
                companion_matrix(parse_poly(args[0]), args[1]), degree, var=args[1], **names
            )
    path = Path(expr)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    if not path.is_file():
        raise InputError(
            f"seed {expr!r} is neither a builder (split, mf(f, g), "
            f"companion(p, var, d)) nor a readable module file"
        )
    return parse_roby_module(path.read_text(encoding="utf-8"))


def parse_pipeline(text: str, *, base_dir=None) -> PipelineSpec:
    sections = _parse_sections(text)
    head = sections[0]
    if head.name != "pipeline":
        raise InputError("a pipeline file starts with a [pipeline] section")
    m = _pairs_map(head, allowed={"line", "line_vars", "seed"})
    if "seed" not in m:
        raise InputError("[pipeline] needs a seed")
    algebra = _algebra_from_sections(sections[1:], _poly_reader())
    return PipelineSpec(
        algebra,
        parse_bindings(m.get("line", "")),
        _build_seed(m["seed"], algebra, base_dir),
        tuple(_split_list(m["line_vars"])) if "line_vars" in m else ("x", "y"),
    )


# -- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """Optional knobs shared by the CLI; environment variables are never read."""

    out_dir: str | None = None


def parse_config(text: str) -> Config:
    sections = _parse_sections(text)
    if len(sections) != 1 or sections[0].name != "config":
        raise InputError("a config file holds exactly one [config] section")
    return Config(out_dir=_pairs_map(sections[0], allowed={"out_dir"}).get("out_dir"))
