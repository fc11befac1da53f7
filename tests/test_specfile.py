"""Round trips and validation errors for the sectioned text formats."""

import re

import pytest

from robyclif.cli import main
from robyclif.errors import InputError
from robyclif.freealg import FreeAlgebra, monogenic_algebra, split_algebra
from robyclif.linegeom import GradedModuleP1
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import run_pipeline
from robyclif.poly import parse_poly
from robyclif.roby import split_roby
from robyclif.scalars import make_root
from robyclif.seeds import mf_seed, perturbed_split_algebra
from robyclif.specfile import (
    Config,
    parse_algebra,
    parse_config,
    parse_line_module,
    parse_pipeline,
    parse_roby_module,
    render_algebra,
    render_line_module,
    render_roby_module,
    spec_kind,
)


def same_module(a, b):
    """GradedRobyModule has no __eq__; compare field by field."""
    return (
        a.degree == b.degree
        and a.grading == b.grading
        and a.action_names == b.action_names
        and a.target_vars == b.target_vars
        and a.tvar == b.tvar
        and a.target_poly == b.target_poly
        and all(x == y for x, y in zip(a.actions, b.actions))
        and (a.tslot is None) == (b.tslot is None)
        and (a.tslot is None or a.tslot == b.tslot)
        and (a.source_algebra is None) == (b.source_algebra is None)
        and (a.source_algebra is None or a.source_algebra == b.source_algebra)
    )


class TestAlgebraFiles:
    def test_monogenic_round_trip(self):
        a = monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z")
        b = parse_algebra(render_algebra(a))
        assert b == a
        assert b.degrees == a.degrees
        assert b.unit == a.unit
        assert b.dual_names == a.dual_names

    def test_split_round_trip(self):
        a = split_algebra(4, dual_names=("p", "q", "r", "s"))
        assert parse_algebra(render_algebra(a)) == a

    def test_ungraded_round_trip(self):
        a = perturbed_split_algebra("z2*x")
        b = parse_algebra(render_algebra(a))
        assert b == a
        assert b.degrees is None

    def test_cyclotomic_entries_round_trip(self):
        z = make_root(4)
        a = FreeAlgebra(
            ["e", "f"],
            [[[1, 0], [0, 1]], [[0, 1], [z, 0]]],
        )
        assert parse_algebra(render_algebra(a)) == a

    def test_monogenic_shorthand(self):
        text = "[algebra]\nmonogenic = z^2 - x*y\nvar = z\nduals = a, b\n"
        assert parse_algebra(text) == monogenic_algebra(
            parse_poly("z^2 - x*y"), "z", dual_names=("a", "b")
        )

    def test_split_shorthand(self):
        assert parse_algebra("[algebra]\nsplit = 3\n") == split_algebra(3)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n[algebra]  # trailing\nsplit = 2\n\n# done\n"
        assert parse_algebra(text) == split_algebra(2)

    def test_table_symmetric_fill(self):
        # only the i <= j half is written; the parse mirrors it
        a = split_algebra(3)
        text = render_algebra(a)
        assert "e2*e1" not in text
        assert parse_algebra(text).table[2][0] == a.table[2][0]

    def test_missing_product_rejected(self):
        text = "[algebra]\nbasis = u, v\n\n[table]\nu*u = 1, 0\nu*v = 0, 1\n"
        with pytest.raises(InputError, match="missing products: v\\*v"):
            parse_algebra(text)

    def test_duplicate_product_rejected(self):
        text = (
            "[algebra]\nbasis = u, v\n\n[table]\n"
            "u*u = 1, 0\nu*v = 0, 1\nv*u = 0, 1\nv*v = 0, 0\n"
        )
        with pytest.raises(InputError, match="repeats the product"):
            parse_algebra(text)

    def test_two_modes_rejected(self):
        with pytest.raises(InputError, match="exactly one of"):
            parse_algebra("[algebra]\nsplit = 2\nmonogenic = z^2\nvar = z\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="does not take a key"):
            parse_algebra("[algebra]\nsplit = 2\nrank = 2\n")

    def test_content_before_section_rejected(self):
        with pytest.raises(InputError, match="line 1"):
            parse_algebra("split = 2\n[algebra]\n")

    def test_bad_coordinate_count(self):
        text = "[algebra]\nbasis = u, v\n\n[table]\nu*u = 1\nu*v = 0, 1\nv*v = 0, 0\n"
        with pytest.raises(InputError, match="needs 2 coordinates"):
            parse_algebra(text)


class TestRobyModuleFiles:
    def test_mf_round_trip(self):
        m = mf_seed("x", "y")
        assert same_module(parse_roby_module(render_roby_module(m)), m)

    def test_split_with_source_round_trip(self):
        m = split_roby(3).with_source(split_algebra(3))
        assert same_module(parse_roby_module(render_roby_module(m)), m)

    def test_no_tslot_no_source(self):
        m = split_roby(2)
        bare = m.with_source(None) if m.source_algebra else m
        text = render_roby_module(bare)
        assert "[tslot]" in text  # split modules carry a T-slot
        again = parse_roby_module(text)
        assert same_module(again, bare)

    def test_header_must_open_file(self):
        with pytest.raises(InputError, match="starts with a \\[roby\\]"):
            parse_roby_module("[algebra]\nsplit = 2\n")

    def test_action_needs_name(self):
        text = "[roby]\ndegree = 2\ngrading = 0, 1\ntarget = t^2\n\n[action]\nrow = 0, 1\nrow = 1, 0\n"
        with pytest.raises(InputError, match="needs a name"):
            parse_roby_module(text)

    def test_tslot_without_tvar_rejected(self):
        m = mf_seed("x", "y")
        text = render_roby_module(m).replace("tvar = t\n", "")
        with pytest.raises(InputError, match="needs a t-variable"):
            parse_roby_module(text)

    def test_bound_variable_in_a_matrix_rejected(self):
        text = render_roby_module(mf_seed("x", "y"))
        # G1 stands for the coefficient of action 1, so it may not sit in a matrix
        with pytest.raises(InputError, match="'G1' of action 1 occurs in a matrix"):
            parse_roby_module(text.replace("row = 0, 0, 0, x", "row = 0, 0, 0, G1"))
        # a term with a zero coefficient or a zero exponent mentions no variable
        zeros = text.replace("row = 0, 0, 0, x", "row = 0, 0, 0, x + t*0 + G2^0 - 1")
        again = parse_roby_module(zeros)
        assert same_module(again, mf_seed("x", "y"))

    def test_ragged_rows_rejected(self):
        text = (
            "[roby]\ndegree = 2\ngrading = 0, 1\ntarget = t^2\n\n"
            "[action a]\nrow = 0, 1\nrow = 1\n"
        )
        with pytest.raises(InputError):
            parse_roby_module(text)


class TestUnwritableNames:
    # every name a command builds is a variable name, so only a caller of
    # the render functions can meet this refusal
    def test_basis_name_with_a_separator(self):
        algebra = monogenic_algebra(parse_poly("z^2 - x"), "z", basis_names=["1", "z z"])
        with pytest.raises(InputError, match="basis name 'z z' cannot be written in a spec file"):
            render_algebra(algebra)


class TestLineModuleFiles:
    def test_free_round_trip(self):
        m = GradedModuleP1([0, -1, 2])
        n = parse_line_module(render_line_module(m))
        assert n.gen_degrees == m.gen_degrees
        assert n.relations.shape == (3, 0)
        assert n.vars == m.vars

    def test_relations_round_trip(self):
        m = GradedModuleP1(
            [0, 0],
            PolyMatrix.from_rows([[parse_poly("x")], [parse_poly("-y")]]),
            rel_degrees=[1],
        )
        n = parse_line_module(render_line_module(m))
        assert n.gen_degrees == m.gen_degrees
        assert n.relations == m.relations
        assert n.rel_degrees == m.rel_degrees

    def test_custom_vars_round_trip(self):
        m = GradedModuleP1([1], vars=("u", "v"))
        assert parse_line_module(render_line_module(m)).vars == ("u", "v")

    def test_generators_required(self):
        with pytest.raises(InputError, match="needs 'generators'"):
            parse_line_module("[module]\nvars = x, y\n")

    # no command reads a line-module file, so these refusals are met here
    @pytest.mark.parametrize("text, message", [
        ("[relations]\nrow = x\n", "a line-module file starts with a [module] section"),
        ("[module]\ngenerators = 0\n\n[roby]\ndegree = 2\n",
         "line 4: unexpected section [roby] in a module file"),
    ])
    def test_sections_enforced(self, text, message):
        with pytest.raises(InputError, match=re.escape(message)):
            parse_line_module(text)

    def test_duplicate_relations_rejected(self):
        text = (
            "[module]\ngenerators = 0\nrel_degrees = 1, 1\n\n"
            "[relations]\nrow = x, y\n\n[relations]\nrow = x, y\n"
        )
        with pytest.raises(InputError, match="duplicate \\[relations\\]"):
            parse_line_module(text)


QUADRIC_PIPELINE = """\
[pipeline]
seed = mf(x, y)
line = z2 -> 0

[algebra]
monogenic = z^2 - x*y - z2^2
var = z
"""


class TestPipelineFiles:
    def test_quadric_parse_and_run(self):
        spec = parse_pipeline(QUADRIC_PIPELINE)
        assert spec.ideal_vars == ("z2",)
        result = run_pipeline(spec)
        assert result.report.ok
        assert result.morphism.dim == 8

    def test_split_seed_expression(self):
        text = (
            "[pipeline]\nseed = split\nline =\n\n[algebra]\nsplit = 2\n"
        )
        spec = parse_pipeline(text)
        assert same_module(spec.seed, split_roby(2))

    def test_companion_seed_expression(self):
        text = (
            "[pipeline]\nseed = companion(z^2 - x*y, z, 2)\nline =\n\n"
            "[algebra]\nmonogenic = z^2 - x*y\nvar = z\n"
        )
        spec = parse_pipeline(text)
        assert spec.seed.dim == 4
        assert run_pipeline(spec).report.ok

    def test_builder_seeds_take_the_algebra_names(self):
        # z2 is a base variable, so the algebra names z^2 "z2_"; a module file
        # keeps its own names (test_cli has its refusal)
        text = (
            "[pipeline]\nseed = companion(z^3 - x^3 - y^3, z, 3)\nline = z2 -> 0\n\n"
            "[algebra]\nmonogenic = z^3 - x^3 - y^3 - z2^3\nvar = z\n"
            "duals = a, b, c\ntvar = s\n"
        )
        spec = parse_pipeline(text)
        assert spec.algebra.basis_names == ("1", "z", "z2_")
        assert spec.seed.action_names == spec.algebra.basis_names
        assert spec.seed.target_vars == ("a", "b", "c") and spec.seed.tvar == "s"

    def test_seed_file_reference(self, tmp_path):
        seed_path = tmp_path / "seed.roby"
        seed_path.write_text(render_roby_module(mf_seed("x", "y")))
        text = (
            "[pipeline]\nseed = seed.roby\nline = z2 -> 0\n\n"
            "[algebra]\nmonogenic = z^2 - x*y - z2^2\nvar = z\n"
        )
        spec = parse_pipeline(text, base_dir=tmp_path)
        assert run_pipeline(spec).report.ok

    def test_missing_seed_file_names_builders(self):
        text = "[pipeline]\nseed = nowhere.roby\nline =\n\n[algebra]\nsplit = 2\n"
        with pytest.raises(InputError, match="split, mf\\(f, g\\), companion"):
            parse_pipeline(text)

    def test_bad_binding_syntax(self):
        text = "[pipeline]\nseed = split\nline = z2 = 0\n\n[algebra]\nsplit = 2\n"
        with pytest.raises(InputError, match="z2 -> 0"):
            parse_pipeline(text)

    def test_duplicate_binding(self):
        text = (
            "[pipeline]\nseed = mf(x, y)\nline = z2 -> 0, z2 -> 0\n\n"
            "[algebra]\nmonogenic = z^2 - x*y - z2^2\nvar = z\n"
        )
        with pytest.raises(InputError, match="duplicate line binding"):
            parse_pipeline(text)


class TestConfigFiles:
    def test_defaults(self):
        assert parse_config("[config]\n") == Config()
        assert Config().out_dir is None

    def test_values(self):
        assert parse_config("[config]\nout_dir = out\n") == Config(out_dir="out")

    def test_single_section_enforced(self):
        with pytest.raises(InputError, match="exactly one \\[config\\]"):
            parse_config("[config]\n\n[algebra]\nsplit = 2\n")

    def test_window_padding_is_not_a_key(self):
        with pytest.raises(InputError, match="does not take a key 'degree_window_pad'"):
            parse_config("[config]\ndegree_window_pad = 0\n")


class TestSpecKind:
    def test_kinds(self):
        assert spec_kind(QUADRIC_PIPELINE) == "pipeline"
        assert spec_kind("[config]\n") == "config"
        assert spec_kind(render_algebra(split_algebra(2))) == "algebra"

    def test_empty_file(self):
        with pytest.raises(InputError, match="no sections"):
            spec_kind("# only a comment\n")


ROBY_HEAD = "[roby]\ndegree = 2\ngrading = 0, 1\ntarget = a^2\n\n"
ACTION = "[action a]\nrow = 0, 1\nrow = 1, 0\n"
SEEDED = "[pipeline]\nseed = {}\n\n[algebra]\nmonogenic = z^2 - x*y\nvar = z\n"
EXPLICIT = "[algebra]\nbasis = 1, e\nunit = 1, 0\n"
TABLE = "[table]\n1*1 = 1, 0\n1*e = 0, 1\ne*e = x, 0\n"

# every refusal of a spec file, and the two of roby build, as the command
# line sees it: (file text or None, argv with FILE for its path, message)
REFUSALS = [
    # section and pair grammar
    pytest.param("[algebra\nsplit = 2\n", ["charpoly", "FILE"],
                 "line 1: unterminated section header", id="unterminated header"),
    pytest.param("[ ]\nsplit = 2\n", ["charpoly", "FILE"],
                 "line 1: empty section header", id="empty header"),
    pytest.param("[algebra]\nsplit 2\n", ["charpoly", "FILE"],
                 "line 2: expected 'key = value', got 'split 2'", id="pair without ="),
    pytest.param("[algebra]\nsplit = 2\nsplit = 3\n", ["charpoly", "FILE"],
                 "[algebra] repeats the key 'split'", id="repeated key"),
    pytest.param("[algebra]\nsplit = 2\nduals = p,, q\n", ["charpoly", "FILE"],
                 "empty entry in the list 'p,, q'", id="empty list entry"),
    pytest.param("[algebra]\nsplit = two\n", ["charpoly", "FILE"],
                 "split rank must be an integer, got 'two'", id="not an integer"),
    # matrices
    pytest.param(ROBY_HEAD + ACTION + "col = 1, 0\n", ["roby", "verify", "FILE"],
                 "[action] takes only 'row = ...' lines, got 'col'", id="matrix key"),
    pytest.param(ROBY_HEAD + "[action a]\n", ["roby", "verify", "FILE"],
                 "[action] has no rows", id="matrix without rows"),
    # algebras
    pytest.param("[algebra]\nsplit = 2\n\n[unit]\n", ["charpoly", "FILE"],
                 "line 4: unexpected section [unit]", id="stray algebra section"),
    pytest.param(TABLE, ["charpoly", "FILE"],
                 "need exactly one [algebra] section", id="no algebra section"),
    pytest.param(EXPLICIT + "\n" + TABLE + "\n" + TABLE, ["charpoly", "FILE"],
                 "need at most one [table] section", id="two tables"),
    pytest.param("[algebra]\nsplit = 2\ndegrees = 0, 1\n", ["charpoly", "FILE"],
                 "'degrees' only applies to an explicit basis", id="degrees on a split"),
    pytest.param("[algebra]\nsplit = 2\n\n" + TABLE, ["charpoly", "FILE"],
                 "a split algebra takes no [table] section", id="table on a split"),
    pytest.param("[algebra]\nsplit = 2\nvar = z\n", ["charpoly", "FILE"],
                 "'var' only applies to a monogenic algebra", id="var on a split"),
    pytest.param(EXPLICIT + "var = z\n\n" + TABLE, ["charpoly", "FILE"],
                 "'var' only applies to a monogenic algebra", id="var on a basis"),
    pytest.param(EXPLICIT, ["charpoly", "FILE"],
                 "an explicit algebra needs a [table] section", id="basis without table"),
    pytest.param("[algebra]\nbasis = e, e\n\n[table]\ne*e = 1, 0\n", ["charpoly", "FILE"],
                 "duplicate basis name 'e'", id="duplicate basis name"),
    pytest.param(EXPLICIT + "\n" + TABLE.replace("e*e", "e+e"), ["charpoly", "FILE"],
                 "[table] keys are products 'a*b' over the basis, got 'e+e'",
                 id="table key not a product"),
    # modules
    pytest.param("[roby]\ndegree = 2\ngrading = 0, 1\n\n" + ACTION, ["roby", "verify", "FILE"],
                 "[roby] needs 'target'", id="module key missing"),
    pytest.param(ROBY_HEAD + ACTION + "\n[tslot]\nrow = 1\n\n[tslot]\nrow = 1\n",
                 ["roby", "verify", "FILE"], "duplicate [tslot] section", id="two tslots"),
    pytest.param(ROBY_HEAD + ACTION + "\n[pipeline]\nseed = split\n", ["roby", "verify", "FILE"],
                 "line 10: unexpected section [pipeline] in a module file",
                 id="stray module section"),
    # seeds and pipelines
    pytest.param(SEEDED.format("mf(x)"), ["pipeline", "FILE"],
                 "mf takes two factors and an optional variable", id="mf arity"),
    pytest.param(SEEDED.format("companion(z^2 - x*y, z)"), ["pipeline", "FILE"],
                 "companion takes a polynomial, a variable, and a degree", id="companion arity"),
    pytest.param("[algebra]\nsplit = 2\n", ["pipeline", "FILE"],
                 "a pipeline file starts with a [pipeline] section", id="pipeline head"),
    pytest.param(SEEDED.replace("seed = {}", "line = z2 -> 0"), ["pipeline", "FILE"],
                 "[pipeline] needs a seed", id="pipeline without seed"),
    pytest.param(None, ["roby", "build", "--kind", "mf", "--f", "x"],
                 "building a matrix-factorization module needs --f and --g", id="mf without g"),
    pytest.param(None, ["roby", "build", "--kind", "cyclic", "--poly", "z^2 - x"],
                 "building a cyclic-cover module needs --poly and --cover",
                 id="cyclic without cover"),
]


@pytest.mark.parametrize("text, argv, message", REFUSALS)
def test_refusal_exits_two(tmp_path, capsys, text, argv, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    # one error line is the whole of stderr, so no traceback was printed
    assert capsys.readouterr() == ("", f"error: {message}\n")
