"""Exit codes, output formats, and determinism of the command-line front end."""

import json

import pytest

from robyclif import cli
from robyclif.cli import main
from robyclif.matrix import PolyMatrix
from robyclif.report import comparable_dict
from robyclif.roby import GradedRobyModule
from robyclif.seeds import companion_matrix, cyclic_cover_seed, mf_seed, perturbed_split_algebra
from robyclif.specfile import render_algebra, render_roby_module

QUADRIC_ALGEBRA = "[algebra]\nmonogenic = z^2 - x*y - z2^2\nvar = z\n"

QUADRIC_PIPELINE = """\
[pipeline]
seed = mf(x, y)
line = z2 -> 0

[algebra]
monogenic = z^2 - x*y - z2^2
var = z
"""

CUBIC_PIPELINE = """\
[pipeline]
seed = companion(z^3 - x^3 - y^3, z, 3)
line = z2 -> 0

[algebra]
monogenic = z^3 - x^3 - y^3 - z2^3
var = z
"""


@pytest.fixture
def quadric_algebra_file(tmp_path):
    path = tmp_path / "quadric.algebra"
    path.write_text(QUADRIC_ALGEBRA)
    return str(path)


@pytest.fixture
def quadric_pipeline_file(tmp_path):
    path = tmp_path / "quadric.pipeline"
    path.write_text(QUADRIC_PIPELINE)
    return str(path)


class TestCharpoly:
    def test_text_output(self, quadric_algebra_file, capsys):
        assert main(["charpoly", quadric_algebra_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-G2^2*x*y - G2^2*z2^2 + G1^2 - 2*G1*t + t^2"

    def test_restrict(self, quadric_algebra_file, capsys):
        assert main(["charpoly", quadric_algebra_file, "--restrict", "z2 -> 0"]) == 0
        assert "z2" not in capsys.readouterr().out

    def test_json(self, quadric_algebra_file, capsys):
        assert main(["charpoly", quadric_algebra_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rank"] == 2
        assert data["tvar"] == "t"
        assert data["duals"] == ["G1", "G2"]

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["charpoly", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_coefficient_too_long_to_print_is_input_error(self, tmp_path, capsys, as_json):
        # (10^1000 - 1)^5 has 5000 digits, past Python's 4300-digit int-to-str limit
        path = tmp_path / "long.algebra"
        path.write_text("[algebra]\nmonogenic = z^2 - (" + "9" * 1000 + "*x)^5\nvar = z\n")
        assert main(["charpoly", str(path)] + (["--json"] if as_json else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 4300 decimal digits" in captured.err
        assert "Traceback" not in captured.err and "internal error" not in captured.err

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_zero_denominator_is_input_error(self, tmp_path, capsys, as_json):
        path = tmp_path / "zero.algebra"
        path.write_text("[algebra]\nmonogenic = z^2 - 1/0*x\nvar = z\n")
        assert main(["charpoly", str(path)] + (["--json"] if as_json else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the number '1/0' has a zero denominator" in captured.err
        assert "Traceback" not in captured.err and "internal error" not in captured.err

    def test_deep_nesting_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.algebra"
        deep = "(" * 3000 + "z^2 - x*y" + ")" * 3000
        path.write_text(f"[algebra]\nmonogenic = {deep}\nvar = z\n")
        assert main(["charpoly", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def test_power_above_the_term_cap_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "power.algebra"
        path.write_text("[algebra]\nmonogenic = z^2 - (x+y+z2+w+u)^20\nvar = z\n")
        assert main(["charpoly", str(path)]) == 2
        err = capsys.readouterr().err
        assert "may expand to 10626 terms, above the cap" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "poly, message",
        [
            ("z^2 - x^99999999999999*y", "power ^99999999999999 is above the exponent cap 1000"),
            ("z^2 - (3*x)^30000000", "power ^30000000 is above the exponent cap 1000"),
            ("z^2 - (x^2)^501", "gives exponent 1002, above the cap 1000"),
            ("z^2 - (x^2)^" + "9" * 4300, "is above the exponent cap 1000"),
            ("z^2 - (x+y+1)^" + "9" * 2200, "is above the exponent cap 1000"),
            ("z^2 - (" + "9" * 700 + "*x)^500", "-bit coefficient, above the cap 100000"),
            ("z^2 - x^" + "9" * 5000, "characters is too long"),
        ],
        ids=["exponent", "one-term base", "base exponent", "4300 digits", "2200 digits",
             "coefficient", "long number"],
    )
    def test_power_above_a_cap_is_input_error(self, tmp_path, capsys, poly, message):
        path = tmp_path / "power.algebra"
        path.write_text(f"[algebra]\nmonogenic = {poly}\nvar = z\n")
        assert main(["charpoly", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_unwritable_out_is_input_error(self, quadric_algebra_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" / "charpoly.txt"
        assert main(["charpoly", quadric_algebra_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_internal_error_exits_three(self, quadric_algebra_file, capsys, monkeypatch):
        def broken(args, config):
            raise RuntimeError("something broke")

        monkeypatch.setattr(cli, "_cmd_charpoly", broken)
        assert main(["charpoly", quadric_algebra_file]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: something broke\n"
        assert captured.out == ""

    def test_the_parser_is_built_once(self, quadric_algebra_file, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counted():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["charpoly", quadric_algebra_file]) == 0
            assert main(["cohom", "--table", "2"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == lines[1] == lines[2]


class TestRoby:
    def test_build_then_verify(self, tmp_path, capsys):
        out = tmp_path / "seed.roby"
        assert main(["roby", "build", "--kind", "mf", "--f", "x", "--g", "y",
                     "--out", str(out)]) == 0
        assert main(["roby", "verify", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS power_identity" in text
        assert "overall: PASS" in text

    def test_build_split(self, capsys):
        assert main(["roby", "build", "--kind", "split", "--degree", "3"]) == 0
        assert "[tslot]" in capsys.readouterr().out

    def test_build_cyclic(self, tmp_path, capsys):
        out = tmp_path / "cubic.roby"
        assert main(["roby", "build", "--kind", "cyclic", "--poly",
                     "z^3 - x^3 - y^3", "--cover", "3", "--out", str(out)]) == 0
        assert main(["roby", "verify", str(out)]) == 0

    def test_build_split_needs_degree(self, capsys):
        assert main(["roby", "build", "--kind", "split"]) == 2

    def test_verify_failure_exits_one(self, tmp_path, capsys):
        m = mf_seed("x", "y")
        actions = list(m.actions)
        actions[0] = PolyMatrix.zeros(4, 4)
        bad = GradedRobyModule(
            m.degree, m.grading, m.action_names, actions, m.target_poly,
            target_vars=m.target_vars, tslot=m.tslot, tvar=m.tvar,
        )
        path = tmp_path / "bad.roby"
        path.write_text(render_roby_module(bad))
        assert main(["roby", "verify", str(path)]) == 1
        text = capsys.readouterr().out
        assert "FAIL power_identity" in text
        assert "entry (0,0)" in text


    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_zero_denominator_cell_is_input_error(self, tmp_path, capsys, as_json):
        text = render_roby_module(mf_seed("x", "y"))
        assert "row = 0, " in text
        path = tmp_path / "zero.roby"
        path.write_text(text.replace("row = 0, ", "row = 1/0, ", 1))
        assert main(["roby", "verify", str(path)] + (["--json"] if as_json else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the number '1/0' has a zero denominator" in captured.err
        assert "Traceback" not in captured.err and "internal error" not in captured.err


class TestCharmor:
    def test_quadric_seed(self, tmp_path, capsys):
        path = tmp_path / "seed.roby"
        path.write_text(render_roby_module(mf_seed("x", "y")))
        assert main(["charmor", str(path)]) == 0
        text = capsys.readouterr().out
        assert "PASS cayley_hamilton" in text
        assert "matrices" in text

    def test_module_without_tslot_rejected(self, tmp_path, capsys):
        text = (
            "[roby]\ndegree = 2\ngrading = 0, 1\ntarget = G1^2 - 2*G1*t + t^2\n"
            "target_vars = G1, G2\n\n"
            "[action a]\nrow = 0, 1\nrow = 1, 0\n"
        )
        path = tmp_path / "flat.roby"
        path.write_text(text)
        assert main(["charmor", str(path)]) == 2


class TestPipeline:
    def test_quadric_end_to_end(self, quadric_pipeline_file, capsys):
        assert main(["pipeline", quadric_pipeline_file]) == 0
        text = capsys.readouterr().out
        assert "overall: PASS" in text
        assert "dim: 8" in text
        assert "mode: graded" in text
        assert "splitting_type: (0, 0, 0, 0, 0, 0, 0, 0)" in text

    def test_deterministic_modulo_timing(self, quadric_pipeline_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["pipeline", quadric_pipeline_file, "--json", "--out", str(a)]) == 0
        assert main(["pipeline", quadric_pipeline_file, "--json", "--out", str(b)]) == 0
        da = comparable_dict(json.loads(a.read_text()))
        db = comparable_dict(json.loads(b.read_text()))
        assert da == db

    def test_ungraded_mode_marked(self, tmp_path, capsys):
        text = "[pipeline]\nseed = split\nline = z2 -> 0\n\n" + render_algebra(
            perturbed_split_algebra("z2*x")
        )
        path = tmp_path / "perturbed.pipeline"
        path.write_text(text)
        assert main(["pipeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mode: ungraded" in out
        assert "dim: 16" in out

    def test_wrong_seed_fails_with_report(self, tmp_path, capsys):
        text = QUADRIC_PIPELINE.replace("mf(x, y)", "mf(x, x)")
        path = tmp_path / "wrong.pipeline"
        path.write_text(text)
        assert main(["pipeline", str(path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL seed_target" in captured.out
        assert "error:" in captured.err

    def test_assembly_above_the_cap_is_input_error(self, tmp_path, capsys):
        zs = [f"z{i}" for i in range(2, 11)]
        text = QUADRIC_PIPELINE.replace("z2 -> 0", ", ".join(f"{v} -> 0" for v in zs))
        text = text.replace("- z2^2", "- " + " - ".join(f"{v}^2" for v in zs))
        path = tmp_path / "wide.pipeline"
        path.write_text(text)
        assert main(["pipeline", str(path)]) == 2
        err = capsys.readouterr().err
        assert "dimension 2048" in err and "cap 1024" in err
        assert "Traceback" not in err

    def test_cubic_cover_with_a_companion_seed_reaches_the_cap(self, tmp_path, capsys):
        # the algebra names z^2 "z2_" (z2 is a base variable); the builder seed
        # takes that name, so the run gets as far as the assembly's cap
        path = tmp_path / "cubic.pipeline"
        path.write_text(CUBIC_PIPELINE)
        assert main(["pipeline", str(path)]) == 2
        err = capsys.readouterr().err
        assert "dimension 6561" in err and "6 deviation monomials" in err and "cap 1024" in err
        assert "Traceback" not in err

    def test_cubic_cover_with_a_seed_file_keeps_its_names(self, tmp_path, capsys):
        seed = cyclic_cover_seed(companion_matrix("z^3 - x^3 - y^3", "z"), 3)
        assert seed.action_names == ("1", "z", "z2")
        (tmp_path / "seed.roby").write_text(render_roby_module(seed))
        path = tmp_path / "byfile.pipeline"
        path.write_text(CUBIC_PIPELINE.replace("companion(z^3 - x^3 - y^3, z, 3)", "seed.roby"))
        assert main(["pipeline", str(path)]) == 2
        err = capsys.readouterr().err
        assert "source algebra basis does not match the action names" in err

    def test_algebra_variable_named_T(self, tmp_path, capsys):
        # the basis (1, T) shares a name with the T-slot of every module
        text = QUADRIC_PIPELINE.replace("mf(x, y)", "mf(x, y, T)").replace("z", "T")
        path = tmp_path / "t.pipeline"
        path.write_text(text.replace("T2", "z2"))
        assert main(["pipeline", str(path)]) == 0
        assert capsys.readouterr().out.endswith("overall: PASS\n")

    def test_seed_file_relative_to_spec(self, tmp_path, capsys):
        (tmp_path / "seed.roby").write_text(render_roby_module(mf_seed("x", "y")))
        text = QUADRIC_PIPELINE.replace("mf(x, y)", "seed.roby")
        path = tmp_path / "byfile.pipeline"
        path.write_text(text)
        assert main(["pipeline", str(path)]) == 0


class TestCohom:
    def test_table_aligned(self, capsys):
        assert main(["cohom", "--table", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["k", "0", "1", "2", "3"]
        assert lines[1].split() == ["h1", "4", "6", "6", "4"]

    def test_table_csv(self, capsys):
        assert main(["cohom", "--table", "2", "--csv"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0,2", "1,2"]

    def test_bidegree_json(self, capsys):
        assert main(["cohom", "--bidegree", "1", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["h0"], data["h1"], data["h2"]) == (2, 0, 0)
        assert data["chi"] == 2

    def test_ulrich_scan(self, capsys):
        assert main(["cohom", "--ulrich-scan", "2", "--csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        ulrich = [(int(r[0]), int(r[1])) for r in rows if r[3] == "Ulrich"]
        assert ulrich == [(0, 1), (1, 0)]

    def test_twists_runs_wlp(self, capsys):
        assert main(["cohom", "--twists", "3", "-2", "-6", "2"]) == 0
        text = capsys.readouterr().out
        assert "weak Lefschetz pattern" in text
        assert "overall: PASS" in text

    def test_failed_twists_csv_names_the_first_failed_check(self, capsys):
        assert main(["cohom", "--twists", "0", "3", "-6", "2", "--csv"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[3:5] == ["-3,2", "-2,2"]
        assert err == (
            "error: weak Lefschetz pattern failed: monotone_up_to_minus_two "
            "(h1 drops from i=-2 to i=-1)\n"
        )
        assert main(["cohom", "--twists", "3", "-2", "-6", "2", "--csv"]) == 0
        assert capsys.readouterr().err == ""

    def test_json_csv_conflict(self, capsys):
        assert main(["cohom", "--table", "2", "--json", "--csv"]) == 2

    def test_modes_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["cohom", "--table", "2", "--bidegree", "1", "0"])
        assert exc.value.code == 2


class TestNumerology:
    def test_monad(self, capsys):
        assert main(["numerology", "--monad", "1", "2", "2"]) == 0
        text = capsys.readouterr().out
        assert "(2, 6, 2)" in text
        assert "chi = 0" in text

    def test_ec(self, capsys):
        assert main(["numerology", "--ec", "1", "1", "2"]) == 0
        assert "8" in capsys.readouterr().out

    def test_beta_exact(self, capsys):
        assert main(["numerology", "--beta", "-3", "4", "--csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows == ["0,-3", "1,0", "2,3/4", "3,15/16", "4,63/64"]

    def test_beta_rational_start(self, capsys):
        assert main(["numerology", "--beta", "1/2", "2", "--csv"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0,1/2", "1,7/8", "2,31/32"]


class TestReport:
    def test_rerender_is_stable(self, quadric_pipeline_file, tmp_path, capsys):
        stored = tmp_path / "run.json"
        assert main(["pipeline", quadric_pipeline_file, "--json",
                     "--out", str(stored)]) == 0
        again = tmp_path / "again.json"
        assert main(["report", str(stored), "--json", "--out", str(again)]) == 0
        assert again.read_text() == stored.read_text()

    def test_failed_report_exits_one(self, tmp_path, capsys):
        data = {
            "schema_version": 1,
            "title": "stored",
            "ok": False,
            "checks": [{"name": "x", "ok": False, "required": True, "detail": ""}],
            "meta": {},
        }
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 1

    def test_garbage_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json")
        assert main(["report", str(path)]) == 2


# a module file whose t-variable or dual variable also occurs in a matrix
TVAR_IN_TSLOT = (
    "[roby]\ndegree = 2\ngrading = 0, 1\ntarget = t^2\ntvar = x\n\n"
    "[action a]\nrow = 0, 1\nrow = 0, 0\n\n[tslot]\nrow = 0, y\nrow = x, 0\n"
)
MF_T_IN_TSLOT = render_roby_module(mf_seed("x", "y")).replace(
    "[tslot]\nrow = 0, 0, 1, 0", "[tslot]\nrow = 0, 0, t - x + 1 + x, 0"
)

# a 1 x 1 module whose power identity writes the exponent `degree`
ROBY_1X1 = (
    "[roby]\ndegree = {degree}\ngrading = {grading}\ntarget = a\n\n[action a]\nrow = x + y\n"
)

HUGE = "9" * 2501
BAD_INPUTS = [
    # (file text or None, argv with FILE for its path, a piece of the message)
    ('{"checks": [{}]}', ["report", "FILE"], "stored check 1 is not an object"),
    ('{"checks": 5}', ["report", "FILE"], "a list of checks and a meta object"),
    ('{"meta": [1, 2]}', ["report", "FILE"], "a list of checks and a meta object"),
    (None, ["numerology", "--beta", "1", "x"], "step count must be a non-negative integer"),
    (None, ["numerology", "--beta", "1/0", "3"], "cannot read '1/0' as an exact rational"),
    ("[algebra]\nmonogenic = z^2 - zeta" + "9" * 5000 + "*x\nvar = z\n", ["charpoly", "FILE"],
     "zeta order of 5000 digits is too long"),
    ("[algebra]\nsplit = 200\n", ["charpoly", "FILE"], "algebra rank 200 exceeds the cap"),
    ("[algebra]\nmonogenic = z^300 - x\nvar = z\n", ["charpoly", "FILE"],
     "algebra rank 300 exceeds the cap"),
    (None, ["roby", "build", "--kind", "split", "--degree", "300"],
     "algebra rank 300 exceeds the cap"),
    (None, ["roby", "build", "--kind", "cyclic", "--poly", "z^2-x", "--cover", "3000"],
     "algebra rank 3000 exceeds the cap"),
    # Z^40 != q*I here, so only a rank check made before the power says why
    (None, ["roby", "build", "--kind", "cyclic", "--poly", "z^4-x*z^2-y", "--cover", "40"],
     "algebra rank 40 exceeds the cap"),
    (None, ["numerology", "--beta", "1/3", "10000"], "step count 10000 exceeds the cap of 1000"),
    (None, ["numerology", "--beta", "1e5000", "0"], "the interpreter's limit for printing"),
    (TVAR_IN_TSLOT, ["roby", "verify", "FILE"], "target variable 'x' of action T"),
    (MF_T_IN_TSLOT, ["roby", "verify", "FILE"], "target variable 't' of action T"),
    (MF_T_IN_TSLOT, ["charmor", "FILE"], "target variable 't' of action T"),
    # the degree cap admits 1000, so this file is refused by the next check
    (ROBY_1X1.format(degree=1000, grading="0, 0"), ["roby", "verify", "FILE"],
     "grading length must equal the module dimension"),
    (ROBY_1X1.format(degree=1001, grading="0"), ["roby", "verify", "FILE"],
     "Roby degree 1001 exceeds the cap of 1000"),
    (None, ["cohom", "--table", "100000000"], "twist family s = 100000000 exceeds the cap of 1000"),
    (None, ["cohom", "--ulrich-scan", "100000000"], "scan bound 100000000 exceeds the cap of 1000"),
    (None, ["cohom", "--ulrich-scan", "-3"], "the scan bound must be a non-negative integer"),
    (None, ["cohom", "--twists", "0", "0", "0", "100000000"],
     "twist index |hi| = 100000000 exceeds the cap of 1000"),
    # two twists, but the pattern check would walk from i = -3 up to the far end
    (None, ["cohom", "--twists", "0", "0", "100000000", "100000001"],
     "twist index |lo| = 100000000 exceeds the cap of 1000"),
    # a 2,501-digit number is read, but products of two pass the print limit
    (None, ["cohom", "--bidegree", HUGE, HUGE], "the interpreter's limit for printing"),
    (None, ["cohom", "--bidegree", HUGE, HUGE, "--json"], "the interpreter's limit for printing"),
    (None, ["cohom", "--bidegree", HUGE, HUGE, "--csv"], "the interpreter's limit for printing"),
    (None, ["cohom", "--twists", "-" + HUGE, HUGE, "0", "1"], "the interpreter's limit for printing"),
    (None, ["numerology", "--monad", HUGE, HUGE, "0"], "the interpreter's limit for printing"),
    (None, ["numerology", "--monad", HUGE, HUGE, "0", "--json"],
     "the interpreter's limit for printing"),
    (None, ["numerology", "--ec", HUGE, HUGE, HUGE], "the interpreter's limit for printing"),
    (None, ["numerology", "--ec", HUGE, HUGE, HUGE, "--json"],
     "the interpreter's limit for printing"),
    # only --beta has CSV output; the others are refused before any arithmetic
    (None, ["numerology", "--monad", "1", "2", "2", "--csv"],
     "numerology --monad has no CSV output; --beta is the only mode with one"),
    (None, ["numerology", "--ec", HUGE, HUGE, HUGE, "--csv"],
     "numerology --ec has no CSV output; --beta is the only mode with one"),
    # a binding of anything but a base variable would leave chi unrestricted
    # a builder seed of the wrong degree is refused before it is named
    (CUBIC_PIPELINE.replace("companion(z^3 - x^3 - y^3, z, 3)", "mf(x, y)"), ["pipeline", "FILE"],
     "seed degree 2 does not match the algebra rank 3"),
    (CUBIC_PIPELINE.replace("z^3 - x^3 - y^3, z, 3", "z^2 - x*y, z, 2"), ["pipeline", "FILE"],
     "seed degree 2 does not match the algebra rank 3"),
    (QUADRIC_ALGEBRA, ["charpoly", "FILE", "--restrict", "q -> 0"],
     "--restrict binding 'q -> 0' does not bind a base variable"),
    (QUADRIC_ALGEBRA, ["charpoly", "FILE", "--restrict", "q -> 0", "--json"],
     "--restrict binding 'q -> 0' does not bind a base variable"),
    (QUADRIC_ALGEBRA, ["charpoly", "FILE", "--restrict", "x*y -> 1"],
     "--restrict binding 'x*y -> 1' does not bind a base variable"),
    (QUADRIC_ALGEBRA, ["charpoly", "FILE", "--restrict", "z2 -> 0, x*y -> 1", "--json"],
     "--restrict binding 'x*y -> 1' does not bind a base variable"),
    # a built module has only its spec text, so --json is refused after the build's own checks
    (None, ["roby", "build", "--kind", "split", "--degree", "2", "--json"],
     "roby build writes a module spec file; it has no --json output"),
    (None, ["roby", "build", "--kind", "split", "--degree", "2", "--json", "--out", "FILE"],
     "roby build writes a module spec file; it has no --json output"),
]


@pytest.mark.parametrize(
    "text, argv, message",
    BAD_INPUTS,
    ids=["check without name", "checks not a list", "meta not an object", "steps not a number",
         "beta zero denominator", "long zeta order", "split rank", "monogenic rank",
         "split module rank", "cyclic cover rank", "cyclic cover rank before the power",
         "beta step cap", "beta too long to print", "tvar in the T-slot",
         "t in an mf T-slot", "t in an mf T-slot charmor", "roby degree at the cap",
         "roby degree cap", "h1 table cap", "ulrich scan cap",
         "negative ulrich scan", "twist range cap", "far twist range", "huge bidegree",
         "huge bidegree json", "huge bidegree csv", "huge twists", "huge monad",
         "huge monad json", "huge ec", "huge ec json", "monad csv", "ec csv",
         "mf seed degree", "companion seed degree", "restrict a stray variable",
         "restrict a stray variable json", "restrict a product", "restrict a product json",
         "roby build json", "roby build json out"],
)
def test_bad_input_exits_two(tmp_path, capsys, text, argv, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    assert path.exists() == (text is not None)  # a refused command writes no file
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "internal error" not in captured.err


class TestConfig:
    def test_out_dir_applies_to_relative_paths(self, quadric_algebra_file, tmp_path):
        conf = tmp_path / "conf"
        conf.write_text(f"[config]\nout_dir = {tmp_path / 'box'}\n")
        assert main(["--config", str(conf), "charpoly", quadric_algebra_file,
                     "--out", "chi.txt"]) == 0
        assert (tmp_path / "box" / "chi.txt").exists()

    def test_field_order_cap_is_not_a_config_key(self, quadric_pipeline_file,
                                                 tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("[config]\nfield_order_cap = 12\n")
        assert main(["--config", str(conf), "pipeline", quadric_pipeline_file]) == 2
        err = capsys.readouterr().err
        assert "does not take a key 'field_order_cap'" in err
        assert "Traceback" not in err

    def test_window_padding_is_not_a_config_key(self, quadric_pipeline_file,
                                                tmp_path, capsys):
        # the splitting-type scan derives its window from the presentation
        conf = tmp_path / "conf"
        conf.write_text("[config]\ndegree_window_pad = 0\n")
        assert main(["--config", str(conf), "pipeline", quadric_pipeline_file]) == 2
        assert capsys.readouterr() == (
            "", "error: [config] does not take a key 'degree_window_pad'\n"
        )

    def test_bad_config_file(self, quadric_algebra_file, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("[algebra]\nsplit = 2\n")
        assert main(["--config", str(conf), "charpoly", quadric_algebra_file]) == 2
