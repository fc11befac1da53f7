"""Exit codes, output formats, and determinism of the command-line front end."""

import json

import pytest

from robyclif import cli
from robyclif.cli import main
from robyclif.matrix import PolyMatrix
from robyclif.report import comparable_dict
from robyclif.roby import GradedRobyModule
from robyclif.seeds import mf_seed, perturbed_split_algebra
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

    def test_bad_config_file(self, quadric_algebra_file, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("[algebra]\nsplit = 2\n")
        assert main(["--config", str(conf), "charpoly", quadric_algebra_file]) == 2
