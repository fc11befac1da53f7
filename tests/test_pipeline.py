"""End-to-end pipeline runs on small covers, with hand-checked quotients."""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from robyclif.cli import main

from robyclif.errors import InputError, VerificationError
from robyclif.freealg import char_poly, monogenic_algebra, restrict_char_poly
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import (
    MAX_ASSEMBLY_DIM,
    PipelineSpec,
    deviation_monomials,
    run_pipeline,
)
from robyclif.poly import Poly, parse_poly
from robyclif.roby import (
    GradedRobyModule,
    char_morphism,
    split_roby,
    verify_filtered_pseudo,
)
from robyclif.seeds import mf_seed, perturbed_split_algebra
from robyclif.specfile import parse_pipeline, render_roby_module

ROOT = Path(__file__).resolve().parent.parent


def quadric_algebra():
    return monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z")


def quadric_spec():
    return PipelineSpec(quadric_algebra(), {"z2": 0}, mf_seed("x", "y"))


class TestDeviationMonomials:
    def test_quadric_gives_one_monomial(self):
        alg = quadric_algebra()
        chi = char_poly(alg)
        chi0 = restrict_char_poly(chi, {"z2": 0})
        specs = deviation_monomials(chi, chi0, alg, ("z2",))
        assert len(specs) == 1
        spec = specs[0]
        assert spec.t_exp == 0
        assert spec.dual_indices == (2, 2)
        assert spec.factors == (parse_poly("-z2"), parse_poly("z2"))

    def test_monomial_values_cover_the_deviation(self):
        # cubic cover: several monomials, mixed dual indices and slot degrees
        alg = monogenic_algebra(parse_poly("z^3 - x^3 - y^3 - z2^3"), "z")
        chi = char_poly(alg)
        chi0 = restrict_char_poly(chi, {"z2": 0})
        specs = deviation_monomials(chi, chi0, alg, ("z2",))
        assert specs
        total = Poly.zero()
        for spec in specs:
            total = total + spec.value(alg.dual_names, alg.tvar)
            last = spec.factors[-1]
            assert not last.substitute({"z2": 0})
            for c, k in zip(spec.factors, spec.dual_indices):
                assert c.homogeneous_degree() == alg.degrees[k - 1]
        assert total == chi.poly - chi0.poly

    def test_no_deviation_no_monomials(self):
        alg = monogenic_algebra(parse_poly("z^2 - x*y"), "z")
        chi = char_poly(alg)
        assert deviation_monomials(chi, chi, alg, ()) == ()

    def test_ungraded_coefficient_rides_on_the_last_factor(self):
        alg = perturbed_split_algebra("z2*x")
        chi = char_poly(alg)
        chi0 = restrict_char_poly(chi, {"z2": 0})
        specs = deviation_monomials(chi, chi0, alg, ("z2",))
        assert len(specs) == 3
        one = Poly.const(1)
        for spec in specs:
            assert all(c == one for c in spec.factors[:-1])
            assert not spec.factors[-1].substitute({"z2": 0})
        assert sorted(spec.dual_indices for spec in specs) == [
            (1, 1),
            (1, 2),
            (2, 2),
        ]

    def test_graded_slot_degree_mismatch_is_rejected(self):
        from robyclif.freealg import CharPoly

        alg = monogenic_algebra(parse_poly("z^2 - x*y"), "z")
        chi = CharPoly(2, parse_poly("t^2 - G2^2*z2"), "t", ("G1", "G2"))
        chi0 = restrict_char_poly(chi, {"z2": 0})
        with pytest.raises(InputError, match="graded decomposition mismatch"):
            deviation_monomials(chi, chi0, alg, ("z2",))

    def test_monomial_outside_the_ideal_is_rejected(self):
        from robyclif.freealg import CharPoly

        alg = monogenic_algebra(parse_poly("z^2 - x*y"), "z")
        chi = CharPoly(2, parse_poly("t^2 - G2^2*x*y"), "t", ("G1", "G2"))
        chi0 = CharPoly(2, parse_poly("t^2"), "t", ("G1", "G2"))
        with pytest.raises(InputError, match="no coefficient factor lies in the line ideal"):
            deviation_monomials(chi, chi0, alg, ("z2",))


class TestQuadricPipeline:
    def test_every_stage_passes(self):
        result = run_pipeline(quadric_spec())
        assert result.report.ok
        assert result.assembly.dim == 8
        assert len(result.monomials) == 1
        assert result.report.meta["mode"] == "graded"
        assert result.report.meta["dim"] == 8
        assert result.assembly.target_poly == result.chi.poly

    def test_report_covers_the_whole_contract(self):
        result = run_pipeline(quadric_spec())
        names = [c.name for c in result.report.checks]
        assert names == [
            "seed_target",
            "seed_graded",
            "seed_power_identity",
            "decomposition_covers_deviation",
            "decomposition_in_ideal",
            "assembly_graded",
            "assembly_power_identity",
            "morphism_cayley_hamilton",
            "morphism_unit",
            "morphism_multiplicativity",
            "restricted_flags_preserved",
            "restricted_quotient_unit",
            "restricted_quotient_multiplicativity",
            "quotients_match_seed",
        ]

    def test_quotients_equal_the_seed_c_matrices(self):
        result = run_pipeline(quadric_spec())
        assert result.filtration.levels == (0, 1)
        quotients = result.filtration.quotients()
        assert [len(idx) for _, idx in quotients] == [4, 4]
        seed_cm = char_morphism(result.seed)
        for _, idx in quotients:
            for big, small in zip(result.restricted.matrices, seed_cm.matrices):
                assert big.submatrix(idx, idx) == small

    def test_restriction_is_the_seed_doubled(self):
        # both deviation factors vanish on the line, so the restricted
        # morphism is exactly C_seed tensor the identity, not just blockwise
        result = run_pipeline(quadric_spec())
        seed_cm = char_morphism(result.seed)
        eye = PolyMatrix.identity(2)
        for big, small in zip(result.restricted.matrices, seed_cm.matrices):
            assert big == small.kron(eye)

    def test_unrestricted_morphism_leaks_through_the_flags(self):
        result = run_pipeline(quadric_spec())
        report = verify_filtered_pseudo(result.morphism, result.filtration)
        assert not report.ok
        assert report.first_failure().name == "flags_preserved"


class TestTrivialPipeline:
    def test_no_extra_variables_yields_the_lifted_seed(self):
        alg = monogenic_algebra(parse_poly("z^2 - x*y"), "z")
        spec = PipelineSpec(alg, {}, mf_seed("x", "y"))
        result = run_pipeline(spec)
        assert result.report.ok
        assert result.monomials == ()
        assert result.assembly.dim == 4
        assert result.filtration.levels == (0,)
        assert result.chi.poly == result.chi_line.poly
        seed_cm = char_morphism(result.seed)
        for big, small in zip(result.restricted.matrices, seed_cm.matrices):
            assert big == small


def multi_branch_spec(n):
    """Quadric cover whose branch divisor uses n off-line variables."""
    zs = [f"z{i}" for i in range(2, 2 + n)]
    p = "z^2 - x*y - " + " - ".join(f"{v}^2" for v in zs)
    alg = monogenic_algebra(parse_poly(p), "z")
    return PipelineSpec(alg, {v: 0 for v in zs}, mf_seed("x", "y"))


class TestMultiMonomialPipeline:
    def test_three_branch_variables(self):
        result = run_pipeline(multi_branch_spec(3))
        assert result.report.ok
        assert len(result.monomials) == 3
        assert result.assembly.dim == 32
        # binomial level sizes times the 4-dim seed
        assert result.report.meta["quotient_dims"] == [4, 12, 12, 4]
        seed_cm = char_morphism(result.seed).substitute_base(
            {f"z{i}": Poly.zero() for i in range(2, 5)}
        )
        eye = PolyMatrix.identity(8)
        for big, small in zip(result.restricted.matrices, seed_cm.matrices):
            assert big == small.kron(eye)

    @pytest.mark.slow
    def test_six_branch_variables(self):
        result = run_pipeline(multi_branch_spec(6))
        assert result.report.ok
        assert result.assembly.dim == 256
        assert result.report.meta["quotient_dims"] == [4, 24, 60, 80, 60, 24, 4]
        assert result.filtration.levels == tuple(range(7))

    @pytest.mark.slow
    def test_seven_branch_variables(self):
        result = run_pipeline(multi_branch_spec(7))
        assert result.report.ok
        assert result.assembly.dim == 512
        assert result.report.meta["quotient_dims"] == [4 * comb(7, k) for k in range(8)]
        assert result.filtration.levels == tuple(range(8))

    def test_assembly_above_the_cap_is_rejected_before_tensor_work(self):
        # 4 * 2^9 = 2048 > MAX_ASSEMBLY_DIM
        with pytest.raises(InputError, match=f"dimension 2048 .* above the cap {MAX_ASSEMBLY_DIM}"):
            run_pipeline(multi_branch_spec(9))


class TestUngradedPipeline:
    def test_perturbed_split_cover(self):
        alg = perturbed_split_algebra("z2*x")
        spec = PipelineSpec(alg, {"z2": 0}, split_roby(2))
        result = run_pipeline(spec)
        assert result.report.ok
        assert result.report.meta["mode"] == "ungraded"
        assert result.assembly.dim == 16
        assert len(result.monomials) == 3
        # three two-dimensional factors: binomial level sizes times the seed
        assert result.report.meta["quotient_dims"] == [2, 6, 6, 2]
        assert result.filtration.levels == (0, 1, 2, 3)

    def test_quotients_are_split_diagonal_units(self):
        alg = perturbed_split_algebra("z2*x")
        spec = PipelineSpec(alg, {"z2": 0}, split_roby(2))
        result = run_pipeline(spec)
        seed_cm = char_morphism(result.seed)
        for _, idx in result.filtration.quotients():
            eye = PolyMatrix.identity(len(idx) // 2)
            for big, small in zip(result.restricted.matrices, seed_cm.matrices):
                assert big.submatrix(idx, idx) == small.kron(eye)


class TestPipelineErrors:
    def test_seed_with_the_wrong_target_fails_verification(self):
        spec = PipelineSpec(quadric_algebra(), {"z2": 0}, mf_seed("x", "x"))
        with pytest.raises(VerificationError, match="seed_target"):
            run_pipeline(spec)
        try:
            run_pipeline(spec)
        except VerificationError as err:
            assert not err.report.get("seed_target").ok

    def test_corrupted_seed_fails_the_power_identity(self):
        seed = mf_seed("x", "y")
        broken = GradedRobyModule(
            seed.degree,
            seed.grading,
            seed.action_names,
            [PolyMatrix.zeros(4, 4), seed.actions[1]],
            seed.target_poly,
            target_vars=seed.target_vars,
            tslot=seed.tslot,
            tvar=seed.tvar,
        )
        spec = PipelineSpec(quadric_algebra(), {"z2": 0}, broken)
        with pytest.raises(VerificationError, match="seed_power_identity"):
            run_pipeline(spec)

    def test_seed_names_must_match_the_algebra(self):
        with pytest.raises(InputError, match="basis does not match"):
            run_pipeline(PipelineSpec(quadric_algebra(), {"z2": 0}, split_roby(2)))

    def test_line_bindings_must_be_zero(self):
        with pytest.raises(InputError, match="coordinate line"):
            PipelineSpec(quadric_algebra(), {"z2": "x"}, mf_seed("x", "y"))

    def test_line_bindings_must_cover_the_extra_variables(self):
        with pytest.raises(InputError, match="must cover exactly"):
            PipelineSpec(quadric_algebra(), {}, mf_seed("x", "y"))

    def test_form_seeds_are_rejected(self):
        seed = mf_seed("x", "y")
        form_flavor = GradedRobyModule(
            2,
            seed.grading,
            ("x", "y"),
            [seed.actions[0], seed.actions[1]],
            parse_poly("x*y"),
        )
        with pytest.raises(InputError, match="T-slot"):
            PipelineSpec(quadric_algebra(), {"z2": 0}, form_flavor)

    def test_seed_degree_must_match_the_rank(self):
        alg = monogenic_algebra(parse_poly("z^3 - x^3 - y^3"), "z")
        with pytest.raises(InputError, match="seed degree 2"):
            PipelineSpec(alg, {}, mf_seed("x", "y"))


def float_paths(obj, path="", seen=None):
    """Where floats hide in obj: containers, dict keys, slots and attributes."""
    if isinstance(obj, float):
        return [path]
    seen = set() if seen is None else seen
    if obj is None or isinstance(obj, (bool, int, str, Fraction)) or id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, dict):
        children = [(f"{path}[{k!r}]", v) for k, v in obj.items()]
        children += [(f"{path} key {k!r}", k) for k in obj]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    else:
        names = [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
        names += list(getattr(obj, "__dict__", {}))
        children = [(f"{path}.{n}", getattr(obj, n)) for n in names if hasattr(obj, n)]
    return [p for child_path, child in children for p in float_paths(child, child_path, seen)]


def test_no_float_in_results_or_json_output(tmp_path, capsys):
    assert float_paths(PolyMatrix(1, 1, (), [{(): 0.5}])) == [".data[0][()]"]
    demos = sorted((ROOT / "demo").glob("*.pipeline"))
    assert len(demos) == 2
    results = {"multi_branch_spec(3)": run_pipeline(multi_branch_spec(3))}
    for path in demos:
        results[path.name] = run_pipeline(parse_pipeline(path.read_text(), base_dir=path.parent))
    for name, result in results.items():
        assert float_paths(result) == [], name
    seed = tmp_path / "seed.roby"
    seed.write_text(render_roby_module(mf_seed("x", "y")))
    commands = [["pipeline", str(p)] for p in demos]
    commands += [["charmor", str(seed)], ["charpoly", str(ROOT / "demo" / "quadric.algebra")]]
    for argv in commands:
        assert main(argv + ["--json"]) == 0, argv
        assert float_paths(json.loads(capsys.readouterr().out)) == [], argv
