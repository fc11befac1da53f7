"""End-to-end pipeline runs on small covers, with hand-checked quotients."""

import json
import operator
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path

import pytest

from robyclif.cli import main

from robyclif.errors import InputError, VerificationError
from robyclif.freealg import FreeAlgebra, char_poly, monogenic_algebra
from robyclif.linegeom import _rank_of_rows, restrict_to_line
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import (
    MAX_ASSEMBLY_DIM,
    PipelineSpec,
    _quotients_match,
    deviation_monomials,
    run_pipeline,
)
from robyclif.poly import Poly, parse_poly
from robyclif.roby import (
    CharMorphism,
    Filtration,
    GradedRobyModule,
    char_morphism,
    split_roby,
    verify_filtered_pseudo,
)
from robyclif.scalars import exact_div, make_root
from robyclif.seeds import cyclic_cover_seed, mf_seed, perturbed_split_algebra
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
        chi0 = chi.substitute_base({"z2": 0})
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
        chi0 = chi.substitute_base({"z2": 0})
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
        chi0 = chi.substitute_base({"z2": 0})
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
        chi0 = chi.substitute_base({"z2": 0})
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

    @pytest.mark.slow
    def test_eight_branch_variables(self):
        # the top rung the assembly cap admits
        result = run_pipeline(multi_branch_spec(8))
        assert result.report.ok
        assert result.assembly.dim == MAX_ASSEMBLY_DIM == 1024
        assert result.report.meta["quotient_dims"] == [4 * comb(8, k) for k in range(9)]
        assert result.filtration.levels == tuple(range(9))

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


class TestQuotientsMatch:
    """Both refusals of the seed-block comparison, on the quadric's run."""

    def quadric_run(self):
        spec = quadric_spec()
        result = run_pipeline(spec)
        return result, restrict_to_line(char_morphism(result.seed), spec.line)

    def test_level_not_a_multiple_of_the_seed_dimension(self):
        result, seed_line = self.quadric_run()
        uneven = Filtration([0, 0, 0, 1, 1, 1, 1, 1]).quotients()
        assert _quotients_match(result.restricted, seed_line.matrices, uneven) == (
            False, "level 0 has dimension 3, not a multiple of the seed dimension 4"
        )

    def test_one_planted_wrong_entry(self):
        result, seed_line = self.quadric_run()
        level, idx = result.filtration.quotients()[1]
        m = result.restricted.matrices[1]
        rows = [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]
        rows[idx[0]][idx[1]] += 1
        matrices = [result.restricted.matrices[0], PolyMatrix.from_rows(rows)]
        tampered = CharMorphism(result.restricted.source, matrices, result.restricted.charpoly)
        quotients = result.filtration.quotients()
        assert _quotients_match(tampered, seed_line.matrices, quotients) == (
            False, f"level {level}: quotient of C(z) is not a seed block"
        )


class TestSeedOnTheLine:
    """The seed's C-matrices are compared after the line restriction."""

    def bound_seed_spec(self):
        # the mf seed of xy conjugated by [[1, z2], [0, 1]]: Z^2 = xy*I, and
        # Z holds z2, which the line binds
        alg = quadric_algebra()
        z = [["z2*y", "x - z2^2*y"], ["y", "-z2*y"]]
        seed = cyclic_cover_seed(z, 2, basis_names=alg.basis_names, dual_names=alg.dual_names)
        return PipelineSpec(alg, {"z2": 0}, seed)

    def test_a_seed_holding_a_bound_variable_passes(self):
        result = run_pipeline(self.bound_seed_spec())
        assert result.report.ok
        assert result.report.meta["dim"] == 8
        assert result.report.meta["quotient_dims"] == [4, 4]
        assert "z2" in char_morphism(result.seed).all_vars()

    def test_the_unrestricted_seed_matrices_are_not_its_blocks(self):
        result = run_pipeline(self.bound_seed_spec())
        quotients = result.filtration.quotients()
        unrestricted = char_morphism(result.seed).matrices
        assert _quotients_match(result.restricted, unrestricted, quotients) == (
            False, "level 0: quotient of C(z) is not a seed block"
        )


GOLDEN_SPECS = {
    **{f"multi_branch_spec({n})": partial(multi_branch_spec, n) for n in range(1, 6)},
    **{
        name: lambda name=name: parse_pipeline((ROOT / "demo" / name).read_text())
        for name in ("quadric.pipeline", "perturbed_split.pipeline")
    },
}


class TestOneRestriction:
    """Each golden run restricts its algebra once, and takes the laws as given."""

    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_one_unvalidated_restriction_equal_to_a_validated_rebuild(self, name, monkeypatch):
        spec = GOLDEN_SPECS[name]()
        # per FreeAlgebra.restrict call: its result, and the calls of
        # _validate and action_laws made inside it
        calls, counts = [], {"_validate": 0, "action_laws": 0}
        for law in counts:
            def counted(*args, _real=getattr(FreeAlgebra, law), _law=law):
                counts[_law] += 1
                return _real(*args)
            monkeypatch.setattr(FreeAlgebra, law, counted)
        restrict = FreeAlgebra.restrict

        def spied(self, bindings):
            before = dict(counts)
            out = restrict(self, bindings)
            calls.append((out, {k: counts[k] - before[k] for k in counts}))
            return out

        monkeypatch.setattr(FreeAlgebra, "restrict", spied)
        assert run_pipeline(spec).report.ok
        assert [made for _, made in calls] == [{"_validate": 0, "action_laws": 0}]
        out = calls[0][0]
        rebuilt = FreeAlgebra(
            out.basis_names,
            out.table,
            base_vars=out.base_vars,
            unit=out.unit,
            degrees=out.degrees,
            dual_names=out.dual_names,
            tvar=out.tvar,
        )
        assert out == rebuilt


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


# The three cover algebras of the benchmark's fat charpolys.
COVER_TEXTS = (
    "z^6 - x^6 - y^6 - z2^6",
    "z^5 - x*z^3 - y^2*z - x^5 - y^5 - z2^5",
    "z^6 - x*z^4 - y*z^3 - x^6 - y^6 - z2^6",
)


def test_integral_coefficients_are_stored_as_ints():
    result = run_pipeline(multi_branch_spec(3))
    matrices = [*result.assembly.actions, result.assembly.tslot]
    matrices += [*result.morphism.matrices, *result.restricted.matrices]
    types = {type(c) for m in matrices for t in m.data for c in t.values()}
    assert types == {int}
    for text in COVER_TEXTS:
        chi = char_poly(monogenic_algebra(parse_poly(text), "z"))
        assert {type(c) for c in chi.poly.terms.values()} == {int}, text


def test_no_float_in_results_or_json_output(tmp_path, capsys):
    # the packed key of the empty monomial is 0
    assert float_paths(PolyMatrix(1, 1, (), [{(): 0.5}])) == [".data[0][0]"]
    # divisions of integers: Poly / int, CycScalar inverses, exact_div, and a
    # rank whose float pivots (52/93 * 186 != 104) would miss the dependency
    scalars = [make_root(e) ** -1 for e in (3, 4, 5, 12)]
    scalars += [(2 - 3 * make_root(5)) ** -2, 1 / (1 + make_root(6))]
    scalars += [op(a, b) for a in (1, 3, Fraction(1, 2), make_root(3))
                for b in (2, 7, Fraction(2, 3), make_root(4))
                for op in (operator.add, operator.sub, operator.mul, exact_div)]
    assert float_paths([parse_poly("3*x + 2*y - 1") / 4, parse_poly("x") / 2, scalars]) == []
    assert _rank_of_rows([{0: 93, 1: 52, 2: 91}, {0: 186, 1: 104, 2: 182}]) == 1
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
