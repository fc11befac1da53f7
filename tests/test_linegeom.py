"""Hilbert functions, splitting types, and line restriction."""

import time

import pytest

from robyclif import linegeom
from robyclif.errors import InputError
from robyclif.freealg import char_poly
from robyclif.linegeom import (
    MAX_SCAN_PAST,
    MAX_SCAN_SPREAD,
    GradedModuleP1,
    SplittingType,
    hilbert_function,
    is_ulrich_on_embedded_curve,
    restrict_to_line,
    splitting_type,
    underlying_line_module,
)
from robyclif.matrix import PolyMatrix
from robyclif.poly import Poly, parse_poly
from robyclif.roby import CharMorphism, char_morphism
from robyclif.seeds import mf_seed, perturbed_split_algebra


def coker(gen_degrees, rows, **kw):
    return GradedModuleP1(gen_degrees, PolyMatrix.from_rows(rows), **kw)


def timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class TestHilbertFunction:
    def test_free_rank_one(self):
        m = GradedModuleP1.free([0])
        assert hilbert_function(m, -2, 3) == {-2: 0, -1: 0, 0: 1, 1: 2, 2: 3, 3: 4}

    def test_twisted_free(self):
        m = GradedModuleP1.free([2])
        assert hilbert_function(m, 1, 4) == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_structure_sheaf_of_a_point(self):
        m = coker([0], [["x"]])
        assert hilbert_function(m, -1, 2) == {-1: 0, 0: 1, 1: 1, 2: 1}

    def test_two_generators_no_relations(self):
        m = GradedModuleP1.free([1, -1])
        assert hilbert_function(m, 0, 0) == {0: 2}

    def test_redundant_generator(self):
        # (y, 1) eliminates the second generator; what is left is free of rank 1
        m = coker([0, 1], [["y"], [1]])
        assert hilbert_function(m, -1, 3) == {-1: 0, 0: 1, 1: 2, 2: 3, 3: 4}

    def test_empty_range_rejected(self):
        with pytest.raises(InputError, match="range"):
            hilbert_function(GradedModuleP1.free([0]), 2, 1)

    def test_each_nonzero_entry_is_decoded_once_per_call(self, monkeypatch):
        m = coker([0, 0, 1], [["x", "y^2"], ["y", "-x^2"], [0, "x + y"]])
        decoded = []
        real = PolyMatrix.entry

        def counted(self, i, j):
            decoded.append((i, j))
            return real(self, i, j)

        monkeypatch.setattr(PolyMatrix, "entry", counted)
        h = hilbert_function(m, -1, 6)
        assert sorted(decoded) == [(i, j) for i, j, _ in m.relations.nonzeros()]
        assert h == {-1: 0, 0: 2, 1: 4, 2: 5, 3: 6, 4: 7, 5: 8, 6: 9}


class TestSplittingType:
    def test_free_module_reads_off_generators(self):
        assert splitting_type(GradedModuleP1.free([0, 0])).twists == (0, 0)
        assert splitting_type(GradedModuleP1.free([1, -1])).twists == (1, -1)
        assert splitting_type(GradedModuleP1.free([3, -2])).twists == (2, -3)

    def test_printed_ascending(self):
        assert str(splitting_type(GradedModuleP1.free([1, -1]))) == "(-1, 1)"
        assert str(SplittingType((2, -3))) == "(-3, 2)"

    def test_distinguishes_balanced_from_split_pair(self):
        # both have the same rank and first Chern class
        assert splitting_type(GradedModuleP1.free([0, 0])).twists == (0, 0)
        assert splitting_type(GradedModuleP1.free([-1, 1])).twists == (1, -1)

    def test_redundant_presentation_of_free(self):
        m = coker([0, 1], [["y"], [1]])
        s = splitting_type(m)
        assert s.twists == (0,)
        assert s.rank == 1

    def test_cyclotomic_relation_entries(self):
        m = coker([0, 1], [["zeta3*y"], [1]])
        assert splitting_type(m).twists == (0,)

    def test_direct_sum_is_multiset_union(self):
        # free([1, -1]) beside coker([0, 1], [[y], [1]]), as one block presentation
        m = coker([1, -1, 0, 1], [["0"], ["0"], ["y"], ["1"]])
        assert m.rel_degrees == (1,)
        s = splitting_type(m)
        assert s.twists == (1, 0, -1)

    @staticmethod
    def block_sum(*modules):
        # one presentation with the blocks' relations side by side
        gens = [g for m in modules for g in m.gen_degrees]
        rows, col = [], 0
        for m in modules:
            for r in range(m.ngens):
                row = ["0"] * col + [str(m.relations.entry(r, c)) for c in range(m.nrels)]
                rows.append(row)
            col += m.nrels
        rows = [row + ["0"] * (col - len(row)) for row in rows]
        rel_degrees = [d for m in modules for d in m.rel_degrees]
        return GradedModuleP1(gens, PolyMatrix.from_rows(rows) if col else None,
                              rel_degrees=rel_degrees)

    def test_block_sums_are_multiset_unions(self):
        blocks = [
            GradedModuleP1.free([1, -1]),
            GradedModuleP1.free([0]),
            coker([0, 1], [["y"], [1]]),
            coker([0, 1], [["zeta3*y"], [1]]),
            coker([2, 3], [["x"], ["1"]]),
            coker([-1, 1], [["x^2"], ["1"]]),
            GradedModuleP1.free([3, -2]),
        ]
        twists = [splitting_type(b).twists for b in blocks]
        for i, a in enumerate(blocks):
            for j, b in enumerate(blocks):
                s = splitting_type(self.block_sum(a, b))
                assert s.twists == tuple(sorted(twists[i] + twists[j], reverse=True)), (i, j)

    def test_hand_built_block_sum_matches_the_blocks(self):
        m = self.block_sum(GradedModuleP1.free([1, -1]), coker([0, 1], [["y"], [1]]))
        assert m.gen_degrees == (1, -1, 0, 1)
        assert m.rel_degrees == (1,)
        assert m.relations == PolyMatrix.from_rows([["0"], ["0"], ["y"], ["1"]])

    def test_torsion_in_one_block_is_rejected(self):
        m = self.block_sum(GradedModuleP1.free([0, 2]), coker([0], [["x"]]))
        with pytest.raises(InputError, match="torsion"):
            splitting_type(m)

    def test_torsion_is_rejected(self):
        with pytest.raises(InputError, match="torsion"):
            splitting_type(coker([0], [["x"]]))

    def test_nilpotent_thickening_is_rejected(self):
        with pytest.raises(InputError, match="torsion"):
            splitting_type(coker([0], [["x^2"]]))

    def test_unsaturated_presentation_is_rejected(self):
        # coker of (x, -y): the sheaf is O(1) but the module misses its
        # degree -1 section
        with pytest.raises(InputError, match="torsion or missing saturation"):
            splitting_type(coker([0, 0], [["x"], ["-y"]]))

    @pytest.mark.parametrize("gen, relation", [(-10, "x^15"), (-4, "x^4")])
    def test_torsion_above_a_negative_generator_is_rejected(self, gen, relation):
        # the increment drops only at the relation's degree K0, far above
        # the generator's
        with pytest.raises(InputError, match="torsion or missing saturation"):
            splitting_type(coker([gen], [[relation]]))

    def test_relation_above_every_generator_is_scanned(self):
        # S/(x, y^2) + S(-1): the increment reaches the rank 1 at the top
        # generator degree 1 and drops at the relation y^2 in degree 2
        with pytest.raises(InputError, match="drops from 1 to 0 at degree 2"):
            splitting_type(coker([0, 1], [["x", "y^2"], [0, 0]]))

    def test_scan_runs_past_k0_until_the_rank(self):
        # k + S(-1)^2: K0 = 1, but the syzygy (y, -x) of the two relations
        # lies in degree 2, where the increment first reaches the rank 2.
        # The sheaf is O(-1)^2; the Hilbert function cannot see the torsion,
        # so this twist pair is a known defect, pinned as it is
        m = coker([0, 1, 1], [["x", "y"], [0, 0], [0, 0]], rel_degrees=[1, 1])
        assert splitting_type(m).twists == (0, -2)

    def test_free_module_scans_one_degree(self, monkeypatch):
        m = GradedModuleP1.free([0] * 1024)
        calls = []
        real = linegeom._rank_of_rows
        monkeypatch.setattr(linegeom, "_rank_of_rows", lambda rows: calls.append(1) or real(rows))
        assert splitting_type(m).twists == (0,) * 1024
        assert len(calls) == 1
        monkeypatch.undo()
        best = min(timed(splitting_type, m) for _ in range(5))
        assert best <= 0.005, f"free rank-1024 scan took {best * 1e3:.1f} ms"


class TestScanCap:
    @staticmethod
    def syzygy_at_twice(d):
        """Columns (x^d, 0, 0), (y^d, 0, 0) on generators 0, d, d: syzygy at 2d."""
        x, y = Poly(("x", "y"), {(d, 0): 1}), Poly(("x", "y"), {(0, d): 1})
        zero = Poly.zero()
        return GradedModuleP1([0, d, d], PolyMatrix.from_rows([[x, y], [zero, zero], [zero, zero]]))

    def test_at_the_cap(self):
        d = MAX_SCAN_PAST
        assert splitting_type(self.syzygy_at_twice(d)).twists == (0, -2 * d)

    def test_past_the_cap_is_refused_quickly(self):
        d = MAX_SCAN_PAST + 1
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"{MAX_SCAN_PAST} degrees past .* degree {d}"):
            splitting_type(self.syzygy_at_twice(d))
        assert time.perf_counter() - start < 1.0


class TestSpreadCap:
    """The scan covers top - lo degrees up to K0, lo one below the least generator."""

    def test_at_the_cap(self):
        low = 1 - MAX_SCAN_SPREAD  # lo = -MAX_SCAN_SPREAD, K0 = 0
        assert splitting_type(GradedModuleP1.free([low, 0])).twists == (-low, 0)
        # relations x and y on the lowest generator stay active over the scan
        m = coker([low, low + 1, low + 1, 0], [["x", "y"], [0, 0], [0, 0], [0, 0]])
        assert splitting_type(m).twists == (-low, -low - 2, 0)

    @pytest.mark.parametrize(
        "module",
        [
            lambda: GradedModuleP1.free([-MAX_SCAN_SPREAD, 0]),
            lambda: GradedModuleP1.free([-200000, 0]),
            # the span reaches K0 through a relation degree
            lambda: coker([0, 0], [[f"x^{MAX_SCAN_SPREAD}"], [f"y^{MAX_SCAN_SPREAD}"]]),
        ],
    )
    def test_past_the_cap_is_refused_before_the_scan(self, module, monkeypatch):
        m = module()
        monkeypatch.setattr(linegeom, "_hilbert_from", lambda *a: pytest.fail("the scan started"))
        with pytest.raises(InputError, match=f"over \\d+ degrees.*above the cap {MAX_SCAN_SPREAD}"):
            splitting_type(m)

    def test_one_past_the_cap_names_its_span(self):
        with pytest.raises(InputError, match=f"over {MAX_SCAN_SPREAD + 1} degrees, from "):
            splitting_type(GradedModuleP1.free([-MAX_SCAN_SPREAD, 0]))


class TestModuleValidation:
    def test_inhomogeneous_entry(self):
        with pytest.raises(InputError, match="homogeneous"):
            coker([0], [["x + x^2"]])

    def test_degree_mismatch_against_explicit_degrees(self):
        with pytest.raises(InputError, match="degree"):
            coker([0], [["x"]], rel_degrees=[2])

    def test_zero_column_needs_explicit_degree(self):
        with pytest.raises(InputError, match="zero"):
            coker([0], [[0]])
        m = coker([0], [[0]], rel_degrees=[1])
        assert splitting_type(m).twists == (0,)

    def test_foreign_variables_rejected(self):
        with pytest.raises(InputError, match="non-line"):
            coker([0], [["z2"]])

    def test_row_count_must_match_generators(self):
        with pytest.raises(InputError, match="rows"):
            coker([0, 0], [["x"]])

    def test_needs_a_generator(self):
        with pytest.raises(InputError, match="generator"):
            GradedModuleP1([])


class TestUlrich:
    def test_over_the_line(self):
        assert is_ulrich_on_embedded_curve(splitting_type(GradedModuleP1.free([0, 0, 0])), 1)
        assert not is_ulrich_on_embedded_curve(splitting_type(GradedModuleP1.free([1, -1])), 1)
        assert not is_ulrich_on_embedded_curve(splitting_type(GradedModuleP1.free([1])), 1)

    def test_on_an_embedded_curve(self):
        assert is_ulrich_on_embedded_curve(SplittingType((1, 1)), 2)
        assert not is_ulrich_on_embedded_curve(SplittingType((1, 0)), 2)
        assert not is_ulrich_on_embedded_curve(SplittingType((2, 2)), 2)
        # on a line the two notions agree
        assert is_ulrich_on_embedded_curve(SplittingType((0, 0)), 1)

    def test_curve_degree_validated(self):
        with pytest.raises(InputError, match="positive"):
            is_ulrich_on_embedded_curve(SplittingType((0,)), 0)


class TestRestrictToLine:
    def quadric_morphism(self):
        return char_morphism(mf_seed("x", "y"))

    def perturbed_morphism(self):
        algebra = perturbed_split_algebra("z2*x")
        ident = PolyMatrix.identity(2)
        return CharMorphism(algebra, [ident, ident], char_poly(algebra))

    def test_empty_binding_set_when_already_on_the_line(self):
        cm = self.quadric_morphism()
        restricted = restrict_to_line(cm, {})
        assert restricted.matrices == cm.matrices

    def test_substitutes_linear_forms(self):
        cm = self.perturbed_morphism()
        restricted = restrict_to_line(cm, {"z2": "x + y"})
        assert restricted.source.base_vars == ("x", "y")
        assert restricted.charpoly.poly == cm.charpoly.poly.substitute({"z2": parse_poly("x + y")})

    def test_zero_binding_allowed(self):
        restricted = restrict_to_line(self.perturbed_morphism(), {"z2": 0})
        assert restricted.charpoly.poly == char_poly(perturbed_split_algebra(0)).poly

    def test_rejects_nonlinear_binding(self):
        with pytest.raises(InputError, match="linear form"):
            restrict_to_line(self.perturbed_morphism(), {"z2": "x*y"})

    def test_rejects_constant_binding(self):
        with pytest.raises(InputError, match="linear form"):
            restrict_to_line(self.perturbed_morphism(), {"z2": 1})

    def test_rejects_touching_line_variables(self):
        with pytest.raises(InputError, match="touch"):
            restrict_to_line(self.perturbed_morphism(), {"x": "y", "z2": 0})

    def test_rejects_incomplete_cover(self):
        with pytest.raises(InputError, match="exactly"):
            restrict_to_line(self.perturbed_morphism(), {})

    def test_rejects_extra_bindings(self):
        with pytest.raises(InputError, match="exactly"):
            restrict_to_line(self.perturbed_morphism(), {"z2": 0, "q": 0})


class TestUnderlyingModule:
    def test_free_of_the_morphism_dimension(self):
        cm = char_morphism(mf_seed("x", "y"))
        m = underlying_line_module(cm)
        assert m.gen_degrees == (0, 0, 0, 0)
        assert m.nrels == 0
        assert splitting_type(m).twists == (0, 0, 0, 0)
        assert is_ulrich_on_embedded_curve(splitting_type(m), 1)
