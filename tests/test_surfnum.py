"""Closed-form cohomology on the quadric surface and the numeric helpers."""

from fractions import Fraction

import pytest

from robyclif.errors import InputError
from robyclif.surfnum import (
    MAX_BETA_STEPS,
    MAX_TABLE_BOUND,
    BundleNumerics,
    UlrichClass,
    beta_sequence,
    ec_tensor,
    monad_shape,
    p1xp1_cohomology,
    quadric_delta_ulrich_test,
    quadric_h1_table,
    quadric_twist_h1,
    quadric_ulrich_scan,
    wlp_check,
)


class TestP1xP1Cohomology:
    def test_small_values(self):
        assert p1xp1_cohomology(0, 0) == (1, 0, 0)
        assert p1xp1_cohomology(1, 0) == (2, 0, 0)
        assert p1xp1_cohomology(-1, -1) == (0, 0, 0)
        assert p1xp1_cohomology(-2, -2) == (0, 0, 1)
        assert p1xp1_cohomology(2, -3) == (0, 6, 0)
        assert p1xp1_cohomology(-2, 0) == (0, 1, 0)

    def test_euler_characteristic(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                h0, h1, h2 = p1xp1_cohomology(a, b)
                assert h0 - h1 + h2 == (a + 1) * (b + 1)

    def test_serre_duality(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                h0, h1, h2 = p1xp1_cohomology(a, b)
                d0, d1, d2 = p1xp1_cohomology(-2 - a, -2 - b)
                assert (h0, h1, h2) == (d2, d1, d0)

    def test_rejects_non_integers(self):
        with pytest.raises(InputError, match="integer"):
            p1xp1_cohomology(0.5, 0)


class TestH1Table:
    def test_smallest_family(self):
        assert quadric_h1_table(2) == {0: 2, 1: 2}

    def test_s_three(self):
        assert quadric_h1_table(3) == {0: 4, 1: 6, 2: 6, 3: 4}

    def test_closed_form_across_families(self):
        for s in range(2, 7):
            table = quadric_h1_table(s)
            assert sorted(table) == list(range(0, 2 * s - 2))
            for k, value in table.items():
                assert value == (k + 1) * (2 * s - k - 2)
                assert value > 0

    def test_symmetry_of_the_support(self):
        for s in range(2, 7):
            table = quadric_h1_table(s)
            top = 2 * s - 3
            assert all(table[k] == table[top - k] for k in table)

    def test_rejects_small_s(self):
        with pytest.raises(InputError, match="s >= 2"):
            quadric_h1_table(1)


class TestDeltaUlrich:
    def test_the_two_ulrich_bundles(self):
        assert quadric_delta_ulrich_test(1, 0) is UlrichClass.ULRICH
        assert quadric_delta_ulrich_test(0, 1) is UlrichClass.ULRICH

    def test_delta_but_not_ulrich(self):
        for a in range(-6, 7):
            b = 1 - a
            want = UlrichClass.ULRICH if a in (0, 1) else UlrichClass.DELTA
            assert quadric_delta_ulrich_test(a, b) is want

    def test_off_the_hyperplane_class(self):
        assert quadric_delta_ulrich_test(0, 0) is UlrichClass.NOT_DELTA
        assert quadric_delta_ulrich_test(1, 1) is UlrichClass.NOT_DELTA
        assert quadric_delta_ulrich_test(2, 0) is UlrichClass.NOT_DELTA

    def test_down_twists_have_no_sections(self):
        # the defining vanishing of the delta condition
        for a in range(-6, 7):
            b = 1 - a
            for k in range(1, 6):
                assert p1xp1_cohomology(a - k, b - k)[0] == 0


class TestWlp:
    def test_ulrich_twist_sequence_passes(self):
        seq = quadric_twist_h1(1, 0, -5, 3)
        assert all(v == 0 for v in seq.values())
        assert wlp_check(seq).ok

    def test_delta_twist_sequence_passes(self):
        seq = quadric_twist_h1(2, -1, -5, 3)
        assert seq[-2] == 2 and seq[-1] == 2
        report = wlp_check(seq)
        assert report.ok
        assert report.meta["peak"] == 2
        assert report.meta["support"] == [-2, -1]

    def test_wider_delta_sequences(self):
        for a in range(-5, 7):
            assert wlp_check(quadric_twist_h1(a, 1 - a, -8, 6)).ok

    def test_rise_violation(self):
        report = wlp_check({-3: 2, -2: 1})
        assert not report.ok
        assert not report.get("monotone_up_to_minus_two").ok

    def test_fall_violation(self):
        report = wlp_check({0: 5})
        assert not report.ok
        assert not report.get("monotone_from_minus_two").ok
        assert not report.get("peak_position").ok

    def test_empty_sequence_is_vacuously_fine(self):
        assert wlp_check({}).ok


class TestMonadNumerics:
    def test_shape_and_chi(self):
        for m in range(0, 5):
            shape = monad_shape(BundleNumerics(1, 2, m))
            assert shape.shape == (m, 2 + 2 * m, m)
            assert shape.chi == 2 - m

    def test_higher_rank(self):
        shape = monad_shape(BundleNumerics(3, 4, 2))
        assert shape.shape == (2, 16, 2)
        assert shape.chi == 10

    def test_numerics_validation(self):
        with pytest.raises(InputError, match="rank"):
            BundleNumerics(0, 2, 1)
        with pytest.raises(InputError, match="degree"):
            BundleNumerics(1, 0, 1)
        with pytest.raises(InputError, match="negative"):
            BundleNumerics(1, 2, -1)


class TestEcTensor:
    def test_values(self):
        assert ec_tensor(2, 1, 1) == 5
        assert ec_tensor(-3, 2, 3) == 9
        assert ec_tensor(0, 1, 4) == 12

    def test_rank_validation(self):
        with pytest.raises(InputError, match="rank"):
            ec_tensor(1, 0, 1)


class TestBetaSequence:
    def test_from_zero(self):
        seq = beta_sequence(0, 3)
        assert seq == [0, Fraction(3, 4), Fraction(15, 16), Fraction(63, 64)]

    def test_from_minus_three(self):
        seq = beta_sequence(-3, 3)
        assert seq == [-3, 0, Fraction(3, 4), Fraction(15, 16)]

    def test_fixed_point(self):
        assert beta_sequence(1, 10) == [1] * 11

    def test_exact_rational_input(self):
        seq = beta_sequence("1/3", 2)
        assert seq[1] == Fraction(5, 6)
        assert seq[2] == Fraction(23, 24)

    def test_gap_contracts_by_four(self):
        for start in (0, -3, 1, Fraction(7, 5)):
            seq = beta_sequence(start, 10)
            gap = 1 - Fraction(start)
            for m, value in enumerate(seq):
                assert 1 - value == gap / 4**m

    def test_validation(self):
        with pytest.raises(InputError, match="step"):
            beta_sequence(0, -1)
        with pytest.raises(InputError, match="rational"):
            beta_sequence("no", 2)

    def test_step_cap(self):
        assert len(beta_sequence("1/3", MAX_BETA_STEPS)) == MAX_BETA_STEPS + 1
        with pytest.raises(InputError, match=f"step count {MAX_BETA_STEPS + 1} exceeds the cap"):
            beta_sequence("1/3", MAX_BETA_STEPS + 1)


class TestTableCaps:
    def test_ulrich_scan_rows(self):
        rows = quadric_ulrich_scan(2)
        assert [(a, b) for a, b, _, _ in rows] == [(-2, 3), (-1, 2), (0, 1), (1, 0), (2, -1)]
        for a, b, h0, verdict in rows:
            assert h0 == p1xp1_cohomology(a, b)[0]
            assert verdict is quadric_delta_ulrich_test(a, b)
        assert quadric_ulrich_scan(0) == [(0, 1, 2, UlrichClass.ULRICH)]

    def test_every_bound_at_the_cap_is_admitted(self):
        cap = MAX_TABLE_BOUND
        assert len(quadric_h1_table(cap)) == 2 * cap - 2
        assert len(quadric_ulrich_scan(cap)) == 2 * cap + 1
        assert len(quadric_twist_h1(0, 0, -cap, cap)) == 2 * cap + 1

    def test_every_bound_past_the_cap_is_refused_before_the_loop(self):
        past = MAX_TABLE_BOUND + 1
        for call in (
            lambda: quadric_h1_table(past),
            lambda: quadric_ulrich_scan(past),
            lambda: quadric_twist_h1(0, 0, 0, past),
            lambda: quadric_twist_h1(0, 0, -past, 0),
            lambda: quadric_twist_h1(0, 0, past, past),
        ):
            with pytest.raises(InputError, match=f"{past} exceeds the cap of {MAX_TABLE_BOUND}"):
                call()

    def test_negative_scan_bound_is_refused(self):
        with pytest.raises(InputError, match="non-negative integer, got -3"):
            quadric_ulrich_scan(-3)
