"""Free commutative algebras, regular representations, characteristic polynomials."""

import random
import re
from collections import Counter

import pytest

from robyclif.errors import InputError
from robyclif.freealg import (
    MAX_RANK,
    FreeAlgebra,
    cayley_hamilton_check,
    char_poly,
    char_poly_of_matrix,
    monogenic_algebra,
    regular_representation,
    restrict_char_poly,
    split_algebra,
)
from robyclif.matrix import PolyMatrix
from robyclif.poly import Poly, parse_poly


def test_charpoly_of_generic_two_by_two():
    m = PolyMatrix.from_rows([["a", "b"], ["c", "d"]])
    chi = char_poly_of_matrix(m)
    assert chi == parse_poly("t^2 - (a + d)*t + a*d - b*c")


def test_charpoly_of_numeric_three_by_three():
    # det = -3, trace = 16, second elementary invariant = -12 (hand computed)
    m = PolyMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert char_poly_of_matrix(m) == parse_poly("t^3 - 16*t^2 - 12*t + 3")


def test_charpoly_variable_clash():
    with pytest.raises(InputError):
        char_poly_of_matrix(PolyMatrix.from_rows([["t", 0], [0, 1]]))


class TestMonogenic:
    def test_quadratic_structure_constants(self):
        a = monogenic_algebra(parse_poly("z^2 - x*y"), "z")
        assert a.basis_names == ("1", "z")
        assert a.table[1][1][0] == parse_poly("x*y")
        assert a.table[1][1][1] == Poly.zero()
        assert a.degrees == (0, 1)

    def test_nilpotent_cubic(self):
        a = monogenic_algebra(parse_poly("z^3"), "z")
        z, z2 = a._basis_coords(1), a._basis_coords(2)
        assert a.product(z, z) == z2
        assert a.product(z2, z) == [Poly.zero()] * 3
        assert a.degrees == (0, 1, 2)

    def test_rank_one(self):
        a = monogenic_algebra(parse_poly("z - c"), "z")
        assert a.rank == 1
        assert char_poly(a).poly == parse_poly("t - G1")

    def test_regular_representation_of_quadratic(self):
        a = monogenic_algebra(parse_poly("z^2 - q"), "z")
        rho = regular_representation(a)
        assert rho == PolyMatrix.from_rows([["G1", "G2*q"], ["G2", "G1"]])

    def test_quadratic_char_poly(self):
        a = monogenic_algebra(parse_poly("z^2 - q"), "z")
        chi = char_poly(a)
        assert chi.poly == parse_poly("t^2 - 2*G1*t + G1^2 - G2^2*q")

    def test_char_poly_at_the_generator_recovers_p(self):
        for text in ("z^2 - q", "z^3 - x*z - y", "z^4 - x^3*z - y^4"):
            p = parse_poly(text)
            a = monogenic_algebra(p, "z")
            point = {g: 0 for g in a.dual_names}
            point[a.dual_names[1]] = 1
            at_z = char_poly(a).poly.substitute(point)
            assert at_z == p.substitute({"z": Poly.variable("t")})

    def test_rejects_non_monic_and_missing_variable(self):
        with pytest.raises(InputError):
            monogenic_algebra(parse_poly("2*z^2 - 1"), "z")
        with pytest.raises(InputError):
            monogenic_algebra(parse_poly("x^2"), "z")
        with pytest.raises(InputError):
            monogenic_algebra(parse_poly("x*z^2"), "z")

    def test_inhomogeneous_defining_polynomial_is_ungraded(self):
        a = monogenic_algebra(parse_poly("z^2 - q"), "z")
        assert a.degrees is None


class TestSplit:
    def test_idempotents(self):
        a = split_algebra(2)
        e1, e2 = a._basis_coords(0), a._basis_coords(1)
        assert a.product(e1, e1) == e1
        assert a.product(e2, e2) == e2
        assert a.product(e1, e2) == [Poly.zero(), Poly.zero()]

    def test_unit_is_the_sum_of_idempotents(self):
        a = split_algebra(3)
        assert not a.unit_is_first_basis_element
        assert a.element_rep(a.unit) == PolyMatrix.identity(3)
        # while a monogenic presentation keeps the unit at gamma_1
        b = monogenic_algebra(parse_poly("z^2 - q"), "z")
        assert b.unit_is_first_basis_element

    def test_regular_representation_is_diagonal(self):
        a = split_algebra(3)
        rho = regular_representation(a)
        assert rho == PolyMatrix.diagonal(["x1", "x2", "x3"])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_char_poly_factors_completely(self, d):
        chi = char_poly(split_algebra(d))
        expected = Poly.const(1)
        t = Poly.variable("t")
        for i in range(d):
            expected = expected * (t - Poly.variable(f"x{i + 1}"))
        assert chi.poly == expected

    def test_rejects_nonpositive_rank(self):
        with pytest.raises(InputError):
            split_algebra(0)


class TestRankCap:
    def test_the_cap_itself_is_admitted(self):
        assert split_algebra(MAX_RANK).rank == MAX_RANK
        assert monogenic_algebra(parse_poly(f"z^{MAX_RANK} - x"), "z").rank == MAX_RANK

    def test_ranks_above_the_cap_are_refused_before_any_table(self):
        with pytest.raises(InputError, match=f"algebra rank 1000 exceeds the cap of {MAX_RANK}"):
            split_algebra(1000)
        with pytest.raises(InputError, match=f"algebra rank 1000 exceeds the cap of {MAX_RANK}"):
            monogenic_algebra(parse_poly("z^1000 - x"), "z")
        # the table is never read
        with pytest.raises(InputError, match=f"algebra rank 1000 exceeds the cap of {MAX_RANK}"):
            FreeAlgebra([f"g{i}" for i in range(1000)], None)


class TestRestriction:
    def test_substitution_on_base_variables(self):
        a = monogenic_algebra(parse_poly("z^2 - (x*y + z2^2)"), "z")
        chi = char_poly(a)
        restricted = restrict_char_poly(chi, {"z2": 0})
        assert restricted == char_poly(monogenic_algebra(parse_poly("z^2 - x*y"), "z"))

    def test_identity_bindings_are_a_no_op(self):
        chi = char_poly(monogenic_algebra(parse_poly("z^2 - q"), "z"))
        assert restrict_char_poly(chi, {"q": Poly.variable("q")}) == chi
        assert restrict_char_poly(chi, {}) == chi

    def test_dual_and_t_bindings_are_rejected(self):
        chi = char_poly(monogenic_algebra(parse_poly("z^2 - q"), "z"))
        with pytest.raises(InputError):
            restrict_char_poly(chi, {"G1": 0})
        with pytest.raises(InputError):
            restrict_char_poly(chi, {"t": 1})
        with pytest.raises(InputError):
            restrict_char_poly(chi, {"q": parse_poly("G1 + 1")})

    def test_commutes_with_restricting_the_algebra(self):
        a = monogenic_algebra(parse_poly("z^3 - x*z - y"), "z")
        bindings = {"y": parse_poly("x^2")}
        left = restrict_char_poly(char_poly(a), bindings)
        right = char_poly(a.restrict(bindings))
        assert left == right

    def test_coefficients_stay_homogeneous_in_duals(self):
        chi = char_poly(monogenic_algebra(parse_poly("z^3 - x*z - y"), "z"))
        for k, coeff in chi.coefficients().items():
            if coeff:
                assert coeff.homogeneous_degree(chi.dual_names) == chi.rank - k


class TestLaws:
    def test_commutativity_is_enforced(self):
        # gamma_2 * gamma_1 deliberately disagrees with gamma_1 * gamma_2
        table = [
            [[1, 0], [0, 1]],
            [[1, 0], [0, 0]],
        ]
        with pytest.raises(InputError, match="commutative"):
            FreeAlgebra(["u", "g"], table)

    def test_unit_law_is_enforced(self):
        table = [
            [[1, 0], [0, 2]],
            [[0, 2], [0, 0]],
        ]
        with pytest.raises(InputError, match="unit"):
            FreeAlgebra(["u", "g"], table)

    def test_associativity_is_enforced(self):
        # u is a unit, a*a = u, b*b = u, a*b = 0: (a*a)*b = b but a*(a*b) = 0
        zero3 = [0, 0, 0]
        table = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [1, 0, 0], zero3],
            [[0, 0, 1], zero3, [1, 0, 0]],
        ]
        with pytest.raises(InputError, match="associative"):
            FreeAlgebra(["u", "a", "b"], table)
        skipped = FreeAlgebra(["u", "a", "b"], table, validate=False)
        assert skipped.rank == 3

    def test_associativity_check_equals_the_old_loop(self, monkeypatch):
        # the loop that computed e_i*e_j, e_j*e_k and both triple products
        def old_associativity_failure(algebra):
            d, e, names = algebra.rank, algebra._basis_coords, algebra.basis_names
            for i in range(d):
                for j in range(d):
                    ij = algebra.product(e(i), e(j))
                    for k in range(d):
                        left = algebra.product(ij, e(k))
                        jk = algebra.product(e(j), e(k))
                        right = algebra.product(e(i), jk)
                        if any(left[m] != right[m] for m in range(d)):
                            return (
                                f"multiplication is not associative at "
                                f"({names[i]}, {names[j]}, {names[k]})"
                            )
            return None

        rng = random.Random(6101)
        names = ["u", "a", "b", "c", "d"]
        outcomes = Counter()
        for _ in range(60):
            d = rng.randrange(2, 6)
            table = [[None] * d for _ in range(d)]
            for j in range(d):
                table[0][j] = table[j][0] = [int(k == j) for k in range(d)]
            for i in range(1, d):
                for j in range(i, d):
                    coords = [rng.choice([0] * 6 + [1, -1, 2, "x", "zeta3"]) for _ in range(d)]
                    table[i][j] = table[j][i] = coords
            want = old_associativity_failure(FreeAlgebra(names[:d], table, validate=False))
            if want is None:
                FreeAlgebra(names[:d], table)
                outcomes["associative"] += 1
                continue
            with pytest.raises(InputError, match=re.escape(want) + "$"):
                FreeAlgebra(names[:d], table)
            i, j, _ = want[want.index("(") + 1 : -1].split(", ")
            outcomes["first failure at i == j" if i == j else "first failure at i != j"] += 1
        # every kind occurs, so the order in which triples are tried is tested
        assert len(outcomes) == 3, outcomes

        calls = Counter()
        real_product, real_mul = FreeAlgebra.product, PolyMatrix.__mul__

        def counted_product(self, u, v):
            calls["product"] += 1
            return real_product(self, u, v)

        def counted_mul(self, other):
            calls["matmul"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(FreeAlgebra, "product", counted_product)
        monkeypatch.setattr(PolyMatrix, "__mul__", counted_mul)
        for d in (1, 2, 3, 4):
            calls.clear()
            split_algebra(d)
            # one product of left-multiplication matrices per ordered pair;
            # for d = 1, e1 is the unit, whose pairs need no product
            assert calls["matmul"] == (0 if d == 1 else d**2)
            assert calls["product"] == 0

    def test_action_laws_equal_the_full_pair_loop(self):
        def full_pair_loop(algebra, matrices):
            # the check before the unit's pairs were decided from the table:
            # the unit's image, then every ordered pair multiplied out
            n = matrices[0].nrows
            unit = PolyMatrix.combination(zip(algebra.unit, matrices), n)
            unit_ok = unit == PolyMatrix.identity(n)
            for i in range(algebra.rank):
                for j in range(algebra.rank):
                    image = PolyMatrix.combination(zip(algebra.table[i][j], matrices), n)
                    if matrices[i] * matrices[j] != image:
                        return unit_ok, (i, j)
            return unit_ok, None

        zero = [0, 0, 0]
        nilpotent = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], zero, zero],
            [[0, 0, 1], zero, zero],
        ]
        # the unit coordinates are e_1, but the unit's row says 1 * z = z + w
        bad_row = [row[:] for row in nilpotent]
        bad_row[0][1] = [0, 1, 1]
        algebras = {
            "split 2": (split_algebra(2), None),
            "split 3": (split_algebra(3), None),
            "monogenic cubic": (monogenic_algebra(parse_poly("z^3 - x*z - y"), "z"), 0),
            "monogenic quartic": (monogenic_algebra(parse_poly("z^4 - x*z^2 - y"), "z"), 0),
            "k[z,w]/(z^2, zw, w^2)": (FreeAlgebra(["1", "z", "w"], nilpotent), 0),
            "unit row wrong": (FreeAlgebra(["1", "z", "w"], bad_row, validate=False), None),
            "unit is gamma_2": (FreeAlgebra(["z", "1"], [[[0, 0], [1, 0]], [[1, 0], [0, 1]]],
                                            unit=[0, 1]), 1),
        }
        rng = random.Random(6102)
        pieces = [0, 0, 0, 1, -1, 2, "x", "y", "1/2"]

        def tuples(algebra):
            d = algebra.rank
            for n_copies in (1, 2):
                eye = PolyMatrix.identity(n_copies)
                action = [m.kron(eye) for m in algebra.left_mult]
                n = d * n_copies
                yield "action", action
                for _ in range(6):
                    k = rng.randrange(d)
                    bump = PolyMatrix.from_rows(
                        [[rng.choice(pieces) if rng.random() < 0.3 else 0 for _ in range(n)]
                         for _ in range(n)]
                    )
                    perturbed = list(action)
                    perturbed[k] = perturbed[k] + bump
                    yield f"C({k}) perturbed", perturbed
                yield "random", [
                    PolyMatrix.from_rows([[rng.choice(pieces) for _ in range(n)] for _ in range(n)])
                    for _ in range(d)
                ]

        outcomes = Counter()
        for name, (algebra, u) in algebras.items():
            assert algebra.unit_index == u, name
            for kind, matrices in tuples(algebra):
                want = full_pair_loop(algebra, matrices)
                assert algebra.action_laws(matrices) == want, (name, kind)
                unit_ok, pair = want
                if u is None:
                    outcomes["no unit index"] += 1
                elif not unit_ok:
                    outcomes["C(u) != I"] += 1
                elif pair is None:
                    outcomes["C(u) == I, an action"] += 1
                else:
                    assert u not in pair
                    outcomes["C(u) == I, a failing pair"] += 1
        # each branch of the check is met
        assert len(outcomes) == 4, outcomes

    def test_a_unit_basis_element_saves_its_pairs(self, monkeypatch):
        calls = Counter()
        real_mul = PolyMatrix.__mul__

        def counted_mul(self, other):
            calls["matmul"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(PolyMatrix, "__mul__", counted_mul)
        for d in range(1, 7):
            calls.clear()
            algebra = monogenic_algebra(parse_poly(f"z^{d} - x*z - y" if d > 1 else "z - x"), "z")
            # validation, then one more check of its own matrices
            assert algebra.action_laws(algebra.left_mult) == (True, None)
            assert calls["matmul"] == 2 * (d - 1) ** 2

    def test_graded_homogeneity_is_enforced(self):
        table = [
            [[1, 0], [0, 1]],
            [[0, 1], ["x + 1", 0]],  # x+1 is not homogeneous of degree 2
        ]
        with pytest.raises(InputError, match="homogeneous"):
            FreeAlgebra(["u", "g"], table, degrees=[0, 1])

    def test_duals_may_not_collide_with_base_variables(self):
        with pytest.raises(InputError):
            monogenic_algebra(parse_poly("z^2 - G1"), "z")
        with pytest.raises(InputError):
            monogenic_algebra(parse_poly("z^2 - t"), "z")


class TestCayleyHamilton:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_holds_for_split_algebras(self, d):
        assert cayley_hamilton_check(split_algebra(d)).ok

    def test_holds_for_monogenic_cubic(self):
        a = monogenic_algebra(parse_poly("z^3 - x*z - y"), "z")
        report = cayley_hamilton_check(a)
        assert report.ok
        assert report.get("cayley_hamilton").ok

    def test_fails_against_a_tampered_table(self):
        pristine = monogenic_algebra(parse_poly("z^2 - q"), "z")
        chi = char_poly(pristine)
        tampered = monogenic_algebra(parse_poly("z^2 - q - 1"), "z")
        report = cayley_hamilton_check(tampered, chi)
        assert not report.ok
        assert "entry" in report.get("cayley_hamilton").detail

    def test_horner_starts_from_the_matrix(self, monkeypatch):
        def old_horner(chi, m, gamma_values):
            # the loop evaluate_matrix once ran: its first product was I * m
            bindings = dict(zip(chi.dual_names, gamma_values))
            coeffs = {j: c.substitute(bindings) for j, c in chi.coefficients().items()}
            acc = PolyMatrix.identity(m.nrows)
            for j in range(chi.rank - 1, -1, -1):
                acc = acc * m
                cj = coeffs.get(j)
                if cj is not None and cj:
                    acc = acc + PolyMatrix.identity(m.nrows).scaled(cj)
            return acc

        products = []
        real = PolyMatrix.__mul__

        def counted(a, b):
            products.append(1)
            return real(a, b)

        algebras = [split_algebra(d) for d in (1, 2, 3)]
        algebras += [monogenic_algebra(parse_poly("z^3 - x*z - y"), "z")]
        for alg in algebras:
            chi = char_poly(alg)
            rho = alg.regular_representation()
            for values in ([Poly.variable(g) for g in alg.dual_names], ["x + 1"] * alg.rank):
                want = old_horner(chi, rho, values)
                monkeypatch.setattr(PolyMatrix, "__mul__", counted)
                products.clear()
                got = chi.evaluate_matrix(rho, values)
                monkeypatch.setattr(PolyMatrix, "__mul__", real)
                assert len(products) == chi.rank - 1
                assert got.vars == want.vars
                assert [[list(p.terms.items()) for p in row] for row in got.rows()] == [
                    [list(p.terms.items()) for p in row] for row in want.rows()
                ]

    def test_shape_mismatch_is_an_input_error(self):
        chi = char_poly(split_algebra(3))
        with pytest.raises(InputError):
            cayley_hamilton_check(split_algebra(2), chi)
