"""Free commutative algebras, regular representations, characteristic polynomials."""

import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from robyclif import freealg
from robyclif.errors import InputError
from robyclif.freealg import (
    MAX_RANK,
    CharPoly,
    FreeAlgebra,
    cayley_hamilton_check,
    char_poly,
    char_poly_of_matrix,
    monogenic_algebra,
    split_algebra,
)
from robyclif.matrix import PolyMatrix
from robyclif.poly import Poly, parse_poly
from robyclif.scalars import CycScalar, make_root
from robyclif.seeds import cyclic_cover_seed, perturbed_split_algebra
from robyclif.specfile import parse_algebra, render_algebra


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


# -- Berkowitz against the recursive Poly loop it replaced ---------------------------


def old_berkowitz_vector(m):
    """Coefficients of det(t*I - m), descending in t: the recursion on Polys."""
    one = Poly.const(1)
    n = m.nrows
    if n == 0:
        return [one]
    if n == 1:
        return [one, -m.entry(0, 0)]
    sub = list(range(n - 1))
    a = m.submatrix(sub, sub)
    r = m.submatrix([n - 1], sub)
    c = m.submatrix(sub, [n - 1])
    corner = m.entry(n - 1, n - 1)
    diags = [c]
    for _ in range(n - 2):
        diags.append(a * diags[-1])
    items = [one, -corner]
    for d in diags:
        items.append(-(r * d).entry(0, 0))
    prev = old_berkowitz_vector(a)
    out = []
    for i in range(n + 1):
        acc = Poly.zero()
        for j in range(len(prev)):
            if 0 <= i - j < len(items):
                acc = acc + items[i - j] * prev[j]
        out.append(acc)
    return out


def old_char_poly_of_matrix(m, tvar="t"):
    vec = old_berkowitz_vector(m)
    t = Poly.variable(tvar)
    n = m.nrows
    acc = Poly.zero()
    for i, coeff in enumerate(vec):
        if coeff:
            acc = acc + coeff * t ** (n - i)
    return acc


BENCHMARK_COVERS = (
    "z^6 - x^6 - y^6 - z2^6",
    "z^5 - x*z^3 - y^2*z - x^5 - y^5 - z2^5",
    "z^6 - x*z^4 - y*z^3 - x^6 - y^6 - z2^6",
)

# R[z]/(z^4 - x*z^2 - 2/3*y*z - x*y) in the basis z, 1, z^2, z^3: an algebra
# file whose unit is the second basis element, so unit_index == 1.
UNIT_SECOND_ALGEBRA = """\
[algebra]
basis = z, one, z2, z3
unit = 0, 1, 0, 0

[table]
z*z = 0, 0, 1, 0
z*one = 1, 0, 0, 0
z*z2 = 0, 0, 0, 1
z*z3 = 2/3*y, x*y, x, 0
one*one = 0, 1, 0, 0
one*z2 = 0, 0, 1, 0
one*z3 = 0, 0, 0, 1
z2*z2 = 2/3*y, x*y, x, 0
z2*z3 = x*y, 0, 2/3*y, x
z3*z3 = 2/3*x*y, x^2*y, x^2 + x*y, 2/3*y
"""


def oracle_matrices():
    """(name, matrix): regular representations, edge sizes and random matrices."""
    for d in range(1, 11):
        yield f"split {d}", split_algebra(d).regular_representation()
    covers = BENCHMARK_COVERS + ("z^2 - x*y - z2^2",) + tuple(
        f"z^{e} - x^{e} - y^{e}" for e in (3, 4, 5)
    )
    for text in covers:
        yield text, monogenic_algebra(parse_poly(text), "z").regular_representation()
    yield "perturbed split", perturbed_split_algebra("x*y - 1").regular_representation()
    yield "0x0", PolyMatrix.from_rows([])
    yield "1x1", PolyMatrix.from_rows([["x - 2*y"]])
    rng = random.Random(41)
    zeta = make_root(5)
    draws = (
        lambda: rng.randrange(-5, 6),
        lambda: Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
        lambda: zeta ** rng.randrange(5) * rng.randrange(-2, 3) + Fraction(1, rng.randrange(1, 4)),
    )
    for trial in range(12):
        draw = draws[trial % 3]
        n = rng.randrange(2, 6)

        def entry():
            if rng.random() < 0.3:
                return 0
            if rng.random() < 0.5:
                return draw()
            return draw() * Poly.variable("x") ** rng.randrange(3) + draw() * Poly.variable("y")

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        yield f"random {trial}", PolyMatrix.from_rows(rows)


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in oracle_matrices()])
def test_char_poly_of_matrix_equals_the_old_loop(m):
    got, want = char_poly_of_matrix(m), old_char_poly_of_matrix(m)
    assert got == want
    assert got.vars == want.vars
    assert str(got) == str(want)


def test_the_column_step_makes_no_poly_arithmetic(monkeypatch):
    m = monogenic_algebra(parse_poly(BENCHMARK_COVERS[1]), "z").regular_representation()
    calls = Counter()

    def spy(name):
        real = getattr(Poly, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(Poly, name, counted)

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        spy(name)
    column = freealg._berkowitz_column(m)
    assert calls == Counter()
    assert column.shape == (6, 1)


# -- the unit shift against Berkowitz on the whole regular representation -----------


def nilpotent_table(unit_square):
    """k[z,w]/(z^2, zw, w^2) in the basis 1, z, w, with 1 * 1 = unit_square."""
    zero = [0, 0, 0]
    return [
        [unit_square, [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], zero, zero],
        [[0, 0, 1], zero, zero],
    ]


def shift_oracle_algebras():
    """(name, algebra, unit_index): the shifted path and the ones it must leave alone."""
    for text in BENCHMARK_COVERS:
        yield text, monogenic_algebra(parse_poly(text), "z"), 0
    yield "unit is gamma_2", parse_algebra(UNIT_SECOND_ALGEBRA), 1
    yield "k[z,w]/(z^2, zw, w^2)", FreeAlgebra(["1", "z", "w"], nilpotent_table([1, 0, 0])), 0
    for d in range(2, 7):
        yield f"split {d}", split_algebra(d), None
    # the unit coordinates are e_1, but its row says 1 * 1 = 2: L_1 = diag(2, 1, 1), so
    # chi is (t - 2*G1)*(t - G1)^2, while a shift by G1 would give (t - G1)^3
    yield "unit row wrong", FreeAlgebra(
        ["1", "z", "w"], nilpotent_table([2, 0, 0]), validate=False
    ), None


@pytest.mark.parametrize(
    "algebra, u", [pytest.param(a, u, id=name) for name, a, u in shift_oracle_algebras()]
)
def test_char_poly_equals_berkowitz_on_the_regular_representation(algebra, u):
    assert algebra.unit_index == u
    got = char_poly(algebra).poly
    want = char_poly_of_matrix(algebra.regular_representation(), algebra.tvar)
    assert got == want
    assert got.vars == want.vars
    assert str(got) == str(want)


def test_berkowitz_runs_without_the_unit_dual(monkeypatch):
    seen = []
    real = freealg._berkowitz_column

    def spy(m):
        seen.append(m.vars)
        return real(m)

    monkeypatch.setattr(freealg, "_berkowitz_column", spy)
    char_poly(parse_algebra(UNIT_SECOND_ALGEBRA))
    char_poly(monogenic_algebra(parse_poly(BENCHMARK_COVERS[1]), "z"))
    char_poly(split_algebra(3))
    assert seen == [
        ("G1", "G3", "G4", "x", "y"),
        ("G2", "G3", "G4", "G5", "W0", "x", "y"),
        ("x1", "x2", "x3"),
    ]


# -- the base change against Berkowitz on the real table ------------------------------

DEMO = Path(__file__).resolve().parent.parent / "demo"

# base variables, duals and t already hold the fresh names W0, W1 and W0_
FRESH_NAME_COLLISIONS = """\
[algebra]
monogenic = z^3 - (W0 + W1)*z - W0^3 - W1^3
var = z
duals = W2, G2, G3
tvar = W0_
"""


def base_change_algebras():
    """(name, algebra, fresh symbols): monogenic algebras with multi-term tail coefficients."""
    for text in BENCHMARK_COVERS:
        yield text, monogenic_algebra(parse_poly(text), "z"), ["W0"]
    yield "quadric demo", parse_algebra((DEMO / "quadric.algebra").read_text()), ["W0"]
    yield "two fat powers", monogenic_algebra(
        parse_poly("z^4 - (x+y)*z^2 - x^4 - y^4 - w^4"), "z"
    ), ["W0", "W2"]
    yield "fractions", monogenic_algebra(
        parse_poly("z^3 - (1/2*x + 2/3*y)*z - 3/4*x^3 + 5*y^3"), "z"
    ), ["W0", "W1"]
    # Z^2 = (x + zeta3*y)*I, so the cover z^4 = (x + zeta3*y)^2 has zeta in its tail
    seed = cyclic_cover_seed(PolyMatrix.from_rows([[0, "x + zeta3*y"], [1, 0]]), 4)
    yield "cyclic cover seed over Q(zeta_3)", seed.source_algebra, ["W0"]
    yield "fresh-name collisions", parse_algebra(FRESH_NAME_COLLISIONS), ["W0__", "W1_"]


@pytest.mark.parametrize(
    "algebra, fresh", [pytest.param(a, w, id=name) for name, a, w in base_change_algebras()]
)
def test_char_poly_over_the_generic_tail_equals_berkowitz_on_the_table(algebra, fresh):
    generic, bindings = algebra.generic
    assert sorted(bindings) == fresh
    assert set(fresh) <= set(generic.base_vars)
    got = char_poly(algebra).poly
    table = parse_algebra(render_algebra(algebra))
    assert table.generic is None and table == algebra
    for want in (
        char_poly_of_matrix(algebra.regular_representation(), algebra.tvar),
        char_poly(table).poly,
    ):
        assert got == want
        assert got.vars == want.vars
        assert str(got) == str(want)


def test_tails_of_one_term_coefficients_keep_the_real_table():
    for text in ("z^9 - x*z - y", "z^3 - 2/3*x^3", "z^2", "z^5 - x*y*z^2 - zeta5*y^5"):
        assert monogenic_algebra(parse_poly(text), "z").generic is None, text
    assert split_algebra(3).generic is None
    assert parse_algebra(UNIT_SECOND_ALGEBRA).generic is None
    cover = monogenic_algebra(parse_poly(BENCHMARK_COVERS[0]), "z")
    assert cover.restrict({"z2": 0}).generic is None


def test_the_public_char_poly_is_entered_once_per_call(monkeypatch):
    calls = []
    real = freealg.char_poly

    def spy(algebra):
        calls.append(algebra)
        return real(algebra)

    monkeypatch.setattr(freealg, "char_poly", spy)
    for _, algebra, _ in base_change_algebras():
        calls.clear()
        chi = freealg.char_poly(algebra)
        assert calls == [algebra] and chi.rank == algebra.rank
        assert not {*algebra.generic[1]} & {*chi.poly.vars}


def basis_coords(algebra, j):
    """Coordinate vector of the j-th basis element."""
    return [Poly.const(1) if k == j else Poly.zero() for k in range(algebra.rank)]


def coord_product(algebra, u, v):
    """Coordinates of the product of two coordinate vectors, from the table."""
    d = algebra.rank
    out = [Poly.zero() for _ in range(d)]
    for i in range(d):
        ui = u[i]
        if not ui:
            continue
        for j in range(d):
            vj = v[j]
            if not vj:
                continue
            uv = ui * vj
            for k in range(d):
                ck = algebra.table[i][j][k]
                if ck:
                    out[k] = out[k] + uv * ck
    return out


class TestMonogenic:
    def test_quadratic_structure_constants(self):
        a = monogenic_algebra(parse_poly("z^2 - x*y"), "z")
        assert a.basis_names == ("1", "z")
        assert a.table[1][1][0] == parse_poly("x*y")
        assert a.table[1][1][1] == Poly.zero()
        assert a.degrees == (0, 1)

    def test_nilpotent_cubic(self):
        a = monogenic_algebra(parse_poly("z^3"), "z")
        z, z2 = basis_coords(a, 1), basis_coords(a, 2)
        assert coord_product(a, z, z) == z2
        assert coord_product(a, z2, z) == [Poly.zero()] * 3
        assert a.degrees == (0, 1, 2)

    def test_rank_one(self):
        a = monogenic_algebra(parse_poly("z - c"), "z")
        assert a.rank == 1
        assert char_poly(a).poly == parse_poly("t - G1")

    def test_regular_representation_of_quadratic(self):
        a = monogenic_algebra(parse_poly("z^2 - q"), "z")
        rho = a.regular_representation()
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
        e1, e2 = basis_coords(a, 0), basis_coords(a, 1)
        assert coord_product(a, e1, e1) == e1
        assert coord_product(a, e2, e2) == e2
        assert coord_product(a, e1, e2) == [Poly.zero(), Poly.zero()]

    def test_unit_is_the_sum_of_idempotents(self):
        a = split_algebra(3)
        assert a.unit != basis_coords(a, 0)
        assert a.element_rep(a.unit) == PolyMatrix.identity(3)
        # while a monogenic presentation keeps the unit at gamma_1
        b = monogenic_algebra(parse_poly("z^2 - q"), "z")
        assert b.unit == basis_coords(b, 0)

    def test_regular_representation_is_diagonal(self):
        a = split_algebra(3)
        rho = a.regular_representation()
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
        restricted = chi.substitute_base({"z2": 0})
        assert restricted == char_poly(monogenic_algebra(parse_poly("z^2 - x*y"), "z"))

    def test_identity_bindings_are_a_no_op(self):
        chi = char_poly(monogenic_algebra(parse_poly("z^2 - q"), "z"))
        assert chi.substitute_base({"q": Poly.variable("q")}) == chi
        assert chi.substitute_base({}) == chi

    def test_dual_and_t_bindings_are_rejected(self):
        chi = char_poly(monogenic_algebra(parse_poly("z^2 - q"), "z"))
        with pytest.raises(InputError):
            chi.substitute_base({"G1": 0})
        with pytest.raises(InputError):
            chi.substitute_base({"t": 1})
        with pytest.raises(InputError):
            chi.substitute_base({"q": parse_poly("G1 + 1")})

    def test_commutes_with_restricting_the_algebra(self):
        a = monogenic_algebra(parse_poly("z^3 - x*z - y"), "z")
        bindings = {"y": parse_poly("x^2")}
        left = char_poly(a).substitute_base(bindings)
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
            d, names = algebra.rank, algebra.basis_names
            e = [basis_coords(algebra, j) for j in range(d)]
            for i in range(d):
                for j in range(d):
                    ij = coord_product(algebra, e[i], e[j])
                    for k in range(d):
                        left = coord_product(algebra, ij, e[k])
                        jk = coord_product(algebra, e[j], e[k])
                        right = coord_product(algebra, e[i], jk)
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
        real_mul = PolyMatrix.__mul__

        def counted_mul(self, other):
            calls["matmul"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(PolyMatrix, "__mul__", counted_mul)
        for d in (1, 2, 3, 4):
            calls.clear()
            split_algebra(d)
            # one product of left-multiplication matrices per ordered pair;
            # for d = 1, e1 is the unit, whose pairs need no product
            assert calls["matmul"] == (0 if d == 1 else d**2)

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

        nilpotent = nilpotent_table([1, 0, 0])
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

    def test_the_unit_law_keeps_the_verdict_of_comparing_with_a_built_identity(
        self, monkeypatch
    ):
        z = CycScalar(3, [1])  # 1 as a cyclotomic scalar
        cases = {
            "I": PolyMatrix.identity(3),
            "I, coefficients of three types": PolyMatrix.diagonal([1, Fraction(1), z]),
            "2 * I": PolyMatrix.diagonal([2, 2, 2]),
            "x * I": PolyMatrix.diagonal(["x", "x", "x"]),
            "0": PolyMatrix.zeros(3, 3),
            "I plus an off-diagonal 1": PolyMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
            "diag(1, 1, 2)": PolyMatrix.diagonal([1, 1, 2]),
            "I of the wrong size": PolyMatrix.identity(2),
            "3 x 2": PolyMatrix.zeros(3, 2),
        }
        verdicts = {name: m == PolyMatrix.identity(3) for name, m in cases.items()}
        verdicts["0 x 0"] = PolyMatrix.zeros(0, 0) == PolyMatrix.identity(0)
        cases["0 x 0"] = PolyMatrix.zeros(0, 0)
        want = ["I", "I, coefficients of three types", "0 x 0"]
        assert [name for name, ok in verdicts.items() if ok] == want
        # gamma_2 is the unit: the action of 1 is matrices[1]; the split
        # algebra has no unit basis element, so its unit's image is a sum
        unit_second = FreeAlgebra(["z", "1"], [[[0, 0], [1, 0]], [[1, 0], [0, 1]]], unit=[0, 1])
        split = split_algebra(2)
        assert (unit_second.unit_index, split.unit_index) == (1, None)
        monkeypatch.setattr(PolyMatrix, "identity", None)  # nothing may build one now
        for name, m in cases.items():
            n = 0 if name == "0 x 0" else 3
            assert freealg._is_identity(m, n) == verdicts[name], name
            if m.shape == (n, n):
                zero = PolyMatrix.zeros(n, n)
                assert unit_second.action_laws([zero, m])[0] == verdicts[name], name
                assert split.action_laws([m, zero])[0] == verdicts[name], name  # 1 = e1 + e2

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


# -- CharPoly's shape check against the per-coefficient loop --------------------------


def old_charpoly_check(rank, poly, tvar, dual_names):
    """The refusal message of the loop CharPoly ran on every chi, or None to accept."""
    coeffs = poly.coefficient_map(tvar)
    top = coeffs.get(rank)
    if top is None or top != 1:
        return "characteristic polynomial must be monic of degree rank"
    for k, c in coeffs.items():
        if c and c.homogeneous_degree(dual_names) != rank - k:
            return (
                f"t^{k} coefficient is not homogeneous of degree "
                f"{rank - k} in the dual variables: {c}"
            )
    return None


def new_charpoly_check(rank, poly, tvar, dual_names):
    try:
        CharPoly(rank, poly, tvar, dual_names)
    except InputError as e:
        return str(e)
    return None


def real_charpolys():
    """Characteristic polynomials of split and cover algebras, Q(zeta_3) included."""
    algebras = [split_algebra(d) for d in range(1, 6)]
    algebras += [monogenic_algebra(parse_poly(text), "z") for text in BENCHMARK_COVERS]
    algebras.append(parse_algebra((DEMO / "quadric.algebra").read_text()))
    seed = cyclic_cover_seed(PolyMatrix.from_rows([[0, "x + zeta3*y"], [1, 0]]), 4)
    algebras.append(seed.source_algebra)
    return [char_poly(a) for a in algebras]


def perturbed_charpolys(count, seed):
    """(rank, poly, tvar, duals): seeded perturbations of real characteristic polynomials.

    Each adds, drops or rescales terms (of the right or a wrong degree, with
    rational or cyclotomic coefficients, some multiplied by x), or
    takes the rank off by one, or names a t-variable absent from chi; about
    two fifths of them stay valid.
    """
    rng = random.Random(seed)
    zeta = make_root(3)
    scalars = (
        lambda: rng.choice((-2, -1, 1, 2, 3)),
        lambda: Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 3))),
        lambda: zeta ** rng.randrange(1, 3) * rng.choice((-1, 1, 2)),
    )
    sources = real_charpolys()
    # the three benchmark covers hold 900 to 5,200 terms: draw them less often
    weights = [1 if len(chi.poly.terms) > 500 else 4 for chi in sources]
    for chi in rng.choices(sources, weights, k=count):
        rank, poly, tvar, duals = chi.rank, chi.poly, chi.tvar, chi.dual_names
        t = Poly.variable(tvar)
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            kind = rng.choice((0, 0, 1, 2, 3, 4))
            c = rng.choice(scalars)()
            if kind == 0:  # add c * t^k * (a dual monomial of degree near rank - k) * x^b
                k = rng.randrange(rank + 2)
                j = max(0, rank - k + rng.choice((-1, 0, 1)))
                term = t ** k * Poly.variable("x") ** rng.choice((0, 0, 1)) * c
                for _ in range(j):
                    term = term * Poly.variable(rng.choice(duals))
                poly = poly + term
            elif kind in (1, 2) and poly:  # drop a term, or scale it by c
                exp, coeff = rng.choice(list(poly.terms.items()))
                term = Poly(poly.vars, {exp: coeff})
                poly = poly - term if kind == 1 else poly + term * (c - 1)
            elif kind == 3:  # change the t^rank coefficient by c or c * x
                poly = poly + t ** rank * c * Poly.variable("x") ** rng.choice((0, 1))
            else:  # take the rank off by one, or name an absent t-variable
                rank, tvar = rng.choice(((rank + 1, tvar), (max(rank - 1, 0), tvar), (rank, "s")))
        yield rank, poly, tvar, duals


def edge_charpolys():
    """(rank, poly, tvar, duals): rank 0, the zero polynomial and absent t-variables."""
    duals = ("x1", "x2")
    for text in ("1", "0", "2", "t", "x1", "x", "1 + x"):
        yield 0, parse_poly(text), "t", duals
        yield 0, parse_poly(text), "s", duals
    for rank in range(4):
        yield rank, Poly.zero(), "t", duals
    for rank in (1, 2):
        yield rank, parse_poly("x1*x2"), "t", duals
        yield rank, char_poly(split_algebra(2)).poly, "s", duals
    yield 2, char_poly(split_algebra(2)).poly, "t", ()


def test_charpoly_decides_as_the_per_coefficient_loop():
    cases = [*perturbed_charpolys(2400, 2311), *edge_charpolys()]
    verdicts = Counter()
    for rank, poly, tvar, duals in cases:
        want = old_charpoly_check(rank, poly, tvar, duals)
        assert new_charpoly_check(rank, poly, tvar, duals) == want, (rank, str(poly), tvar)
        verdicts[want if want is None else want.split(" ")[0]] += 1
    assert len(cases) >= 2000
    assert verdicts[None] >= 500
    assert verdicts["characteristic"] >= 300
    assert sum(n for key, n in verdicts.items() if key and key.startswith("t^")) >= 300


def test_a_t_variable_among_the_duals_is_refused():
    with pytest.raises(InputError, match="^'t' cannot double as a dual variable$"):
        CharPoly(2, parse_poly("t^2 - t*G2"), "t", ("t", "G2"))
    with pytest.raises(InputError, match="^'t' cannot double as a dual variable$"):
        CharPoly(2, parse_poly("t^2 - G1*G2"), "t", ("G1", "t"))


def test_repeated_dual_names_are_refused():
    with pytest.raises(InputError, match="^need one distinct dual variable per basis element$"):
        CharPoly(2, parse_poly("t^2 - 2*G1*t + G1^2"), "t", ("G1", "G1"))
    # the repeat is refused before any coefficient is read, so before the doubling t
    with pytest.raises(InputError, match="^need one distinct dual variable per basis element$"):
        CharPoly(3, Poly.zero(), "t", ("t", "t", "G1"))


def test_a_valid_charpoly_is_not_split_into_coefficients(monkeypatch):
    calls = []
    real = Poly.coefficient_map

    def spy(self, var):
        calls.append(var)
        return real(self, var)

    algebras = [monogenic_algebra(parse_poly(text), "z") for text in BENCHMARK_COVERS]
    algebras += [split_algebra(d) for d in range(2, 11)]
    monkeypatch.setattr(Poly, "coefficient_map", spy)
    for algebra in algebras:
        chi = char_poly(algebra)
        CharPoly(chi.rank, chi.poly, chi.tvar, chi.dual_names)
    assert calls == []
    # a refusal still runs the loop, which words it
    with pytest.raises(InputError, match="monic"):
        CharPoly(2, parse_poly("2*t^2 - x1*x2"), "t", ("x1", "x2"))
    assert calls == ["t"]
