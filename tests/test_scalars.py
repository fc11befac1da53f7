"""Exact cyclotomic arithmetic: construction, field laws, printing."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from robyclif import scalars
from robyclif.errors import InputError
from robyclif.scalars import (
    ORDER_CAP,
    CycScalar,
    cyclotomic_polynomial,
    euler_phi,
    exact_div,
    is_primitive_root,
    make_root,
)
from robyclif.poly import parse_poly


def test_euler_phi_small_values():
    assert [euler_phi(e) for e in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(97) == 96
    assert euler_phi(128) == 64


def test_cyclotomic_polynomials_match_hand_tables():
    # ascending coefficients
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for e in range(1, 31):
        assert len(cyclotomic_polynomial(e)) == euler_phi(e) + 1
        assert all(type(c) is int for c in cyclotomic_polynomial(e))


def test_make_root_degenerate_orders():
    assert make_root(1) == 1
    assert make_root(2) == -1
    assert make_root(2).as_rational() == Fraction(-1)


def test_make_root_three_satisfies_its_minimal_polynomial():
    z = make_root(3)
    assert 1 + z + z * z == 0


def test_coeff_width_is_totient():
    for e in (1, 2, 3, 4, 5, 6, 8, 12):
        assert len(make_root(e).coeffs) == euler_phi(e)


def test_primitivity_up_to_twelve():
    for e in range(1, 13):
        z = make_root(e)
        acc = CycScalar.from_rational(1, e)
        for k in range(1, e):
            acc = acc * z
            assert acc != 1, f"zeta_{e}^{k} collapsed to 1"
        assert acc * z == 1
        assert is_primitive_root(z, e)


def test_is_primitive_root_rejects_imprimitive_powers():
    z6 = make_root(6)
    assert is_primitive_root(z6 ** 2, 3)
    assert not is_primitive_root(z6 ** 2, 6)
    assert is_primitive_root(Fraction(1), 1)
    assert is_primitive_root(-1, 2)
    assert not is_primitive_root(Fraction(1), 2)


def test_field_operation_oracles():
    z4 = make_root(4)
    z3 = make_root(3)
    z6 = make_root(6)
    assert z4 * z4 == -1
    assert exact_div(z3, z3) == 1
    # |1 + zeta_6|^2 expanded by hand in Q(zeta_6)
    assert (1 + z6) * (1 + z6 ** -1) == 3


def test_field_operations_are_exact_on_every_pairing():
    # exact_div(1, 2) must not be the float 0.5 of plain ``/``
    assert exact_div(1, 2) == Fraction(1, 2)
    assert type(exact_div(1, 2)) is Fraction
    assert type(exact_div(6, -3)) is int and exact_div(6, -3) == -2
    values = [1, -3, 7, Fraction(1, 2), Fraction(4), make_root(2), make_root(3), 2 - make_root(4)]

    def in_q12(v):
        return v.lift(12) if isinstance(v, CycScalar) else CycScalar(12, [v])

    for a in values:
        for b in values:
            for op in (operator.add, operator.sub, operator.mul, exact_div):
                got = op(a, b)
                assert type(got) in (int, Fraction, CycScalar), (a, b, op, got)
                assert got == op(in_q12(a), in_q12(b)), (a, b, op, got)


def test_reduced_arithmetic_matches_the_full_constructor():
    # Sums, differences, negation and rational scaling skip the reduction
    # modulo Phi_e; the full constructor reduces the same coefficients.
    rng = random.Random(37)

    def coeff():
        return rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))

    for e in range(3, 13):
        for _ in range(15):
            a = CycScalar(e, [coeff() for _ in range(rng.randint(1, e + 2))])
            b = CycScalar(e, [coeff() for _ in range(rng.randint(1, e + 2))])
            r = coeff() or 1
            first, rest = a.coeffs[0], list(a.coeffs[1:])
            cases = {
                "a + b": (a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
                "a - b": (a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)]),
                "-a": (-a, [-x for x in a.coeffs]),
                "a + r": (a + r, [first + r, *rest]),
                "r + a": (r + a, [first + r, *rest]),
                "a - r": (a - r, [first - r, *rest]),
                "r - a": (r - a, [r - first, *(-x for x in rest)]),
                "a * r": (a * r, [x * r for x in a.coeffs]),
                "r * a": (r * a, [x * r for x in a.coeffs]),
                "a / r": (a / r, [Fraction(x) / r for x in a.coeffs]),
            }
            for name, (fast, coeffs) in cases.items():
                full = CycScalar(e, coeffs)
                where = f"order {e}: {name} with a={a!r}, b={b!r}, r={r}"
                assert fast.order == e and len(fast.coeffs) == euler_phi(e), where
                assert fast.coeffs == full.coeffs, where
                assert (fast * b).coeffs == (full * b).coeffs, where
        # the full constructor stores integral coefficients as int
        integral = CycScalar(e, [Fraction(6, 3), 5, Fraction(-4, 2)] + [Fraction(3)] * e)
        assert all(type(c) is int for c in integral.coeffs)


def test_division_by_zero():
    z = make_root(5)
    zero = z - z
    with pytest.raises(ZeroDivisionError):
        exact_div(z, zero)
    with pytest.raises(ZeroDivisionError):
        z / 0


def test_rationals_embed_and_commute_with_arithmetic():
    z = make_root(8)
    a = Fraction(3, 7)
    b = Fraction(-2, 5)
    lifted_a = CycScalar.from_rational(a, 8)
    assert lifted_a + b == a + b
    assert lifted_a * b == a * b
    assert (lifted_a / b).as_rational() == a / b
    assert (z * a) / a == z


def test_mixed_orders_lift_to_lcm():
    z2 = make_root(2)
    z3 = make_root(3)
    prod = z2 * z3
    assert prod.order == 6
    assert is_primitive_root(prod, 6)
    twelve = make_root(3) * make_root(4)
    assert twelve.order == 12
    assert is_primitive_root(twelve, 12)


def test_lcm_lift_respects_the_order_cap():
    with pytest.raises(InputError):
        make_root(11) * make_root(13)  # lcm 143 > 128
    with pytest.raises(InputError):
        make_root(129)
    assert make_root(128).order == 128


def test_field_axioms_on_random_elements():
    rng = random.Random(20260816)

    def rand_elt():
        return CycScalar(12, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])

    for _ in range(25):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a / a == 1
            assert a * (1 / a) == 1


def test_pow_including_negative_exponents():
    z = make_root(5)
    assert z ** 5 == 1
    assert z ** -1 == z ** 4
    assert z ** 0 == 1
    assert (z + 1) ** 2 == z * z + 2 * z + 1


def test_power_chain_does_one_product_per_step(monkeypatch):
    def old_pow(c, n):
        # the loop CycScalar.__pow__ once ran: from 1, squaring past the last bit
        result, base = CycScalar(c.order, [1]), c
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    products = []
    real = CycScalar.__mul__

    def counted(a, b):
        products.append(1)
        return real(a, b)

    for c in (make_root(5), 1 + 2 * make_root(12), Fraction(1, 3) - make_root(7), make_root(1)):
        for n in range(1, 34):
            want = old_pow(c, n)
            monkeypatch.setattr(CycScalar, "__mul__", counted)
            products.clear()
            got = c ** n
            monkeypatch.setattr(CycScalar, "__mul__", real)
            assert len(products) == (n.bit_length() - 1) + (bin(n).count("1") - 1), (c, n)
            assert (got.order, got.coeffs) == (want.order, want.coeffs), (c, n)
            assert [type(v) for v in got.coeffs] == [type(v) for v in want.coeffs], (c, n)


def test_unhashable_by_design():
    with pytest.raises(TypeError):
        hash(make_root(3))


def test_serialization_round_trips():
    cases = [
        Fraction(3, 2),
        Fraction(-7),
        make_root(6),
        1 + make_root(4) * 2,
        make_root(12) ** 5 - Fraction(1, 3),
    ]
    for x in cases:
        assert parse_poly(str(x)) == x


def test_serialization_formats():
    # the zeta syntax of Poly printing, which parse_poly reads
    assert str(make_root(6)) == "(zeta6)"
    assert str(Fraction(1, 2) - make_root(4)) == "(1/2 - zeta4)"
    assert str(make_root(5) ** 3 * -2) == "(-2*zeta5^3)"
    assert repr(1 - make_root(3)) == "CycScalar('(1 - zeta3)')"
    # a cyclotomic that collapses to a rational prints as one
    assert str(make_root(2)) == "-1"


def test_zeta_atoms_cap_the_field_order():
    assert parse_poly(f"zeta{ORDER_CAP}") == make_root(ORDER_CAP)
    with pytest.raises(InputError, match=f"order {ORDER_CAP + 1} exceeds the cap {ORDER_CAP}"):
        parse_poly(f"zeta{ORDER_CAP + 1}")


def test_the_constructor_caps_the_order_before_building_the_field(monkeypatch):
    built = []
    real = scalars.cyclotomic_polynomial

    def recording(e):
        built.append(e)
        return real(e)

    monkeypatch.setattr(scalars, "cyclotomic_polynomial", recording)
    for order, coeffs in ((ORDER_CAP + 1, [1]), (5000, [0, 1])):
        with pytest.raises(InputError, match=f"order {order} exceeds the cap {ORDER_CAP}"):
            CycScalar(order, coeffs)
    assert built == []
    CycScalar(ORDER_CAP, [0, 1])  # the recorder is live: a field at the cap is built
    assert built[0] == ORDER_CAP


# -- an independent oracle for Q(zeta_e) --------------------------------------
# Values are (order, list of int and Fraction coefficients).  Phi_e is derived from
# x^e - 1 = prod_{d | e} Phi_d by plain long division; nothing below calls the
# polynomial helpers of robyclif.scalars.


def _ref_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _ref_divmod(num, den):
    """Long division by a monic den (every divisor here is monic)."""
    num, den = list(num), _ref_trim(den)
    assert den[-1] == 1
    quot = [0] * max(0, len(num) - len(den) + 1)
    for top in range(len(num) - 1, len(den) - 2, -1):
        c = num[top]
        if c:
            quot[top - len(den) + 1] = c
            for i, d in enumerate(den):
                num[top - len(den) + 1 + i] -= c * d
    return _ref_trim(quot), _ref_trim(num[: len(den) - 1])


_REF_PHI = {}


def _ref_phi(e):
    if e not in _REF_PHI:
        num = [-1] + [0] * (e - 1) + [1]
        for d in range(1, e):
            if e % d == 0:
                num, rem = _ref_divmod(num, _ref_phi(d))
                assert not rem
        _REF_PHI[e] = num
    return _REF_PHI[e]


def _ref_reduce(p, e):
    width = len(_ref_phi(e)) - 1
    rem = _ref_divmod(p, _ref_phi(e))[1]
    return rem + [0] * (width - len(rem))


def _ref_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _ref(x):
    """A CycScalar or rational operand as an oracle value."""
    if isinstance(x, CycScalar):
        return x.order, list(x.coeffs)
    return 1, [x]


def _ref_lift(value, order):
    e, p = value
    k = order // e
    spread = [0] * ((len(p) - 1) * k + 1)
    for i, c in enumerate(p):
        spread[i * k] = c
    return _ref_reduce(spread, order)


def _ref_op(x, y, op):
    """(order, coefficients) of x op y for op in +, -, *, computed by the oracle."""
    (e, _), (f, _) = _ref(x), _ref(y)
    order = e * f // gcd(e, f)
    p, q = _ref_lift(_ref(x), order), _ref_lift(_ref(y), order)
    if op == "+":
        return order, [a + b for a, b in zip(p, q)]
    if op == "-":
        return order, [a - b for a, b in zip(p, q)]
    return order, _ref_reduce(_ref_product(p, q), order)


def _assert_matches(got, want, where):
    """got is the CycScalar (order, coefficients) want, each int when integral."""
    order, coeffs = want
    assert type(got) is CycScalar and type(got.coeffs) is tuple, where
    assert got.order == order and list(got.coeffs) == coeffs, where
    for c in got.coeffs:  # printed spec files depend on int for integral values
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), where


def _random_cyc(rng, e):
    width = len(_ref_phi(e)) - 1
    shape = rng.randrange(6)
    if shape == 0:
        coeffs = [0]
    elif shape == 1:
        coeffs = [rng.choice((1, -1))]
    elif shape == 2:
        coeffs = [0] * rng.randrange(width + 2) + [rng.choice((1, -1, 2, Fraction(1, 2)))]
    else:
        coeffs = [rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
                  for _ in range(rng.randint(1, width + 2))]
    return CycScalar(e, coeffs)


RATIONAL_OPERANDS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3), True)
ORACLE_ORDERS = tuple(range(1, 31)) + (ORDER_CAP,)


def _check_against_oracle(x, y):
    where = f"x={x!r}, y={y!r}"
    before = [(v.order, v.coeffs) for v in (x, y) if isinstance(v, CycScalar)]
    for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
        _assert_matches(got, _ref_op(x, y, op), f"{where}: x {op} y")
    order, diff = _ref_op(x, y, "-")
    assert (x == y) is (y == x) is (not any(diff)) is (not x != y), f"{where}: x == y"
    # The oracle has no inverse: x / y is the one value q with q * y == x.
    # A dense divisor is only tried in small fields, where the quotient's
    # coefficients stay short.
    sparse = sum(map(bool, _ref(y)[1])) <= 2
    if y and (sparse or euler_phi(order) <= 16):
        q = x / y
        _assert_matches(q, (order, list(q.coeffs)), f"{where}: x / y")
        assert _ref_op(q, y, "*") == (order, _ref_lift(_ref(x), order)), f"{where}: x / y"
    after = [(v.order, v.coeffs) for v in (x, y) if isinstance(v, CycScalar)]
    assert after == before, f"{where}: an operand was modified"


def _check_powers(x):
    before = (x.order, x.coeffs)
    order, p = _ref(x)
    one = _ref_lift((1, [1]), order)
    power = one
    for n in range(1, 6):
        power = _ref_reduce(_ref_product(power, p), order)
        _assert_matches(x ** n, (order, power), f"{x!r} ** {n}")
        # x ** -n times the oracle's x^n is 1; dense inverses only in small fields
        if x and n <= 2 and (sum(map(bool, p)) <= 2 or euler_phi(order) <= 16):
            got = x ** -n
            _assert_matches(got, (order, list(got.coeffs)), f"{x!r} ** -{n}")
            assert _ref_reduce(_ref_product(got.coeffs, power), order) == one, f"{x!r} ** -{n}"
    assert (x.order, x.coeffs) == before, f"{x!r} was modified"


def test_the_oracle_derives_the_cyclotomic_polynomials():
    # the hand table of test_cyclotomic_polynomials_match_hand_tables, for the oracle's own Phi
    assert _ref_phi(1) == [-1, 1] and _ref_phi(4) == [1, 0, 1] and _ref_phi(6) == [1, -1, 1]
    assert _ref_phi(12) == [1, 0, -1, 0, 1]
    for e in ORACLE_ORDERS:
        assert len(_ref_phi(e)) - 1 == euler_phi(e)


@pytest.mark.parametrize("e", ORACLE_ORDERS)
def test_same_order_arithmetic_matches_the_oracle(e):
    rng = random.Random(1000 + e)
    fixed = [CycScalar(e, [0]), CycScalar(e, [1]), CycScalar(e, [-1]), make_root(e),
             CycScalar(e, [Fraction(1, 2)]), CycScalar(e, [0, 2])]  # 1/2 times 2 is the int 1
    pool = [_random_cyc(rng, e) for _ in range(3)] + fixed
    pairs = [(x, y) for x in fixed for y in fixed]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(8)]
    for x, y in pairs:
        _check_against_oracle(x, y)
    for x in pool:
        for r in RATIONAL_OPERANDS:
            _check_against_oracle(x, r)
            _check_against_oracle(r, x)
    for x in pool[:3] + fixed[3:4]:
        _check_powers(x)


def test_mixed_order_arithmetic_matches_the_oracle():
    rng = random.Random(2718)
    for e in ORACLE_ORDERS:
        partners = [f for f in ORACLE_ORDERS if f != e and e * f // gcd(e, f) <= ORDER_CAP]
        for f in rng.sample(partners, min(2, len(partners))):
            for _ in range(2):
                x, y = _random_cyc(rng, e), _random_cyc(rng, f)
                _check_against_oracle(x, y)
                _check_against_oracle(y, x)


def test_sympy_agrees_with_the_oracle_and_the_products():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(4242)
    for e in ORACLE_ORDERS:
        phi = sympy.Poly(sympy.cyclotomic_poly(e, x), x)
        assert [int(c) for c in reversed(phi.all_coeffs())] == _ref_phi(e)
        for _ in range(2):
            a, b = _random_cyc(rng, e), _random_cyc(rng, e)
            pa, pb = (sympy.Poly(list(reversed([sympy.Rational(str(c)) for c in v.coeffs])), x)
                      for v in (a, b))
            rem = sympy.rem(pa * pb, phi)
            want = [Fraction(str(c)) for c in reversed(rem.all_coeffs())] if not rem.is_zero else []
            want += [Fraction(0)] * (euler_phi(e) - len(want))
            assert list((a * b).coeffs) == want, (a, b)


# -- the same-order product and sum caches -------------------------------------

CACHES = {"*": scalars._product, "+": scalars._sum}


def _clear_caches():
    for cached in CACHES.values():
        cached.cache_clear()


@pytest.mark.parametrize("e", ORACLE_ORDERS)
def test_cached_products_and_sums_equal_the_uncached_functions(e):
    rng = random.Random(3000 + e)
    pool = [_random_cyc(rng, e) for _ in range(4)]
    pool += [make_root(e), CycScalar(e, [Fraction(1, 2)]), CycScalar(e, [0, 2])]
    _clear_caches()
    for x in pool:
        for y in pool:
            for op, cached in CACHES.items():
                want = cached.__wrapped__(e, x.coeffs, y.coeffs)
                hits = cached.cache_info().hits
                for _ in range(2):  # a miss, then a hit
                    got = x * y if op == "*" else x + y
                    where = f"x={x!r} {op} y={y!r}"
                    assert type(got) is CycScalar and got == want, where
                    assert got.order == want.order == e, where
                    assert type(got.coeffs) is tuple and got.coeffs == want.coeffs, where
                    assert list(map(type, got.coeffs)) == list(map(type, want.coeffs)), where
                assert cached.cache_info().hits > hits, where


def test_the_order_is_part_of_the_cache_key():
    # one pair of tuples, (0, 1) and (0, 1), read in three fields of width 2
    _clear_caches()
    squares, doubles = {}, {}
    for e in (3, 4, 6):
        z = CycScalar(e, [0, 1])
        squares[e], doubles[e] = z * z, z + z
    assert {e: (v.order, v.coeffs) for e, v in squares.items()} == {
        3: (3, (-1, -1)), 4: (4, (-1, 0)), 6: (6, (-1, 1)),
    }
    assert {e: (v.order, v.coeffs) for e, v in doubles.items()} == {
        3: (3, (0, 2)), 4: (4, (0, 2)), 6: (6, (0, 2)),
    }


def test_a_cached_result_is_unchanged_by_later_arithmetic():
    _clear_caches()
    z = make_root(5)
    square, double = z * z, z + z
    kept = [(v.order, v.coeffs) for v in (square, double)]
    acc = square
    for k in range(30):
        acc = acc * square + double - z / (k + 1)
        acc = -(acc * Fraction(1, 3)) + square * double
    assert [(v.order, v.coeffs) for v in (square, double)] == kept
    assert z * z is square and z + z is double  # each repeat is the cached value itself
    assert [(v.order, v.coeffs) for v in (z * z, z + z)] == kept


def test_both_caches_are_bounded():
    _clear_caches()
    for cached in CACHES.values():
        assert isinstance(cached.cache_info().maxsize, int)
        assert cached.cache_info().maxsize == scalars.CACHE_SIZE
    for n in range(scalars.CACHE_SIZE + 10):
        CycScalar(4, [n, 1]) * CycScalar(4, [1, n])
        CycScalar(4, [n, 1]) + CycScalar(4, [1, n])
    for cached in CACHES.values():
        assert cached.cache_info().currsize == scalars.CACHE_SIZE
