"""Exact cyclotomic arithmetic: construction, field laws, serialization."""

import random
from fractions import Fraction

import pytest

from robyclif import scalars
from robyclif.errors import InputError
from robyclif.scalars import (
    ORDER_CAP,
    CycScalar,
    cyc_arith,
    cyclotomic_polynomial,
    euler_phi,
    is_primitive_root,
    make_root,
    parse_scalar,
    scalar_to_string,
)


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


def test_cyc_arith_oracles():
    z4 = make_root(4)
    z3 = make_root(3)
    z6 = make_root(6)
    assert cyc_arith(z4, z4, "mul") == -1
    assert cyc_arith(z3, z3, "div") == 1
    # |1 + zeta_6|^2 expanded by hand in Q(zeta_6)
    assert cyc_arith(1 + z6, 1 + z6 ** -1, "mul") == 3


def test_cyc_arith_is_exact_on_every_pairing():
    # cyc_arith(1, 2, "div") was the float 0.5 while division was plain ``/``
    assert cyc_arith(1, 2, "div") == Fraction(1, 2)
    assert type(cyc_arith(1, 2, "div")) is Fraction
    assert type(cyc_arith(6, -3, "div")) is int and cyc_arith(6, -3, "div") == -2
    values = [1, -3, 7, Fraction(1, 2), Fraction(4), make_root(2), make_root(3), 2 - make_root(4)]

    def in_q12(v):
        return v.lift(12) if isinstance(v, CycScalar) else CycScalar(12, [v])

    for a in values:
        for b in values:
            for op in ("add", "sub", "mul", "div"):
                got = cyc_arith(a, b, op)
                assert type(got) in (int, Fraction, CycScalar), (a, b, op, got)
                assert got == cyc_arith(in_q12(a), in_q12(b), op), (a, b, op, got)


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


def test_cyc_arith_rejects_unknown_op():
    with pytest.raises(InputError):
        cyc_arith(make_root(3), make_root(3), "pow")


def test_division_by_zero():
    z = make_root(5)
    zero = z - z
    with pytest.raises(ZeroDivisionError):
        cyc_arith(z, zero, "div")
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
        s = scalar_to_string(x)
        assert parse_scalar(s) == x


def test_serialization_formats():
    assert scalar_to_string(Fraction(3, 2)) == "3/2"
    assert scalar_to_string(make_root(6)) == "poly(6; 0, 1)"
    # a cyclotomic that collapses to a rational prints as one
    assert scalar_to_string(make_root(2)) == "-1"
    assert parse_scalar("poly(4; 1/2, -1)") == Fraction(1, 2) - make_root(4)


def test_parse_scalar_rejects_garbage():
    for bad in ("", "x", "poly(4)", "poly(a; 1)", "1/0x", "poly(4; zeta)"):
        with pytest.raises(InputError):
            parse_scalar(bad)


def test_parse_scalar_caps_the_field_order():
    assert parse_scalar(f"poly({ORDER_CAP}; 0, 1)") == make_root(ORDER_CAP)
    with pytest.raises(InputError, match=f"order 5000 exceeds the cap {ORDER_CAP}"):
        parse_scalar("poly(5000; 0, 1)")
    with pytest.raises(InputError, match="exceeds the cap"):
        parse_scalar(f"poly({ORDER_CAP + 1}; 1)")


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
