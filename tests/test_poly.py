import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from robyclif.errors import InputError
from robyclif import kernel
from robyclif import poly as poly_module
from robyclif.freealg import _berkowitz_poly, monogenic_algebra
from robyclif.matrix import PolyMatrix
from robyclif.poly import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    HomForm,
    Poly,
    _coeff_text,
    _power_term_bound,
    _recoded,
    as_poly,
    parse_poly,
)
from robyclif.scalars import make_root


def V(name):
    return Poly.variable(name)


x, y, q, t = V("x"), V("y"), V("q"), V("t")


@pytest.fixture
def counted_mul_terms(monkeypatch):
    """A Counter of ``kernel.mul_terms`` calls."""
    calls = Counter()
    real = kernel.mul_terms

    def counted(a, b):
        calls["mul_terms"] += 1
        return real(a, b)

    monkeypatch.setattr(kernel, "mul_terms", counted)
    return calls


# -- the arithmetic Poly ran on exponent tuples, kept as an oracle -----------------
#
# Copies of the tuple-keyed product loop (``kernel.mul_into``), the context
# realignment (``poly._align_terms``), ``Poly.substitute`` and the display as
# they ran before keys were packed.  They share no key encoding, no width and
# no kernel call with the code under test.


def tuple_add_into(acc, b, sign=1):
    for exp, c in b.items():
        cur = acc.get(exp)
        if cur is None:
            acc[exp] = c if sign > 0 else -c
        else:
            cur = cur + c if sign > 0 else cur - c
            if cur:
                acc[exp] = cur
            else:
                del acc[exp]


def tuple_mul(a, b):
    """a * b on tuple keys: term by term, the shorter factor outermost (the left on a tie)."""
    acc = {}
    if not a or not b:
        return acc
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            cur = acc.get(exp)
            if cur is None:
                acc[exp] = c
            else:
                cur = cur + c
                if cur:
                    acc[exp] = cur
                else:
                    del acc[exp]
    return acc


def tuple_align(terms, old_vars, new_vars):
    """Exponent tuples remapped from old_vars to new_vars; a missing variable is 0."""
    if old_vars == new_vars or not terms:
        return terms
    pos = {v: i for i, v in enumerate(old_vars)}
    pad = len(old_vars)  # the index of the zero
    index = [pos.get(v, pad) for v in new_vars]
    return {tuple([(exp + (0,))[i] for i in index]): c for exp, c in terms.items()}


class TuplePoly:
    """``vars`` and a tuple-keyed ``terms`` map, with the Poly arithmetic of old."""

    def __init__(self, vars, terms):
        self.vars, self.terms = vars, terms

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): 1})

    @classmethod
    def const(cls, c):
        return cls((), {(): c} if c else {})

    def common(self, other):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        return vs, tuple_align(self.terms, self.vars, vs), tuple_align(other.terms, other.vars, vs)

    def __add__(self, other):
        vs, a, b = self.common(other)
        out = dict(a)
        tuple_add_into(out, b)
        return TuplePoly(vs, out)

    def __sub__(self, other):
        vs, a, b = self.common(other)
        out = dict(a)
        tuple_add_into(out, b, -1)
        return TuplePoly(vs, out)

    def __mul__(self, other):
        vs, a, b = self.common(other)
        return TuplePoly(vs, tuple_mul(a, b))

    def __pow__(self, n):
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def pruned(self):
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        vs = tuple(self.vars[i] for i in used)
        return TuplePoly(vs, tuple_align(self.terms, self.vars, vs))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        ordered = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))
        for exp, c in ordered:
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exp) if e)
            coeff, negative = _coeff_text(c)
            body = (mono if coeff == "1" else f"{coeff}*{mono}") if mono else coeff
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)


def old_substitute(p, bindings):
    """``Poly.substitute`` as it once ran on tuple keys, for key-for-key comparisons.

    It copies the running result once per term, and it multiplies by the
    value of a variable bound to itself.  p and the values are Polys or
    TuplePolys; only their ``vars`` and ``terms`` are read.
    """
    vals = {v: b if isinstance(b, TuplePoly) else as_poly(b)
            for v, b in bindings.items() if v in p.vars}
    keep = tuple(v for v in p.vars if v not in vals)
    new_vars = tuple(sorted(set(keep).union(*(b.vars for b in vals.values()))))
    pos = {v: i for i, v in enumerate(new_vars)}
    keep_idx = [(i, pos[v]) for i, v in enumerate(p.vars) if v not in vals]
    bound = [(i, v) for i, v in enumerate(p.vars) if v in vals]
    squares = {v: [tuple_align(b.terms, b.vars, new_vars)] for v, b in vals.items()}
    powers = {}

    def var_power(v, n):
        power = powers.get((v, n))
        if power is None:
            sq = squares[v]
            for i in range(n.bit_length()):
                if i == len(sq):
                    sq.append(tuple_mul(sq[-1], sq[-1]))
                if n >> i & 1:
                    power = sq[i] if power is None else tuple_mul(sq[i], power)
            powers[v, n] = power
        return power

    out = {}
    for exp, c in p.terms.items():
        base_exp = [0] * len(new_vars)
        for i, j in keep_idx:
            base_exp[j] = exp[i]
        acc = {tuple(base_exp): c}
        for i, v in bound:
            if exp[i]:
                acc = tuple_mul(acc, var_power(v, exp[i]))
        out = dict(out)
        tuple_add_into(out, acc)
    return TuplePoly(new_vars, out)


def typed_terms(p):
    """vars and {exponents: (coefficient, its type)}: a result up to its key order."""
    return p.vars, {exp: (c, type(c)) for exp, c in p.terms.items()}


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (x + y) * (x - y) == x * x - y * y

    def test_multiplication_by_zero(self):
        assert x * Poly.zero() == Poly.zero()
        assert (x * 0).is_zero()

    def test_binomial_coefficient(self):
        cube = (x + y) ** 3
        by_x = cube.coefficient_map("x")
        assert by_x[2] == 3 * y

    def test_cancellation_leaves_no_stored_terms(self):
        p = 2 * x * y - q ** 3 + Fraction(1, 2)
        assert (p + (-p)).terms == {}
        assert p - p == Poly.zero()

    def test_scalar_division(self):
        assert (2 * x) / 2 == x
        assert (x * make_root(4)) / make_root(4) == x
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(TypeError):
            x / y  # only scalar divisors make sense here

    def test_power_oracle_by_evaluation(self):
        p = (x + 1) ** 5
        assert p.substitute({"x": 1}).constant_value() == 32
        assert p.substitute({"x": 2}).constant_value() == 243

    def test_power_chain_does_one_product_per_step(self, counted_mul_terms):
        def old_pow(p, n):
            # the loop Poly.__pow__ once ran: from 1, squaring past the last bit
            result, base = Poly.const(1), p
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result

        bases = [x - Fraction(1, 2) * y, 3 * x * y, 2 * x + make_root(3), Poly.zero(), Poly.const(2)]
        for p in bases:
            for n in range(1, 34):
                want = old_pow(p, n)
                counted_mul_terms.clear()
                got = p ** n
                steps = (n.bit_length() - 1) + (bin(n).count("1") - 1)
                assert counted_mul_terms["mul_terms"] == steps, (p, n)
                assert got.vars == want.vars, (p, n)
                assert list(got.terms.items()) == list(want.terms.items()), (p, n)
            assert p ** 0 == 1


# (name, polynomial, bindings), each checked against the tuple loop
SUBSTITUTION_CASES = [
    ("mixed zero and nonzero bindings", "x^3*y*z - 2*x*z^2 + y^4*w - 3/4*x*y + z",
     {"x": 0, "y": "z - 1", "z": "2*w", "q": 0}),
    ("a value sharing a kept variable", "x^3*y - x*y^2 + 5*x^2 + y", {"x": "x + y"}),
    ("values widening fields past 8 bits", "x^200*y + x^3 - y^100*x",
     {"x": "y^2 + z", "y": "y + 1"}),
    ("cyclotomic values", "x^2*y - 2/3*x*y^3 + 7*x", {"x": "zeta3*y - 1", "y": "zeta4 + z"}),
]


class TestSubstitution:
    def test_line_restriction_pattern(self):
        p = parse_poly("x^2 + z2*y")
        assert p.substitute({"z2": Poly.zero()}) == x * x

    def test_self_substitution_cancels(self):
        p = parse_poly("t - x1")
        assert p.substitute({"x1": t}) == Poly.zero()

    def test_generic_quadratic_at_dual_point(self):
        # chi of R[z]/(z^2-q) at the generic element a+bz, worked by hand
        chi = parse_poly("t^2 - 2*a*t + a^2 - b^2*q")
        assert chi.substitute({"a": Poly.zero(), "b": Poly.const(1)}) == t * t - q

    def test_is_a_ring_morphism_on_random_inputs(self):
        rng = random.Random(11551)

        def rand_poly():
            p = Poly.zero()
            for _ in range(rng.randint(1, 5)):
                c = Fraction(rng.randint(-6, 6))
                p = p + c * x ** rng.randint(0, 3) * y ** rng.randint(0, 3)
            return p

        binding = {"x": y * y - 1, "y": q + 2}
        for _ in range(20):
            a, b = rand_poly(), rand_poly()
            assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)
            assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)

    def test_builds_only_the_powers_it_uses(self, counted_mul_terms):
        p = parse_poly("x^1000")
        counted_mul_terms.clear()
        got = p.substitute({"x": "y + 1"})
        assert counted_mul_terms["mul_terms"] <= 20
        assert got == (y + 1) ** 1000
        mixed = parse_poly("x^7*y + 3*x^6 - x^2*y^5 + x^7")
        assert mixed.substitute({"x": "y - 2", "y": "x + y"}) == (
            (y - 2) ** 7 * (x + y) + 3 * (y - 2) ** 6 - (y - 2) ** 2 * (x + y) ** 5 + (y - 2) ** 7
        )

    def test_accumulation_equals_the_old_loop_key_for_key(self, monkeypatch):
        rng = random.Random(11661)
        names = ("x", "y", "z", "w")
        z3 = make_root(3)

        def rand_poly(k):
            terms = {
                tuple(rng.randint(0, 4) for _ in names): rng.choice(
                    [1, -2, Fraction(3, 4), 5, z3, 1 - z3]
                )
                for _ in range(k)
            }
            return Poly(names, terms)

        copied = Counter()
        real_add_terms = kernel.add_terms

        def counted_add_terms(a, b):
            copied["entries"] += len(a)
            return real_add_terms(a, b)

        for trial in range(30):
            p = rand_poly(rng.randint(0, 60))
            bindings = {
                v: rand_poly(rng.randint(0, 3)).substitute({u: 1 for u in names if u != v})
                for v in rng.sample(names, rng.randint(1, 3))
            }
            bindings[rng.choice(names)] = rng.choice(["y + z2", "0", "x - 1", "zeta4*q"])
            want = old_substitute(p, bindings)
            monkeypatch.setattr(kernel, "add_terms", counted_add_terms)
            copied.clear()
            got = p.substitute(bindings)
            monkeypatch.setattr(kernel, "add_terms", real_add_terms)
            assert typed_terms(got) == typed_terms(want), trial
            assert copied["entries"] == 0, trial  # no running-result copies

    def test_a_variable_bound_to_itself_is_left_unbound(self, counted_mul_terms):
        rng = random.Random(11771)
        names = ("G1", "G2", "x", "y")
        z5 = make_root(5)

        def rand_poly(k):
            terms = {
                tuple(rng.randint(0, 3) for _ in names): rng.choice(
                    [1, -2, Fraction(3, 4), z5, 2 - z5]
                )
                for _ in range(k)
            }
            return Poly(names, terms)

        for trial in range(40):
            p = rand_poly(rng.randint(0, 40))
            # an unnarrowed Fraction(1) coefficient is a value, not the variable
            p = p + parse_poly("2*1/2*x*y")
            identity = {v: rng.choice([v, V(v)]) for v in rng.sample(names, rng.randint(1, 4))}
            counted_mul_terms.clear()
            got = p.substitute(identity)
            assert counted_mul_terms["mul_terms"] == 0, trial
            assert typed_terms(got) == typed_terms(old_substitute(p, identity)), trial
            mixed = dict(identity)
            mixed[rng.choice(names)] = rng.choice(["y + G2", "3/2", "x - 1", "zeta4*q", "2*1/2*x"])
            got = p.substitute(mixed)
            assert typed_terms(got) == typed_terms(old_substitute(p, mixed)), trial

    @pytest.mark.parametrize("name, text, bindings", SUBSTITUTION_CASES,
                             ids=[c[0] for c in SUBSTITUTION_CASES])
    def test_equals_the_old_loop(self, name, text, bindings):
        p = parse_poly(text)
        want = old_substitute(p, bindings)
        assert typed_terms(p.substitute(bindings)) == typed_terms(want), name
        # entrywise, among other entries of one matrix
        other = parse_poly("x*y - 1")
        got = PolyMatrix.from_rows([[p, other], [0, p]]).substitute(bindings)
        assert got.entry(0, 0) == got.entry(1, 1) == Poly(want.vars, want.terms), name
        assert got.entry(0, 1) == other.substitute(bindings) and not got.entry(1, 0), name

    def test_a_matrix_builds_each_power_once(self, counted_mul_terms):
        # 36 entries, each with one group under x (x^4 or x^5): one product per
        # entry, and x^2, x^4 and x^5 = x * x^4 once for the whole matrix
        m = PolyMatrix.from_rows(
            [[f"{i + 1}*x^{4 + (i + j) % 2}*y^{j} + z^{i}" for j in range(6)] for i in range(6)]
        )
        counted_mul_terms.clear()
        got = m.substitute({"x": "y + 1"})
        assert counted_mul_terms["mul_terms"] == 36 + 3
        assert list(got.rows()) == [[e.substitute({"x": "y + 1"}) for e in row] for row in m.rows()]

    def test_chi_takes_one_product_per_group_plus_the_powers(self, counted_mul_terms):
        text = "z^6 - x*z^4 - y*z^3 - x^6 - y^6 - z2^6"  # the sextic_mixed cover
        generic, bindings = monogenic_algebra(parse_poly(text), "z").generic
        chi = _berkowitz_poly(generic)
        bound = [chi.vars.index(v) for v in bindings]
        groups = {tuple(exp[i] for i in bound) for exp in chi.terms} - {(0,) * len(bound)}
        # binary powering: the squares of each value, then one product per
        # further bit of a group's exponents
        squares = sum(max(g[k] for g in groups).bit_length() - 1 for k in range(len(bound)))
        joins = sum(sum(bin(e).count("1") for e in g) - 1 for g in groups)
        counted_mul_terms.clear()
        got = chi.substitute(bindings)
        assert counted_mul_terms["mul_terms"] <= len(groups) + squares + joins
        assert typed_terms(got) == typed_terms(old_substitute(chi, bindings))

    def test_simultaneous_not_sequential(self):
        p = x + y
        swapped = p.substitute({"x": y, "y": x})
        assert swapped == x + y

    def test_evaluate_to_scalar(self):
        p = parse_poly("3/2*x^2*y - q")
        at = p.substitute({"x": 2, "y": 3, "q": Fraction(1, 2)})
        assert at.constant_value() == Fraction(35, 2)


def packed_realign(terms, old_vars, new_vars, width, new_width):
    """Tuple keys packed over old_vars, re-encoded over new_vars, and decoded."""
    packed = _recoded(kernel.pack(terms, width), old_vars, width, new_vars, new_width)
    return kernel.unpack(packed, len(new_vars), new_width)


class TestStructure:
    def test_degrees(self):
        p = parse_poly("x^2*y + q")
        assert p.total_degree() == 3
        assert p.degree_in("x") == 2
        assert p.degree_in("missing") == 0
        assert Poly.zero().total_degree() is None

    def test_homogeneous_degree(self):
        assert (x * x + x * y).homogeneous_degree() == 2
        assert (x * x + y).homogeneous_degree() is None
        assert Poly.zero().homogeneous_degree() == 0
        mixed = x * x * q + y * y
        assert mixed.homogeneous_degree(("x", "y")) == 2

    @pytest.mark.parametrize("terms", [
        {(200, 100): 1, (1, 0): 1},  # x^200*y^100 + x
        {(200, 100): 1, (150, 150): -2},
        {(254, 254, 254): 1, (0, 0, 1): 3},
    ])
    def test_degrees_whose_field_maxima_pass_the_mask(self, terms):
        p = Poly(("q", "x", "y")[-len(next(iter(terms))):], terms)
        # 8-bit fields whose bounds sum past 255, so _degrees sums each key's fields
        assert p.width == 8 and sum(p._fields()) >= 255
        sums = [sum(exp) for exp in p.terms]
        assert p.total_degree() == max(sums)
        assert p.homogeneous_degree() == (sums[0] if len(set(sums)) == 1 else None)
        in_xy = [sum(e for v, e in zip(p.vars, exp) if v in ("x", "y")) for exp in p.terms]
        assert p.homogeneous_degree(("x", "y")) == (
            in_xy[0] if len(set(in_xy)) == 1 else None
        )

    def test_coefficient_map(self):
        p = x * x * y + 2 * x * x + y ** 3
        m = p.coefficient_map("x")
        assert set(m) == {0, 2}
        assert m[2] == y + 2
        assert m[0] == y ** 3

    def test_equality_ignores_context_padding(self):
        padded = (x + y) - y
        assert padded == x
        assert padded.pruned().vars == ("x",)

    def test_constant_queries(self):
        assert Poly.const(Fraction(5, 3)).constant_value() == Fraction(5, 3)
        assert Poly.zero().constant_value() == 0
        with pytest.raises(InputError):
            x.constant_value()

    def test_a_repeated_variable_is_input_error(self):
        # exponents of a repeated name once overwrote each other: x^2 for x^1 * x^2
        for terms in ({(1, 2): 1}, {(1, 2): 1, (2, 1): 1}, {}):
            with pytest.raises(InputError, match="variable 'x' appears twice"):
                Poly(("x", "x"), terms)
        with pytest.raises(InputError, match="variable 'y' appears twice"):
            Poly(("y", "x", "y"), {(1, 1, 1): 1})

    def test_polys_are_unhashable(self):
        with pytest.raises(TypeError):
            {x: 1}

    def test_alignment_equals_the_old_loop_key_for_key(self):
        # the tuple realignment once ran by _align_terms, against the packed
        # re-encoding every context crossing now takes
        def old_align(terms, old_vars, new_vars):
            # the per-key loop _align_terms once ran
            if old_vars == new_vars or not terms:
                return terms
            pos = {v: i for i, v in enumerate(new_vars)}
            idx = [pos[v] for v in old_vars]
            out = {}
            for exp, c in terms.items():
                new_exp = [0] * len(new_vars)
                for i, e in enumerate(exp):
                    if e:
                        new_exp[idx[i]] = e
                out[tuple(new_exp)] = c
            return out

        rng = random.Random(48)
        names = ("a", "q", "x", "y", "z2")
        for trial in range(300):
            new_vars = tuple(sorted(rng.sample(names, rng.randrange(0, 6))))
            old_vars = tuple(v for v in new_vars if rng.random() < 0.6)
            terms = {
                tuple(rng.randrange(0, 300) for _ in old_vars): rng.choice((1, -2, Fraction(1, 3)))
                for _ in range(rng.randrange(0, 6))
            }
            for width, new_width in ((16, 16), (16, 24)):
                got = packed_realign(terms, old_vars, new_vars, width, new_width)
                want = old_align(terms, old_vars, new_vars)
                assert list(got.items()) == list(want.items()), (trial, old_vars, new_vars)

    def test_alignment_to_a_subset_context_drops_zero_fields(self):
        rng = random.Random(49)
        names = ("a", "q", "x", "y", "z2")
        for trial in range(300):
            old_vars = tuple(sorted(rng.sample(names, rng.randrange(0, 6))))
            new_vars = tuple(v for v in names if v in old_vars and rng.random() < 0.5 or
                             v not in old_vars and rng.random() < 0.3)
            kept = [i for i, v in enumerate(old_vars) if v in new_vars]
            terms = {
                tuple(rng.randrange(0, 300) if i in kept else 0 for i in range(len(old_vars))):
                    rng.choice((1, -2, Fraction(1, 3)))
                for _ in range(rng.randrange(0, 6))
            }
            want = {
                tuple(exp[old_vars.index(v)] if v in old_vars else 0 for v in new_vars): c
                for exp, c in terms.items()
            }
            for width, new_width in ((16, 16), (24, 16)):
                got = packed_realign(terms, old_vars, new_vars, width, new_width)
                assert list(got.items()) == list(want.items()), (trial, old_vars, new_vars)


class TestTextFormat:
    def test_parse_display_round_trip(self):
        for text in (
            "3/2*x^2*y - z2",
            "x^2 - 2*x*y + y^2 + 1",
            "-(x - y)*(x + y)",
            "zeta6*x + 7/3",
            "q^4 - 1/2",
        ):
            p = parse_poly(text)
            assert parse_poly(str(p)) == p

    def test_display_order_is_deterministic(self):
        assert str(y + x + x * x) == "x^2 + x + y"
        assert str(Poly.zero()) == "0"
        assert str(x - y) == "x - y"

    def test_zeta_atoms(self):
        z3 = make_root(3)
        p = parse_poly("zeta3*x + zeta3^2*x")
        assert p == -x  # 1 + zeta3 + zeta3^2 = 0
        assert parse_poly("zeta4^2") == Poly.const(-1)
        printed = str(Poly.const(1 + z3) * x)
        assert "zeta3" in printed
        assert parse_poly(printed) == (1 + z3) * x

    def test_rational_roots_are_stored_as_rationals(self):
        # zeta2 = -1 is stored as the int -1, so an order-2 factor no longer
        # lifts a product to the lcm order: the value -zeta3 prints at order 3
        # where the order-6 residue printed as (1 - zeta6)*x.
        p = parse_poly("zeta2*zeta3*x")
        assert str(p) == "(-zeta3)*x"
        assert p == parse_poly("(1 - zeta6)*x")
        for text in ("(-zeta3)*x", "(1 - zeta6)*x"):
            assert parse_poly(str(parse_poly(text))) == p
        assert list(parse_poly("zeta2*x + zeta1").terms.items()) == [((1,), -1), ((0,), 1)]
        assert all(type(c) is int for c in parse_poly("zeta2*x + zeta1").terms.values())

    def test_zeta_names_are_reserved(self):
        with pytest.raises(InputError):
            Poly.variable("zeta5")
        assert parse_poly("zetaish + zeta_5") == V("zetaish") + V("zeta_5")

    def test_parse_errors(self):
        for bad in ("", "x +", "x^-1", "2x", "x^y", "(x", "x & y"):
            with pytest.raises(InputError):
                parse_poly(bad)

    def test_implicit_products_are_rejected(self):
        with pytest.raises(InputError):
            parse_poly("3x")

    @pytest.mark.parametrize(
        "text", ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"], ids=["parens", "signs"]
    )
    def test_deep_nesting_is_input_error(self, text):
        with pytest.raises(InputError, match="nested too deeply"):
            parse_poly(text)

    def test_nesting_up_to_the_cap_parses(self):
        depth = MAX_NESTING // 2
        assert parse_poly("(" * depth + "-x" + ")" * depth) == -x
        assert parse_poly("-" * MAX_NESTING + "x") == x

    @pytest.mark.parametrize("text", ["(x+y+z+w+u)^20", "(x+y+z+w+u)^10", "2*(x - y + 1)^50"])
    def test_power_above_the_term_cap_is_refused_before_expanding(self, text, monkeypatch):
        def no_expansion(self, n):
            raise AssertionError("the power was expanded")

        monkeypatch.setattr(Poly, "__pow__", no_expansion)
        with pytest.raises(InputError, match=f"above the cap {MAX_POWER_TERMS}"):
            parse_poly(text)

    def test_power_at_the_term_cap_parses(self, monkeypatch):
        monkeypatch.setattr(poly_module, "MAX_POWER_TERMS", 10)
        assert len(parse_poly("(x+y)^9").terms) == 10
        with pytest.raises(InputError, match="may expand to 11 terms, above the cap 10"):
            parse_poly("(x+y)^10")
        # one term stays one term, whatever the exponent
        assert parse_poly("(3*x*y^2)^400") == Poly.const(3**400) * x**400 * y**800
        assert parse_poly("(x - x)^5") == Poly.zero()
        assert parse_poly("(x - x)^0") == Poly.const(1)

    @pytest.mark.parametrize(
        "text, refused, message",
        [
            ("x^99999999999999*y", 99999999999999, "power ^99999999999999 is above the exponent cap"),
            ("(3*x)^30000000", 30000000, "power ^30000000 is above the exponent cap"),
            ("x^1001", 1001, "power ^1001 is above the exponent cap"),
            ("2^1001", 1001, "power ^1001 is above the exponent cap"),
            # N is refused before the term bound is computed or printed
            ("(x^2)^" + "9" * 4300, int("9" * 4300), "is above the exponent cap"),
            ("(x+y+1)^" + "9" * 2200, int("9" * 2200), "is above the exponent cap"),
            ("(x^2)^501", 501, "gives exponent 1002, above the cap"),
            ("(x^999*y)^2", 2, "gives exponent 1998, above the cap"),
            ("(x^500 + y)^3", 3, "gives exponent 1500, above the cap"),
        ],
        ids=["x^14 digits", "one-term base", "x^1001", "2^1001", "4300 digits",
             "2200 digits", "(x^2)^501", "(x^999*y)^2", "(x^500 + y)^3"],
    )
    def test_exponent_above_the_cap_is_refused_before_expanding(
        self, text, refused, message, monkeypatch
    ):
        real_pow = Poly.__pow__

        def inner_powers_only(self, n):
            assert n != refused, "the refused power was expanded"
            return real_pow(self, n)

        real_bound = poly_module._power_term_bound

        def inner_bounds_only(base, n):
            assert n != refused, "a term bound was computed for the refused power"
            return real_bound(base, n)

        monkeypatch.setattr(Poly, "__pow__", inner_powers_only)
        monkeypatch.setattr(poly_module, "_power_term_bound", inner_bounds_only)
        with pytest.raises(InputError, match=f"{re.escape(message)} {MAX_EXPONENT}$"):
            parse_poly(text)

    def test_exponents_at_the_cap_parse(self):
        assert MAX_EXPONENT == 1000
        assert parse_poly("x^1000").terms == {(1000,): 1}
        assert parse_poly("(x^2*y)^500").terms == {(1000, 500): 1}
        assert parse_poly("(x^10 - y)^100") == (x**10 - y) ** 100
        assert parse_poly("2^1000") == Poly.const(2**1000)
        assert parse_poly("(x^999)^1").terms == {(999,): 1}
        # products are not powers: their exponents add past the cap
        assert parse_poly("x^1000*x^1000").terms == {(2000,): 1}

    def test_coefficient_growth_is_refused_before_expanding(self, monkeypatch):
        assert MAX_POWER_BITS == 100_000
        big = 2**200 - 1  # 200 bits: ^500 is exactly at the cap, ^501 above it
        assert parse_poly(f"({big}*x)^500") == Poly.const(big**500) * x**500
        monkeypatch.setattr(Poly, "__pow__", lambda self, n: pytest.fail("the power was expanded"))
        with pytest.raises(InputError, match="may give a 100200-bit coefficient, above the cap 100000"):
            parse_poly(f"({big}*x)^501")
        with pytest.raises(InputError, match="100200-bit"):
            parse_poly(f"(1/{big}*x)^501")  # a denominator counts too
        with pytest.raises(InputError, match="100200-bit"):
            parse_poly(f"({big} + x)^501")  # so does the largest coefficient of any base
        with pytest.raises(InputError, match="100200-bit"):
            parse_poly(f"({big}*zeta3)^501")

    @pytest.mark.parametrize(
        "text", ["(x+y)*(z+w)^2 - (w+x)*y", "(x - 1)*(y + 2*z)*(w^2 + x)", "(G1 + t)^3*(x + y)"]
    )
    def test_factors_over_different_variables_realign_nothing(self, text, monkeypatch):
        calls = Counter()
        real = poly_module._recoder

        def counted(*args):
            calls["recode"] += 1
            return real(*args)

        monkeypatch.setattr(poly_module, "_recoder", counted)
        p = parse_poly(text)
        assert calls["recode"] == 0
        monkeypatch.setattr(poly_module, "_recoder", real)
        names = {v: V(v) for v in ("G1", "t", "w", "x", "y", "z")}
        assert p == eval(text.replace("^", "**"), names)

    def test_numbers_too_long_to_convert_are_input_errors(self):
        for text in ("x^" + "9" * 5000, "9" * 5000 + "*x", "1/" + "7" * 5000):
            with pytest.raises(InputError, match="characters is too long"):
                parse_poly(text)

    def test_poly_constructor_rejects_bad_exponents(self):
        for exp in ((-1, 0), (0, Fraction(1, 2)), (1.0, 0)):
            with pytest.raises(InputError, match="nonnegative integers"):
                Poly(("x", "y"), {exp: 1})

    def test_power_term_bound_is_an_upper_bound(self):
        rng = random.Random(5)
        for _ in range(150):
            names = rng.choice((("x", "y"), ("w", "x", "y", "z")))
            terms = {
                tuple(rng.randint(0, 2) for _ in names): rng.choice([1, -2, Fraction(1, 3), 5])
                for _ in range(rng.randint(0, 9))
            }
            base = Poly(names, terms)
            n = rng.randint(0, 4 if len(names) == 2 else 3)
            assert len((base ** n).terms) <= _power_term_bound(base, n), (base, n)
        # a linear form reaches the count of products, C(t + n - 1, n) ...
        assert _power_term_bound(parse_poly("x+y+z+w+u"), 20) == 10626
        assert len((parse_poly("x+y+z") ** 6).terms) == _power_term_bound(parse_poly("x+y+z"), 6) == 28
        # ... and a dense quadric the count of monomials, C(k + n*deg, k)
        dense = parse_poly("x^2 + x*y + y^2 + x + y + 1")
        assert len((dense ** 3).terms) == _power_term_bound(dense, 3) == 28


def running_product(factors):
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc


TX, TY, TC = TuplePoly.variable("x"), TuplePoly.variable("y"), TuplePoly.const

# (name, the Poly under test, the tuple-loop oracle): every case reaches an
# exponent above 255, where one-byte fields widen, and those marked 65,535
# above two bytes
FIELD_WIDTH_CASES = [
    ("product x^200*x^100", lambda: x**200 * x**100, lambda: TX**200 * TX**100),
    ("product of two sums", lambda: (x**200 + y) * (x**100 - 2 * y**60),
     lambda: (TX**200 + TY) * (TX**100 - TC(2) * TY**60)),
    ("65,535: 66 factors of x^1000", lambda: running_product([x**1000] * 66),
     lambda: running_product([TX**1000] * 66)),
    ("65,535: x^70000*x", lambda: Poly.variable("x") ** 70000 * x, lambda: TX**70000 * TX),
    ("65,535: sum", lambda: x**300 + x**70000 - y**256 + 1,
     lambda: TX**300 + TX**70000 - TY**256 + TC(1)),
    ("sum that cancels the widest term", lambda: (x**300 + y) - (x**300 - x**256),
     lambda: (TX**300 + TY) - (TX**300 - TX**256)),
    ("power (x^128 + y)^2", lambda: (x**128 + y) ** 2, lambda: (TX**128 + TY) ** 2),
    ("power (x + y^300 + 1)^3", lambda: (x + y**300 + 1) ** 3,
     lambda: (TX + TY**300 + TC(1)) ** 3),
    ("power (x^255 + 1)^257 at 65,535", lambda: (x**255 + 1) ** 257,
     lambda: (TX**255 + TC(1)) ** 257),
    ("65,535: power (x^256 + 1)^256", lambda: (x**256 + 1) ** 256,
     lambda: (TX**256 + TC(1)) ** 256),
    ("65,535: substitute y^250 + 1 for x in x^300*y + x",
     lambda: (x**300 * y + x).substitute({"x": y**250 + 1}),
     lambda: old_substitute(TX**300 * TY + TX, {"x": TY**250 + TC(1)})),
    ("substitute x^300*y for y in x^2*y^200",
     lambda: (x**2 * y**200).substitute({"y": x**300 * y}),
     lambda: old_substitute(TX**2 * TY**200, {"y": TX**300 * TY})),
    ("65,535: substitute y^2 for x in x^70000 - 3/2",
     lambda: (x**70000 - Fraction(3, 2)).substitute({"x": y**2}),
     lambda: old_substitute(TX**70000 - TC(Fraction(3, 2)), {"x": TY**2})),
    ("parsed x^200*x^100", lambda: parse_poly("x^200*x^100"), lambda: TX**200 * TX**100),
    ("65,535: parsed 66 factors of x^1000", lambda: parse_poly("*".join(["x^1000"] * 66)),
     lambda: running_product([TX**1000] * 66)),
    ("parsed (x^128 + y)^2", lambda: parse_poly("(x^128 + y)^2"), lambda: (TX**128 + TY) ** 2),
    ("parsed sum of wide products", lambda: parse_poly("x^255*y + x*y^255*x - 3/2*x^256"),
     lambda: TX**255 * TY + TX * TY**255 * TX - TC(Fraction(3, 2)) * TX**256),
    ("parsed (x^200 + 1)*(x^100 - y^300)", lambda: parse_poly("(x^200 + 1)*(x^100 - y^300)"),
     lambda: (TX**200 + TC(1)) * (TX**100 - TY**300)),
    ("parsed one-term powers", lambda: parse_poly("(x^250*y^2)^4 + (2*x^100)^3"),
     lambda: (TX**250 * TY**2) ** 4 + (TC(2) * TX**100) ** 3),
]


class TestFieldWidths:
    """Products, sums, powers, substitutions and parses across 255 and 65,535."""

    @pytest.mark.parametrize("name, build, oracle", FIELD_WIDTH_CASES,
                             ids=[c[0] for c in FIELD_WIDTH_CASES])
    def test_equals_the_tuple_loop(self, name, build, oracle):
        got, want = build(), oracle()
        top = max(e for exp in want.terms for e in exp)
        assert top > (65535 if name.startswith("65,535") else 255), name
        assert got == Poly(want.vars, want.terms), name
        assert got.vars == want.vars, name
        assert list(got.terms.items()) == list(want.terms.items()), name
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
        assert str(got) == str(want), name
        # into a matrix and out again
        entry = PolyMatrix.from_rows([[got]]).entry(0, 0)
        pruned = want.pruned()
        assert entry.vars == pruned.vars, name
        assert list(entry.terms.items()) == list(pruned.terms.items()), name
        assert str(entry) == str(got), name


class TestHomForm:
    def test_accepts_homogeneous_forms(self):
        f = HomForm(parse_poly("x^2 + q*x*y"), 2, ("x", "y"))
        assert f.degree == 2

    def test_rejects_inhomogeneous(self):
        with pytest.raises(InputError):
            HomForm(parse_poly("x^2 + y"), 2, ("x", "y"))
        with pytest.raises(InputError):
            HomForm(parse_poly("x^3"), 2, ("x", "y"))

    def test_single_term_split(self):
        f = HomForm(parse_poly("3/2*q*x^2*y"), 3, ("x", "y"))
        coeff, args = f.single_term()
        assert coeff == Fraction(3, 2) * q
        assert args == {"x": 2, "y": 1}
        with pytest.raises(InputError):
            HomForm(parse_poly("x^2 + y^2"), 2, ("x", "y")).single_term()
