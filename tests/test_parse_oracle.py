"""The one-context parser against the Poly-arithmetic parser it must match.

``old_parse_poly`` below is that parser, copied unchanged apart from names:
it tokenizes into ``(kind, value)`` pairs and builds every atom, product and
sum as a ``Poly``.  On a seeded corpus the two must give the same ``vars``,
the same term map in the same key order, and the same coefficient types; on
invalid texts, the same exception type and message.  The one intended
difference is a zero denominator, which was a ``ZeroDivisionError``.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from robyclif import kernel
from robyclif import poly as poly_module
from robyclif.errors import InputError
from robyclif.freealg import FreeAlgebra, monogenic_algebra, split_algebra
from robyclif.poly import MAX_EXPONENT, MAX_POWER_BITS, MAX_POWER_TERMS, Poly, parse_poly
from robyclif.scalars import CycScalar, make_root, narrow
from robyclif.seeds import companion_matrix, cyclic_cover_seed, mf_seed
from robyclif.specfile import (
    parse_algebra,
    parse_roby_module,
    render_algebra,
    render_roby_module,
)

# -- the replaced parser -----------------------------------------------------------

_ZETA_RE = re.compile(r"zeta([0-9]+)\Z")

_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:\s*/\s*[0-9]+)?)|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _old_tokenize(text: str):
    pos, tokens = 0, []
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"cannot tokenize polynomial at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "number":
            number = m.group("number")
            try:
                value = Fraction(number.replace(" ", ""))
            except ValueError:  # more digits than int() converts
                raise InputError(f"number of {len(number)} characters is too long") from None
            tokens.append(("number", narrow(value)))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


def _old_check_power(base: Poly, n: int) -> None:
    if n > MAX_EXPONENT:
        raise InputError(f"power ^{n} is above the exponent cap {MAX_EXPONENT}")
    largest = max((max(exp, default=0) for exp in base.terms), default=0)
    top = n * largest
    if top > MAX_EXPONENT:
        raise InputError(f"power ^{n} gives exponent {top}, above the cap {MAX_EXPONENT}")
    bound = poly_module._power_term_bound(base, n)
    if bound > MAX_POWER_TERMS:
        raise InputError(
            f"power ^{n} may expand to {bound} terms, above the cap {MAX_POWER_TERMS}"
        )
    bits = n * max(map(poly_module._coeff_bits, base.terms.values()), default=0)
    if bits > MAX_POWER_BITS:
        raise InputError(
            f"power ^{n} may give a {bits}-bit coefficient, above the cap {MAX_POWER_BITS}"
        )


class _OldParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def enter(self):
        self.depth += 1
        if self.depth > poly_module.MAX_NESTING:
            raise InputError("polynomial nested too deeply")

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise InputError(f"expected {op!r} in polynomial")

    def parse_expr(self) -> Poly:
        result = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                result = result + rhs if val == "+" else result - rhs
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Poly:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            self.enter()
            inner = self.parse_factor()
            self.depth -= 1
            return inner if val == "+" else -inner
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "number" or exp.denominator != 1 or exp < 0:
                raise InputError("exponent must be a nonnegative integer")
            _old_check_power(base, exp)
            return base ** exp
        return base

    def parse_atom(self) -> Poly:
        kind, val = self.take()
        if kind == "number":
            return Poly.const(val)
        if kind == "name":
            m = _ZETA_RE.fullmatch(val)
            if m:
                return Poly.const(make_root(int(m.group(1))))
            return Poly.variable(val)
        if kind == "op" and val == "(":
            self.enter()
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise InputError(f"unexpected token in polynomial: {val!r}")


def old_parse_poly(text: str) -> Poly:
    if not isinstance(text, str) or not text.strip():
        raise InputError("empty polynomial string")
    parser = _OldParser(_old_tokenize(text))
    result = parser.parse_expr()
    kind, val = parser.peek()
    if kind != "end":
        raise InputError(f"trailing input in polynomial: {val!r}")
    return result


# -- the corpus ------------------------------------------------------------------------

NAMES = ("x", "y", "z", "w", "G1", "t")
ZETAS = ("zeta1", "zeta2", "zeta3", "zeta4", "zeta6")


def _space(rng):
    return rng.choice(("", "", "", " ", "  ", "\t"))


def _atom(rng, depth):
    roll = rng.random()
    if roll < 0.2:
        return str(rng.choice((0, 1, 1, 2, 3, 7, 12, 10**30)))
    if roll < 0.3:
        return f"{rng.randrange(0, 9)}{rng.choice(('/', ' / ', '/ '))}{rng.randrange(1, 7)}"
    if roll < 0.45:
        return rng.choice(ZETAS)
    if roll < 0.85 or depth >= 3:
        return rng.choice(NAMES)
    inner = _expr(rng, depth + 1, rng.randrange(1, 4))
    return f"({_space(rng)}{inner}{_space(rng)})"


def _factor(rng, depth):
    signs = "".join(rng.choice("-+-") for _ in range(rng.choice((0, 0, 0, 1, 2, 3))))
    atom = _atom(rng, depth)
    if rng.random() < 0.3:
        # several-term bases get small exponents, so expansions stay small
        n = rng.choice((0, 1, 2, 3)) if atom.startswith("(") else rng.choice((0, 1, 2, 3, 5, 12))
        atom += f"{_space(rng)}^{_space(rng)}{n}"
    return signs + atom


def _term(rng, depth):
    factors = [_factor(rng, depth) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.08:
        factors.insert(rng.randrange(len(factors) + 1), "0")
    return f"{_space(rng)}*{_space(rng)}".join(factors)


def _expr(rng, depth, n_terms):
    terms = [_term(rng, depth) for _ in range(n_terms)]
    if rng.random() < 0.3:
        # a cancellation, and a key deleted then inserted again
        again = rng.choice(terms)
        terms += [f"-({again})", again] if rng.random() < 0.5 else [f"-{again}"]
    out = terms[0]
    for t in terms[1:]:
        out += f"{_space(rng)}{rng.choice('+-')}{_space(rng)}{t}"
    return out


def corpus(seed, size):
    rng = random.Random(seed)
    return [_expr(rng, 0, rng.randrange(1, 7)) for _ in range(size)]


def invalid_corpus(seed, size):
    """Valid texts with one character inserted, deleted or replaced."""
    rng = random.Random(seed)
    out = []
    for text in corpus(seed + 1, size):
        i = rng.randrange(len(text) + 1)
        roll = rng.random()
        junk = rng.choice("$&)(^*+-/ 0x.,")
        if roll < 0.4:
            text = text[:i] + junk + text[i:]
        elif roll < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + junk + text[i + 1:]
        out.append(text)
    return out


def snapshot(p: Poly):
    """vars, the term map in key order, and every coefficient's exact type."""
    types = [
        (type(c), c.order, tuple(map(type, c.coeffs))) if isinstance(c, CycScalar) else type(c)
        for c in p.terms.values()
    ]
    return p.vars, list(p.terms.items()), types


def outcome(parse, text):
    try:
        return "ok", snapshot(parse(text))
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


EDGE_TEXTS = [
    "x^0", "x*0", "0*x", "x^0*y", "(x)^0", "(x - x)", "(x - x)^0", "(x - x)^2", "(x + y - y)",
    "(x*0 + y)^0", "x - x", "x - x + x", "2*x - 2*x + y + 2*x", "zeta2*x + zeta1",
    "zeta4^2", "zeta4^2*x", "-zeta3^2", "2*zeta3*1/2", "(1/2*zeta3)*2", "zeta6*zeta3 - zeta2",
    "zeta3 + zeta4", "(zeta4)*x^4 + (zeta4)*y^4", "(-zeta4)", "-(x - y)*(x + y)", "--x", "+-+x",
    "-x^2", "-2^2", "(-2)^2", "x^4/2", "3 / 4*x", "  x  +  y  ", "\tx*\ty\n", "(x+y)^3*2",
    "2*(x+y)*3", "(x+y)*(x-y)*z", "(x+y)*z*(x-y)", "((((x))))", "(((x+1)^2)^2)", "x*(y)",
    "0", "-0", "0^0", "0^3", "1", "-1", "7/1", "0/5", "10/4*x",
    "-G4^4*x^12 - 3*G4^4*x^8*y^4 + G1^4 - 4*G1^3*t + t^4",
    # one-term products: a field widens inside one term, number powers, a
    # zeta on both sides of a name, names under ^0, exponents past the cap
    "x^200*x^100", "x^255*x", "2^10*x^3*3", "(1/2)^3*x*2", "zeta4^3*x*zeta4", "x^0*y*z^0",
    "x^1000*x",
]

INVALID_TEXTS = [
    "", "   ", "x +", "x^-1", "2x", "x^y", "(x", "x & y", "x $", "x  $ y", "()", ")", "x)",
    "(x)(y)", "x y", "x 3", "x 3/2", "x^3/2", "x^", "x^^2", "*x", "x**2", "x^2^3", "zeta0",
    "zeta200", "3\t/4", "(x+y+z+w+1)^10", "x^1001", "(x^2)^501", "2^1001", "x - - ", "-",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_texts_parse_as_before(text):
    assert outcome(parse_poly, text) == outcome(old_parse_poly, text)


@pytest.mark.parametrize("text", INVALID_TEXTS)
def test_invalid_texts_fail_as_before(text):
    got = outcome(parse_poly, text)
    assert got[0] is InputError, got
    assert got == outcome(old_parse_poly, text)


def test_random_texts_parse_as_before():
    for text in corpus(8101, 400):
        assert outcome(parse_poly, text) == outcome(old_parse_poly, text), text


def test_random_invalid_texts_fail_as_before():
    failures = 0
    for text in invalid_corpus(8201, 400):
        want = outcome(old_parse_poly, text)
        got = outcome(parse_poly, text)
        if want[0] is ZeroDivisionError:
            assert got[0] is InputError and "zero denominator" in got[1], text
        else:
            assert got == want, text
        failures += got[0] != "ok"
    assert failures > 200  # most mutations break the text


@pytest.mark.parametrize("text", ["1/0", "x + 3/0*y", "2 / 00", "(x - 1/0)^2"])
def test_a_zero_denominator_is_an_input_error(text):
    with pytest.raises(ZeroDivisionError):
        old_parse_poly(text)
    with pytest.raises(InputError, match="has a zero denominator"):
        parse_poly(text)


@pytest.mark.parametrize("text", ["(" * 120 + "x" + ")" * 120, "-" * 101 + "x", "-+" * 60 + "x",
                                  "(" * 60 + "-" * 41 + "x" + ")" * 60])
def test_signs_and_parentheses_share_the_nesting_cap(text):
    assert outcome(parse_poly, text) == outcome(old_parse_poly, text)
    assert outcome(parse_poly, text) == (InputError, "polynomial nested too deeply")


def test_demo_polynomials_parse_as_before():
    demo = Path(__file__).resolve().parent.parent / "demo"
    texts = []
    for path in sorted(demo.iterdir()):
        for line in path.read_text(encoding="utf-8").splitlines():
            _, sep, value = line.split("#", 1)[0].partition("=")
            if sep:
                texts += [cell.strip() for cell in value.split(",") if cell.strip()]
    parsed = 0
    for text in texts:
        want = outcome(old_parse_poly, text)
        if want[0] == "ok":
            parsed += 1
            assert outcome(parse_poly, text) == want, text
    assert parsed > 10


# -- parsing stays linear ------------------------------------------------------------------


@pytest.fixture
def copied_entries(monkeypatch):
    """Dict entries copied by ``kernel.add_terms`` and ``sub_terms`` (len(a) per call)."""
    copied = {"entries": 0}
    for name in ("add_terms", "sub_terms"):
        real = getattr(kernel, name)

        def counted(a, b, real=real):
            copied["entries"] += len(a)
            return real(a, b)

        monkeypatch.setattr(kernel, name, counted)
    return copied


@pytest.mark.parametrize("n", [500, 2000])
def test_a_long_sum_copies_no_more_entries_than_it_has_terms(n, copied_entries):
    text = " + ".join(f"{k + 1}*x^{k % 40}*y^{k // 40}" for k in range(n))
    p = parse_poly(text)
    assert len(p.terms) == n
    assert copied_entries["entries"] <= n


@pytest.fixture
def term_products(monkeypatch):
    """Calls of ``kernel.mul_terms``, the product of two term maps."""
    calls = {"mul_terms": 0}
    real = kernel.mul_terms

    def counted(a, b):
        calls["mul_terms"] += 1
        return real(a, b)

    monkeypatch.setattr(kernel, "mul_terms", counted)
    return calls


def test_a_sum_of_monomials_takes_no_term_product(term_products):
    # each term is a product of one-term factors, read as one key and one
    # coefficient, so no term map is multiplied
    text = " + ".join(f"{k + 1}*x^{k % 40}*y^{k // 40}*z" for k in range(2000))
    p = parse_poly(text)
    assert term_products["mul_terms"] == 0
    assert len(p.terms) == 2000
    assert outcome(lambda _: p, text) == outcome(old_parse_poly, text)


# -- render -> parse round trips ---------------------------------------------------------


def _random_poly(rng, names, n_terms, *, cyclotomic=False):
    terms = {}
    for _ in range(n_terms):
        exp = tuple(rng.randrange(0, 4) for _ in names)
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if cyclotomic and rng.random() < 0.5:
            c = c * make_root(rng.choice((3, 4, 5))) + rng.randrange(-2, 3)
        terms[exp] = c
    return Poly(names, terms)


def _align_terms(terms: dict, old_vars: tuple, new_vars: tuple) -> dict:
    """Exponent tuples remapped from old_vars to new_vars, a superset (a copy of
    the realignment ``Poly`` ran on tuple keys)."""
    pos = {v: i for i, v in enumerate(old_vars)}
    pad = len(old_vars)  # the index of the zero
    index = [pos.get(v, pad) for v in new_vars]
    return {tuple([(exp + (0,))[i] for i in index]): c for exp, c in terms.items()}


def _same(a: Poly, b: Poly):
    """Equal values, and equal term maps in key order once made to share a context."""
    assert a == b
    vs = tuple(sorted(set(a.vars) | set(b.vars)))
    assert list(_align_terms(a.terms, a.vars, vs).items()) == list(
        _align_terms(b.terms, b.vars, vs).items()
    )


def _algebra_polys(algebra):
    for row in algebra.table:
        for coords in row:
            yield from coords
    yield from algebra.unit


def _module_polys(module):
    yield module.target_poly
    for m in [*module.actions, *([module.tslot] if module.tslot is not None else [])]:
        for row in m.rows():
            yield from row


def _round_trip(render, parse, source, polys):
    """render -> parse gives equal values, and a second pass the same text and term maps.

    A parsed term map lists its keys in the printed order, so the second
    pass must reproduce the first one's maps in key order.
    """
    text = render(source)
    back = parse(text)
    again = parse(render(back))
    assert render(again) == text
    for a, b in zip(polys(source), polys(back), strict=True):
        assert a == b
    for a, b in zip(polys(back), polys(again), strict=True):
        _same(a, b)


def test_algebra_round_trips_on_random_presentations():
    rng = random.Random(8301)
    z = Poly.variable("z")
    for _ in range(8):
        d = rng.randrange(2, 5)
        poly = z**d
        for k in range(d):
            poly = poly + _random_poly(rng, ("a", "b"), 2, cyclotomic=True) * z**k
        for source in (monogenic_algebra(poly, "z"), split_algebra(d)):
            _round_trip(render_algebra, parse_algebra, source, _algebra_polys)


def test_explicit_table_round_trips_with_cyclotomic_constants():
    algebra = FreeAlgebra(["e", "u"], [[[1, 0], [0, 1]], [[0, 1], [make_root(4), 0]]])
    _round_trip(render_algebra, parse_algebra, algebra, _algebra_polys)


def test_roby_module_round_trips_on_random_seeds():
    rng = random.Random(8401)
    z = Poly.variable("z")
    modules = []
    for e in (2, 3, 4):
        q = _random_poly(rng, ("x", "y"), 3)
        modules.append(cyclic_cover_seed(companion_matrix(z**e - q, "z"), e))
    for _ in range(3):
        f = _random_poly(rng, ("x", "y"), 3, cyclotomic=True)
        modules.append(mf_seed(f, _random_poly(rng, ("x", "y"), 2)))
    for module in modules:
        _round_trip(render_roby_module, parse_roby_module, module, _module_polys)
