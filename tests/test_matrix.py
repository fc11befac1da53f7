"""Matrices over sparse polynomials: powering, Kronecker products, scalar tests."""

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from robyclif import kernel
from robyclif.errors import InputError
from robyclif.matrix import PolyMatrix, is_scalar_multiple_of_identity, matpoly_pow
from robyclif.poly import Poly, as_poly, parse_poly
from robyclif.scalars import make_root

x = Poly.variable("x")
y = Poly.variable("y")
c = Poly.variable("c")


def test_identity_powers():
    eye = PolyMatrix.identity(3)
    assert matpoly_pow(eye, 5) == eye
    assert matpoly_pow(eye, 0) == eye


def test_two_by_two_square_root_of_a_form():
    m = PolyMatrix.from_rows([[0, x], [y, 0]])
    sq = matpoly_pow(m, 2)
    assert is_scalar_multiple_of_identity(sq) == x * y


def test_companion_matrix_of_a_cubic():
    comp = PolyMatrix.from_rows([[0, 0, c], [1, 0, 0], [0, 1, 0]])
    cube = matpoly_pow(comp, 3)
    assert is_scalar_multiple_of_identity(cube) == c


def test_pow_rejects_bad_input():
    rect = PolyMatrix.zeros(2, 3)
    with pytest.raises(InputError):
        matpoly_pow(rect, 2)
    with pytest.raises(InputError):
        matpoly_pow(PolyMatrix.identity(2), -1)


def test_power_addition_law_on_random_sparse_matrices():
    rng = random.Random(40961)

    def rand_matrix():
        rows = []
        for _ in range(4):
            row = []
            for _ in range(4):
                row.append(Fraction(rng.randint(-3, 3)) if rng.random() < 0.5 else 0)
            rows.append(row)
        return PolyMatrix.from_rows(rows)

    for _ in range(10):
        m = rand_matrix()
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        assert matpoly_pow(m, a + b) == matpoly_pow(m, a) * matpoly_pow(m, b)


def test_scalar_multiple_detection():
    assert is_scalar_multiple_of_identity(PolyMatrix.zeros(2, 2)) == Poly.zero()
    assert is_scalar_multiple_of_identity(PolyMatrix.diagonal([x, x])) == x
    assert is_scalar_multiple_of_identity(PolyMatrix.diagonal([x, y])) is None
    assert is_scalar_multiple_of_identity(PolyMatrix.zeros(2, 3)) is None
    off = PolyMatrix.from_rows([[x, 1], [0, x]])
    assert is_scalar_multiple_of_identity(off) is None


def test_addition_and_scaling():
    a = PolyMatrix.from_rows([[x, 1], [0, y]])
    b = PolyMatrix.from_rows([[1, 0], [0, 1]])
    assert a + b == PolyMatrix.from_rows([[x + 1, 1], [0, y + 1]])
    assert a - a == PolyMatrix.zeros(2, 2)
    assert a.scaled(2).entry(0, 0) == 2 * x
    assert (a * y).entry(1, 1) == y * y
    assert (y * a).entry(0, 1) == y
    with pytest.raises(InputError):
        a + PolyMatrix.zeros(3, 3)


def test_matmul_shape_check():
    with pytest.raises(InputError):
        PolyMatrix.zeros(2, 3) * PolyMatrix.zeros(2, 3)


def test_kron_against_hand_example():
    a = PolyMatrix.from_rows([[1, 2], [3, 4]])
    b = PolyMatrix.from_rows([[0, 5], [6, 7]])
    expected = PolyMatrix.from_rows(
        [
            [0, 5, 0, 10],
            [6, 7, 12, 14],
            [0, 15, 0, 20],
            [18, 21, 24, 28],
        ]
    )
    assert a.kron(b) == expected


def test_kron_mixed_product_identity():
    a = PolyMatrix.from_rows([[x, 1], [0, x]])
    b = PolyMatrix.from_rows([[y, 2], [1, 0]])
    eye = PolyMatrix.identity(2)
    assert a.kron(eye) * eye.kron(b) == a.kron(b)
    assert eye.kron(b) * a.kron(eye) == a.kron(b)


def test_kron_of_identities():
    assert PolyMatrix.identity(2).kron(PolyMatrix.identity(3)) == PolyMatrix.identity(6)


def test_transpose_and_submatrix():
    m = PolyMatrix.from_rows([[1, x, 0], [y, 0, 2]])
    assert m.transpose() == PolyMatrix.from_rows([[1, y], [x, 0], [0, 2]])
    assert m.submatrix([1], [0, 2]) == PolyMatrix.from_rows([[y, 2]])


def test_entrywise_substitution():
    m = PolyMatrix.from_rows([["x^2 + z2*y", "z2"], [0, 1]])
    restricted = m.substitute({"z2": 0})
    assert restricted == PolyMatrix.from_rows([[x * x, 0], [0, 1]])


def test_first_nonzero():
    assert PolyMatrix.zeros(2, 2).first_nonzero() is None
    m = PolyMatrix.from_rows([[0, 0], [y, 0]])
    i, j, p = m.first_nonzero()
    assert (i, j) == (1, 0)
    assert p == y


def test_string_entries_parse_in_literals():
    m = PolyMatrix.from_rows([["3/2*x^2*y - z2", "0"], ["1", "x"]])
    assert m.entry(0, 0) == parse_poly("3/2*x^2*y - z2")
    assert m.entry(1, 1) == x


def test_display_is_row_major_nested_lists():
    m = PolyMatrix.from_rows([[x, 0], [1, y]])
    assert str(m) == "[[x, 0], [1, y]]"


# -- sparse passes: independent oracles, work counts, no mutation ----------------

VARS = ("x", "y", "z")
DENSITIES = (0.0, 0.02, 0.3, 1.0)


def random_matrix(rng, rows, cols, density, vars=VARS):
    """Flat term maps over vars; each slot is nonzero with probability density."""
    data = []
    for _ in range(rows * cols):
        terms = {}
        if rng.random() < density:
            for _ in range(rng.randrange(1, 3)):
                exp = tuple(rng.randrange(0, 3) for _ in vars)
                terms[exp] = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9), rng.randrange(1, 4))
        data.append(terms)
    return PolyMatrix(rows, cols, vars, data)


def term_product(a, b):
    # the shorter factor outermost (the left one on a tie), as the kernel
    # orders its products, so key order can be compared as well as values
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(u + v for u, v in zip(ea, eb))
            total = out.get(exp, 0) + ca * cb
            if total:
                out[exp] = total
            else:
                out.pop(exp, None)
    return out


def items(m):
    return [list(t.items()) for t in m.data]


def nnz(m):
    return sum(1 for t in m.data if t)


def test_kron_equals_the_block_formula_key_for_key():
    rng = random.Random(41)
    shapes = [((2, 3), (3, 2)), ((0, 2), (2, 2)), ((2, 2), (0, 3)), ((4, 4), (5, 5)), ((1, 6), (6, 1))]
    for (r, c), (p, q) in shapes:
        for density in DENSITIES:
            a = random_matrix(rng, r, c, density)
            b = random_matrix(rng, p, q, density)
            want = [None] * (r * p * c * q)
            for i in range(r):
                for j in range(c):
                    for k in range(p):
                        for l in range(q):
                            want[(i * p + k) * (c * q) + j * q + l] = term_product(
                                a.data[i * c + j], b.data[k * q + l]
                            )
            got = a.kron(b)
            where = f"{r}x{c} kron {p}x{q} at density {density}"
            assert got.shape == (r * p, c * q), where
            assert got.data == want, where
            assert items(got) == [list(t.items()) for t in want], where


def test_sparse_passes_across_variable_contexts():
    rng = random.Random(42)
    for density in DENSITIES:
        a = random_matrix(rng, 5, 5, density)
        b = random_matrix(rng, 5, 5, density, vars=("w", "y"))
        eye = PolyMatrix.identity(5)
        # the same sums and products computed entry by entry through Poly
        pa = [list(row) for row in a.rows()]
        pb = [list(row) for row in b.rows()]
        assert a + b == PolyMatrix.from_rows(
            [[pa[i][j] + pb[i][j] for j in range(5)] for i in range(5)]
        )
        assert a - b == PolyMatrix.from_rows(
            [[pa[i][j] - pb[i][j] for j in range(5)] for i in range(5)]
        )
        assert a * b == PolyMatrix.from_rows(
            [[sum((pa[i][s] * pb[s][j] for s in range(5)), Poly.zero()) for j in range(5)]
             for i in range(5)]
        )
        assert a * eye == a and eye * b == b
        assert (a - a).is_zero() and (a + b) - b == a
        w = Poly.variable("w")
        assert a.scaled(w + 1) == PolyMatrix.from_rows([[e * (w + 1) for e in row] for row in pa])
        assert a.substitute({"y": "w - x"}) == PolyMatrix.from_rows(
            [[e.substitute({"y": "w - x"}) for e in row] for row in pa]
        )


def running_sum(pairs, n):
    """Sum c * M the way callers wrote it before ``combination``: one full pass per term."""
    acc = PolyMatrix.zeros(n, n)
    for c, m in pairs:
        if as_poly(c):
            acc = acc + m.scaled(c)
    return acc


def test_combination_equals_the_running_sum_key_for_key():
    rng = random.Random(45)
    contexts = [VARS, ("w", "y"), (), ("a",), ("v", "x")]
    coefficients = [
        lambda: 0,
        lambda: Fraction(0),
        lambda: "0",
        lambda: Poly.zero(),
        lambda: rng.randrange(-3, 4),
        lambda: Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)),
        lambda: rng.choice(("x", "w - 2*y", "a^2 + 1/3", "x*y*z")),
        lambda: Poly.variable(rng.choice(("x", "v", "a"))) + rng.randrange(0, 3),
        lambda: make_root(3),
    ]
    for trial in range(120):
        n = rng.randrange(0, 7)
        pairs = [
            (
                rng.choice(coefficients)(),
                random_matrix(rng, n, n, rng.choice(DENSITIES), vars=rng.choice(contexts)),
            )
            for _ in range(rng.randrange(0, 6))
        ]
        got = PolyMatrix.combination(pairs, n)
        want = running_sum(pairs, n)
        where = f"trial {trial}: n={n}, coefficients {[c for c, _ in pairs]!r}"
        assert got.shape == (n, n), where
        assert got.vars == want.vars, where
        assert got.data == want.data, where
        assert items(got) == items(want), where


def test_combination_checks_shapes():
    with pytest.raises(InputError, match="shape mismatch"):
        PolyMatrix.combination([(1, PolyMatrix.identity(2)), (x, PolyMatrix.zeros(2, 3))], 2)
    with pytest.raises(InputError, match="shape mismatch"):
        PolyMatrix.combination([(0, PolyMatrix.identity(3))], 2)
    assert PolyMatrix.combination([], 3) == PolyMatrix.zeros(3, 3)


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = Counter()
    for name in ("mul_terms", "add_terms", "mul_into"):
        fn = getattr(kernel, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernel, name, counted)
    return calls


def test_kernel_work_scales_with_nonzeros(kernel_calls):
    rng = random.Random(43)
    a = random_matrix(rng, 12, 12, 0.08)
    b = random_matrix(rng, 4, 4, 0.3)
    c = random_matrix(rng, 12, 12, 0.3)
    assert 0 < nnz(a) < 144 and 0 < nnz(b) < 16

    kernel_calls.clear()
    a.kron(b)
    assert kernel_calls["mul_terms"] == nnz(a) * nnz(b)

    kernel_calls.clear()
    a.scaled(x + y)
    assert kernel_calls["mul_terms"] == nnz(a)

    kernel_calls.clear()
    a + c
    both = sum(1 for s, t in zip(a.data, c.data) if s and t)
    assert 0 < both < nnz(c)
    assert kernel_calls["add_terms"] == both

    kernel_calls.clear()
    a * c
    pairs = sum(
        1
        for i in range(12)
        for s in range(12)
        for j in range(12)
        if a.data[i * 12 + s] and c.data[s * 12 + j]
    )
    assert pairs > 0
    assert kernel_calls["mul_into"] == pairs

    terms = [(x, a), (0, c), (y + 1, c)]
    kernel_calls.clear()
    PolyMatrix.combination(terms, 12)
    assert kernel_calls["mul_terms"] == nnz(a) + nnz(c)
    assert kernel_calls["add_terms"] == both


def test_no_operation_mutates_its_operands():
    rng = random.Random(44)
    a = random_matrix(rng, 4, 4, 0.4)
    b = random_matrix(rng, 4, 4, 0.4, vars=("w", "x"))
    ops = {
        "+": lambda: a + b,
        "-": lambda: a - b,
        "*": lambda: a * b,
        "kron": lambda: a.kron(b),
        "scaled": lambda: (a.scaled(x + 1), a.scaled(Fraction(2, 3))),
        "pow": lambda: a.pow(3),
        "substitute": lambda: a.substitute({"x": "y + 1"}),
        "aligned_data": lambda: a.aligned_data(("w", "x", "y", "z")),
        "combination": lambda: PolyMatrix.combination([(x + 1, a), (2, b), (Fraction(1, 3), a)], 4),
        "==": lambda: a == b,
    }
    for name, op in ops.items():
        before = [(m.vars, copy.deepcopy(m.data)) for m in (a, b)]
        op()
        for m, (vars, data) in zip((a, b), before):
            assert m.vars == vars, name
            assert m.data == data, name
            assert items(m) == [list(t.items()) for t in data], name


@pytest.mark.parametrize(
    "check",
    [
        test_power_addition_law_on_random_sparse_matrices,
        test_kron_equals_the_block_formula_key_for_key,
        test_sparse_passes_across_variable_contexts,
        test_combination_equals_the_running_sum_key_for_key,
        test_no_operation_mutates_its_operands,
    ],
    ids=lambda check: check.__name__,
)
def test_under_each_encoding(forced_packing, check):
    check()
