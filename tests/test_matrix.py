"""Matrices over sparse polynomials: powering, Kronecker products, scalar tests."""

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from robyclif import kernel
from robyclif.errors import InputError
from robyclif.matrix import PolyMatrix, is_scalar_multiple_of_identity, matpoly_pow
from robyclif.poly import Poly, _align_terms, as_poly, parse_poly
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


def decode(data, vars, width):
    """Term maps keyed by exponent tuples over vars, read from packed keys.

    The layout is the documented one: exponent i of vars in bits
    [i*width, (i+1)*width) of the key.
    """
    mask = (1 << width) - 1
    shifts = [width * i for i in range(len(vars))]
    return [{tuple(k >> s & mask for s in shifts): c for k, c in t.items()} for t in data]


def decoded(m):
    return decode(m.data, m.vars, m.width)


def items(m):
    return [list(t.items()) for t in decoded(m)]


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
                                decoded(a)[i * c + j], decoded(b)[k * q + l]
                            )
            got = a.kron(b)
            where = f"{r}x{c} kron {p}x{q} at density {density}"
            assert got.shape == (r * p, c * q), where
            assert decoded(got) == want, where
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
        # outputs are written into the fresh lists realignment returns, and
        # never into an operand's own list: c's context is inside a's, so
        # one side of a + c comes back realigned and the other as it is
        c = random_matrix(rng, 5, 5, density, vars=("x",))
        ops = {
            "a + b": lambda: a + b,
            "a - b": lambda: a - b,
            "a + c": lambda: a + c,
            "c + a": lambda: c + a,
            "a - c": lambda: a - c,
            "c - a": lambda: c - a,
            "a.scaled(w + 1)": lambda: a.scaled(w + 1),
            "c.scaled(x + y)": lambda: c.scaled(Poly.variable("x") + Poly.variable("y")),
        }
        assert_operands_unchanged(ops, a, b, c)
        for name, op in ops.items():
            assert all(op().data is not m.data for m in (a, b, c)), name


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
        assert decoded(got) == decoded(want), where
        assert items(got) == items(want), where


def test_combination_checks_shapes():
    with pytest.raises(InputError, match="shape mismatch"):
        PolyMatrix.combination([(1, PolyMatrix.identity(2)), (x, PolyMatrix.zeros(2, 3))], 2)
    with pytest.raises(InputError, match="shape mismatch"):
        PolyMatrix.combination([(0, PolyMatrix.identity(3))], 2)
    assert PolyMatrix.combination([], 3) == PolyMatrix.zeros(3, 3)



def coefficient_types(m):
    return [[type(v) for v in t.values()] for t in m.data]


def test_plus_scalar_equals_adding_a_scaled_identity():
    # the sums CharPoly.evaluate_matrix and verify_roby once built: an n x n
    # identity scaled by c, then added or subtracted slot by slot
    rng = random.Random(47)
    contexts = [VARS, ("w", "y"), (), ("a",), ("v", "x")]
    zeta = make_root(3)
    coefficients = [
        lambda m: rng.choice((1, -2, 5)),
        lambda m: Fraction(rng.choice((-5, 1, 7)), rng.randrange(2, 5)),
        lambda m: zeta * rng.randrange(1, 3) + rng.randrange(0, 2),
        lambda m: as_poly(rng.choice(("x", "w - 2*y", "a^2 + 1/3", "x*y*z", "zeta3*v + 1"))),
        lambda m: rng.choice((0, Fraction(0), Poly.zero())),
        # cancels the first diagonal entry
        lambda m: -m.entry(0, 0) if m.nrows else 1,
    ]
    outcomes = Counter()
    for trial in range(240):
        n = rng.randrange(0, 6)
        m = random_matrix(rng, n, n, rng.choice(DENSITIES), vars=rng.choice(contexts))
        kind = rng.randrange(len(coefficients))
        c = coefficients[kind](m)
        neg_c = -c
        c_items = list(c.terms.items()) if isinstance(c, Poly) else c
        eye = PolyMatrix.identity(n)
        cases = {
            "+": (lambda: m.plus_scalar(c), m + eye.scaled(c)),
            "-": (lambda: m.plus_scalar(neg_c), m - eye.scaled(c)),
        }
        for sign, (op, want) in cases.items():
            where = f"trial {trial}: {sign} {c!r} on {n}x{n} over {m.vars}"
            got = op()
            assert got.shape == (n, n), where
            assert got.vars == want.vars, where
            assert decoded(got) == decoded(want), where
            assert items(got) == items(want), where
            assert coefficient_types(got) == coefficient_types(want), where
            assert got.data is not m.data, where
            assert_operands_unchanged({sign: op}, m)
            assert (list(c.terms.items()) if isinstance(c, Poly) else c) == c_items, where
        if n and m.data[0] and not (m + eye.scaled(c)).data[0]:
            outcomes["cancelled diagonal entry"] += 1
        if n:
            outcomes["nonempty diagonal" if any(m.data[:: n + 1]) else "empty diagonal"] += 1
        outcomes[f"coefficient kind {kind}"] += 1
    assert len(outcomes) == 9, outcomes
    with pytest.raises(InputError, match="shape mismatch"):
        PolyMatrix.zeros(2, 3).plus_scalar(1)


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = Counter()
    for name in ("mul_packed", "add_terms"):
        fn = getattr(kernel, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernel, name, counted)
    return calls


class CountedFraction(Fraction):
    """A Fraction that counts the products it is the left factor of."""

    products = 0

    def __mul__(self, other):
        CountedFraction.products += 1
        return Fraction.__mul__(self, other)


def counted(m):
    """m with every coefficient a CountedFraction."""
    return PolyMatrix(m.nrows, m.ncols, m.vars,
                      [{e: CountedFraction(v) for e, v in t.items()} for t in decoded(m)])


def test_kernel_work_scales_with_nonzeros(kernel_calls):
    rng = random.Random(43)
    a = random_matrix(rng, 12, 12, 0.08)
    b = random_matrix(rng, 4, 4, 0.3)
    c = random_matrix(rng, 12, 12, 0.3)
    assert 0 < nnz(a) < 144 and 0 < nnz(b) < 16

    kernel_calls.clear()
    a.kron(b)
    assert kernel_calls["mul_packed"] == nnz(a) * nnz(b)

    kernel_calls.clear()
    a.scaled(x + y)
    assert kernel_calls["mul_packed"] == nnz(a)

    kernel_calls.clear()
    a + c
    both = sum(1 for s, t in zip(a.data, c.data) if s and t)
    assert 0 < both < nnz(c)
    assert kernel_calls["add_terms"] == both

    # the product's multiply-add is written out inside matmul_terms, so its
    # work is counted at the coefficients: one product per pair of terms of
    # each pair of nonzero factors, none for a pair with an empty factor
    ta, tc = decoded(a), decoded(c)
    term_products = sum(
        len(ta[i * 12 + s]) * len(tc[s * 12 + j])
        for i in range(12)
        for s in range(12)
        for j in range(12)
    )
    assert term_products > 0
    left, right = counted(a), counted(c)
    CountedFraction.products = 0
    assert left * right == a * c
    assert CountedFraction.products == term_products

    terms = [(x, a), (0, c), (y + 1, c)]
    kernel_calls.clear()
    PolyMatrix.combination(terms, 12)
    assert kernel_calls["mul_packed"] == nnz(a) + nnz(c)
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
        "aligned_data": lambda: a.aligned_data(("w", "x", "y", "z"), width=a.width + 8),
        "combination": lambda: PolyMatrix.combination([(x + 1, a), (2, b), (Fraction(1, 3), a)], 4),
        "==": lambda: a == b,
    }
    assert_operands_unchanged(ops, a, b)


def assert_operands_unchanged(ops, *operands):
    """Each op leaves every operand's context, term maps and key order as they were."""
    for name, op in ops.items():
        before = [(m.vars, m.width, m.top, copy.deepcopy(m.data)) for m in operands]
        op()
        for m, (vars, width, top, data) in zip(operands, before):
            assert (m.vars, m.width, m.top) == (vars, width, top), name
            assert m.data == data, name
            assert [list(t.items()) for t in m.data] == [list(t.items()) for t in data], name


# -- nonzero walks against the slot-by-slot loops they replaced --------------------

WALK_SHAPES = ((0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (5, 7), (7, 5), (12, 12))


def walk_matrices(seed):
    """Seeded flat matrices at each density and shape, empty shapes included."""
    rng = random.Random(seed)
    for r, c in WALK_SHAPES:
        for density in DENSITIES:
            yield f"{r}x{c} at density {density}", random_matrix(rng, r, c, density)


def nested_nonzeros(m):
    return [
        (i, j, m.data[i * m.ncols + j])
        for i in range(m.nrows)
        for j in range(m.ncols)
        if m.data[i * m.ncols + j]
    ]


def old_first_nonzero(m):
    for i in range(m.nrows):
        for j in range(m.ncols):
            t = decoded(m)[i * m.ncols + j]
            if t:
                return i, j, Poly(m.vars, t, _canonical=True).pruned()
    return None


def old_scalar_identity_multiple(m):
    if m.nrows != m.ncols or m.nrows == 0:
        return None
    data = decoded(m)
    diag = data[0]
    for i in range(m.nrows):
        for j in range(m.ncols):
            t = data[i * m.ncols + j]
            if i == j:
                if t != diag:
                    return None
            elif t:
                return None
    return Poly(m.vars, diag, _canonical=True).pruned()


def old_transpose_data(m):
    return [m.data[i * m.ncols + j] for j in range(m.ncols) for i in range(m.nrows)]


def scalar_like(rng, n, density):
    """c * I, sometimes with one diagonal or off-diagonal entry disturbed."""
    diag = decoded(random_matrix(rng, 1, 1, density))[0]
    data = [diag if k % (n + 1) == 0 else {} for k in range(n * n)]
    if n and rng.random() < 0.6:
        k = rng.randrange(n * n)
        data[k] = decoded(random_matrix(rng, 1, 1, 1.0))[0] if rng.random() < 0.8 else {}
    return PolyMatrix(n, n, VARS, data)


def test_nonzeros_is_the_row_major_nested_loop():
    for where, m in walk_matrices(50):
        got = list(m.nonzeros())
        want = nested_nonzeros(m)
        assert got == want, where
        assert all(t is w[2] for (_, _, t), w in zip(got, want)), where


def test_queries_equal_their_old_loops():
    rng = random.Random(51)
    matrices = list(walk_matrices(52))
    matrices += [(f"scalar-like {k}", scalar_like(rng, rng.randrange(0, 6), rng.choice(DENSITIES)))
                 for k in range(200)]
    matrices += [("identity 4", PolyMatrix.identity(4)), ("zeros 3x3", PolyMatrix.zeros(3, 3)),
                 ("diagonal x, x", PolyMatrix.diagonal([x, x]))]
    verdicts = Counter()
    for where, m in matrices:
        assert m.first_nonzero() == old_first_nonzero(m), where
        got, want = m.scalar_identity_multiple(), old_scalar_identity_multiple(m)
        assert got == want, where
        verdicts[want is None] += 1
        assert m.is_zero() == all(not t for t in m.data), where
        t = m.transpose()
        assert t.shape == (m.ncols, m.nrows) and t.vars == m.vars, where
        assert t.data == old_transpose_data(m), where
        assert all(a is b for a, b in zip(t.data, old_transpose_data(m))), where
    assert verdicts[True] and verdicts[False]


def test_arithmetic_passes_equal_their_old_listcomps():
    # the slot-by-slot listcomps these passes once ran, on the same aligned lists
    rng = random.Random(54)
    w = Poly.variable("w")
    for where, m in walk_matrices(55):
        other = random_matrix(rng, m.nrows, m.ncols, rng.choice(DENSITIES), vars=("w", "y"))
        vs = tuple(sorted(set(m.vars) | set(other.vars)))
        a = [_align_terms(t, m.vars, vs) if t else t for t in decoded(m)]
        b = [_align_terms(t, other.vars, vs) if t else t for t in decoded(other)]
        pt = (w + 1).aligned(vs)
        wide = m.width + 8
        cases = {
            "aligned_data": (decode(m.aligned_data(vs, width=m.width), vs, m.width), a),
            "aligned_data wider": (decode(m.aligned_data(vs, width=wide), vs, wide), a),
            "+": (decoded(m + other),
                  [kernel.add_terms(x, y) if x and y else x or y for x, y in zip(a, b)]),
            "-": (decoded(m - other),
                  [(kernel.sub_terms(x, y) if x else kernel.neg_terms(y)) if y else x
                   for x, y in zip(a, b)]),
            "neg": (decoded(-m), [kernel.neg_terms(t) if t else t for t in decoded(m)]),
            "scaled scalar": (decoded(m.scaled(Fraction(-2, 3))),
                              [kernel.scale_terms(t, Fraction(-2, 3)) if t else t
                               for t in decoded(m)]),
            "scaled poly": (decoded(m.scaled(w + 1)),
                            [kernel.mul_terms(t, pt) if t else t for t in a]),
        }
        for name, (got, want) in cases.items():
            assert [list(t.items()) for t in got] == [list(t.items()) for t in want], (name, where)
        assert (m + other).vars == (m - other).vars == m.scaled(w + 1).vars == vs, where
        got = m.substitute({"x": "w - y", "z": 2})
        want = [[e.substitute({"x": "w - y", "z": 2}) for e in row] for row in m.rows()]
        assert got.shape == m.shape and list(got.rows()) == want, where


# -- power chains: no product by one, no trailing square ----------------------------


def old_matrix_pow(m, n):
    # the loop PolyMatrix.pow once ran: it started from I and its first
    # product was I * m
    result = PolyMatrix.identity(m.nrows)
    base = m
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def test_pow_does_one_product_per_step(monkeypatch):
    products = Counter()
    real = kernel.matmul_terms

    def counted(*args):
        products["matmul"] += 1
        return real(*args)

    rng = random.Random(53)
    m = random_matrix(rng, 4, 4, 0.3, vars=("x", "y"))
    for n in range(1, 34):
        want = old_matrix_pow(m, n)
        monkeypatch.setattr(kernel, "matmul_terms", counted)
        products.clear()
        got = m.pow(n)
        monkeypatch.setattr(kernel, "matmul_terms", real)
        assert products["matmul"] == (n.bit_length() - 1) + (bin(n).count("1") - 1), n
        assert got.vars == want.vars and items(got) == items(want), n
    assert m.pow(0) == PolyMatrix.identity(4)


# -- an independent oracle: nested loops over name-keyed monomials ---------------
#
# A plain polynomial maps a monomial, the sorted tuple of its (name, exponent)
# pairs with nonzero exponent, to a nonzero coefficient.  The loops below use
# no key encoding and no context alignment, so they share nothing with the
# code under test but the coefficient types.

# exponents on both sides of the 8-bit field: operands and results straddle it
BIG_EXPONENTS = (0, 1, 2, 127, 128, 255, 256, 300)
ORACLE_CONTEXTS = (("x", "y"), ("y", "z"), ("x",), (), ("w", "x", "z"))


def plain_monomial(exps: dict) -> tuple:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def plain_add(p: dict, q: dict, sign=1) -> dict:
    out = dict(p)
    for mono, c in q.items():
        total = out[mono] + sign * c if mono in out else sign * c
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def plain_mul(p: dict, q: dict) -> dict:
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            out = plain_add(out, {plain_monomial(exps): ca * cb})
    return out


def plain_pow(p: dict, n: int) -> dict:
    out, base = {(): 1}, p
    while n:
        if n & 1:
            out = plain_mul(out, base)
        base = plain_mul(base, base)
        n >>= 1
    return out


def plain_of(p: Poly) -> dict:
    return {plain_monomial(dict(zip(p.vars, exp))): c for exp, c in p.terms.items()}


def plain_matmul(a, b):
    out = [[{} for _ in b[0]] for _ in a] if a and b else [[] for _ in a]
    for i, row in enumerate(a):
        for j in range(len(b[0]) if b else 0):
            for s, left in enumerate(row):
                out[i][j] = plain_add(out[i][j], plain_mul(left, b[s][j]))
    return out


def plain_pow_matrix(p, e):
    n = len(p)
    out = [[{(): 1} if i == j else {} for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = plain_matmul(out, p)
    return out


def plain_substitute(p: dict, values: dict) -> dict:
    out = {}
    for mono, c in p.items():
        term = {(): c}
        for v, e in mono:
            factor = values[v] if v in values else {((v, 1),): 1}
            term = plain_mul(term, plain_pow(factor, e))
        out = plain_add(out, term)
    return out


def oracle_coefficient(rng):
    k = rng.choice((1, 1, -1, -1, 2, -3))
    kind = rng.randrange(4)
    if kind == 0:
        return k
    if kind == 1:
        return Fraction(k, rng.choice((2, 3)))
    if kind == 2:
        return make_root(3) * k + rng.randrange(0, 2)
    return make_root(4) * Fraction(k, 2)


def random_plain(rng, rows, cols, ctx, density=0.5):
    """Plain rows over ctx, their terms drawn from a small pool of monomials."""
    pool = [plain_monomial({v: rng.choice((0, 1, 2) if v == "z" else BIG_EXPONENTS) for v in ctx})
            for _ in range(3)]
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            entry = {}
            if rng.random() < density:
                for _ in range(rng.randrange(1, 4)):
                    entry = plain_add(entry, {rng.choice(pool): oracle_coefficient(rng)})
            row.append(entry)
        out.append(row)
    return out


def matrix_of(plain, ctx):
    """The PolyMatrix of plain rows, built from exponent tuples over ctx."""
    data = [{tuple(dict(mono).get(v, 0) for v in ctx): c for mono, c in entry.items()}
            for row in plain for entry in row]
    return PolyMatrix(len(plain), len(plain[0]) if plain else 0, ctx, data)


def negated(p):
    return {mono: -c for mono, c in p.items()}


def assert_reads_as(m, plain, where):
    assert m.shape == (len(plain), len(plain[0]) if plain else 0), where
    for i, row in enumerate(plain):
        for j, want in enumerate(row):
            assert plain_of(m.entry(i, j)) == want, f"{where}: entry ({i}, {j})"


ORACLE_BINDINGS = (
    {"x": 0},
    {"y": "2*w^3"},
    {"x": 0, "z": "w + 1"},
    {"z": "x^200 + y"},
    {"y": "zeta3*x", "x": 0},
    {"x": "y", "y": "x"},
    {"q": 5},
)


def test_operations_agree_with_nested_loops_over_plain_dicts():
    rng = random.Random(60)
    seen = Counter()
    for trial in range(40):
        n, k = rng.randrange(1, 4), rng.randrange(1, 4)
        ctx_a = rng.choice(ORACLE_CONTEXTS)
        ctx_b = tuple(sorted(set(ctx_a) | set(rng.choice(ORACLE_CONTEXTS))))
        pa = random_plain(rng, n, n, ctx_a)
        pb = random_plain(rng, n, n, ctx_b)
        pc = random_plain(rng, n, k, ctx_b)
        # entries of b that cancel a's, and a product whose pairs s = 0, 1 cancel
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.3:
                    pb[i][j] = negated(pa[i][j])
        if n > 1 and rng.random() < 0.5:
            for row in pa:
                row[1] = row[0]
            pc[1] = [negated(v) for v in pc[0]]
        a, b, c = matrix_of(pa, ctx_a), matrix_of(pb, ctx_b), matrix_of(pc, ctx_b)
        where = f"trial {trial} over {ctx_a} and {ctx_b}"
        plain_sum = [[plain_add(u, v) for u, v in zip(r, s)] for r, s in zip(pa, pb)]
        assert_reads_as(a + b, plain_sum, f"{where}: +")
        plain_difference = [[plain_add(u, v, -1) for u, v in zip(r, s)] for r, s in zip(pa, pb)]
        assert_reads_as(a - b, plain_difference, f"{where}: -")
        assert_reads_as(a - a, [[{}] * n for _ in range(n)], f"{where}: a - a")
        product = a * c
        assert_reads_as(product, plain_matmul(pa, pc), f"{where}: *")
        e = rng.randrange(0, 4)
        power = plain_pow_matrix(pa, e)
        assert_reads_as(a.pow(e), power, f"{where}: pow {e}")
        kron = [[plain_mul(pa[i // n][j // n], pb[i % n][j % n]) for j in range(n * n)]
                for i in range(n * n)]
        assert_reads_as(a.kron(b), kron, f"{where}: kron")
        coeffs = [rng.choice((0, 2, "x^255 - y", "zeta4*w + 1/2", "z^2")) for _ in range(3)]
        pairs = list(zip(coeffs, (a, b, a)))
        want = [[{} for _ in range(n)] for _ in range(n)]
        for coeff, pm in zip(coeffs, (pa, pb, pa)):
            cp = plain_of(as_poly(coeff))
            want = [[plain_add(want[i][j], plain_mul(pm[i][j], cp)) for j in range(n)]
                    for i in range(n)]
        assert_reads_as(PolyMatrix.combination(pairs, n), want, f"{where}: combination {coeffs}")
        scalar = rng.choice((3, Fraction(-1, 2), make_root(3), "y^256", "x^300 + 1"))
        sp = plain_of(as_poly(scalar))
        want = [[plain_add(pa[i][j], sp) if i == j else pa[i][j] for j in range(n)]
                for i in range(n)]
        assert_reads_as(a.plus_scalar(scalar), want, f"{where}: plus_scalar {scalar!r}")
        bindings = rng.choice(ORACLE_BINDINGS)
        values = {v: plain_of(as_poly(t)) for v, t in bindings.items()}
        assert_reads_as(a.substitute(bindings),
                        [[plain_substitute(u, values) for u in row] for row in pa],
                        f"{where}: substitute {bindings}")
        for r, s in zip(pa, pb):
            seen["sum cancelled"] += sum(1 for u, v in zip(r, s) if u and v and not plain_add(u, v))
        seen["product cancelled"] += sum(
            1 for i, row in enumerate(plain_matmul(pa, pc)) for j, v in enumerate(row)
            if not v and any(pa[i][s] and pc[s][j] for s in range(n))
        )
        seen["wide result"] += max(product.width, a.kron(b).width) > 8
    assert all(seen[key] for key in ("sum cancelled", "product cancelled", "wide result")), seen


@pytest.mark.parametrize(
    "check",
    [
        test_power_addition_law_on_random_sparse_matrices,
        test_kron_equals_the_block_formula_key_for_key,
        test_sparse_passes_across_variable_contexts,
        test_combination_equals_the_running_sum_key_for_key,
        test_plus_scalar_equals_adding_a_scaled_identity,
        test_no_operation_mutates_its_operands,
        test_nonzeros_is_the_row_major_nested_loop,
        test_queries_equal_their_old_loops,
        test_arithmetic_passes_equal_their_old_listcomps,
        test_operations_agree_with_nested_loops_over_plain_dicts,
    ],
    ids=lambda check: check.__name__,
)
def test_under_each_encoding(forced_wide_keys, check):
    check()
