"""Matrices over sparse polynomials: powering, Kronecker products, cyclic shifts,
scalar tests."""

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from robyclif import kernel
from robyclif import matrix as matrix_module
from robyclif.errors import InputError
from robyclif.freealg import monogenic_algebra
from robyclif.matrix import PolyMatrix, _make
from robyclif.poly import HomForm, Poly, _fit, as_poly, parse_poly
from robyclif.roby import MonomialSpec, monomial_charpoly_roby, monomial_roby, split_roby
from robyclif.scalars import make_root
from robyclif.seeds import companion_matrix, cyclic_cover_seed

x = Poly.variable("x")
y = Poly.variable("y")
c = Poly.variable("c")


def test_identity_powers():
    eye = PolyMatrix.identity(3)
    assert eye.pow(5) == eye
    assert eye.pow(0) == eye


def test_two_by_two_square_root_of_a_form():
    m = PolyMatrix.from_rows([[0, x], [y, 0]])
    sq = m.pow(2)
    assert sq.scalar_identity_multiple() == x * y


def test_companion_matrix_of_a_cubic():
    comp = PolyMatrix.from_rows([[0, 0, c], [1, 0, 0], [0, 1, 0]])
    cube = comp.pow(3)
    assert cube.scalar_identity_multiple() == c


def test_pow_rejects_bad_input():
    rect = PolyMatrix.zeros(2, 3)
    with pytest.raises(InputError):
        rect.pow(2)
    with pytest.raises(InputError):
        PolyMatrix.identity(2).pow(-1)


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
        assert m.pow(a + b) == m.pow(a) * m.pow(b)


def test_scalar_multiple_detection():
    assert PolyMatrix.zeros(2, 2).scalar_identity_multiple() == Poly.zero()
    assert PolyMatrix.diagonal([x, x]).scalar_identity_multiple() == x
    assert PolyMatrix.diagonal([x, y]).scalar_identity_multiple() is None
    assert PolyMatrix.zeros(2, 3).scalar_identity_multiple() is None
    off = PolyMatrix.from_rows([[x, 1], [0, x]])
    assert off.scalar_identity_multiple() is None


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


def test_cell_texts_print_each_entry_and_zero_for_an_empty_slot():
    m = PolyMatrix.from_rows([[x, 0, 0], [0, 0, make_root(3) * y], [0, 0, 0]])
    assert m.cell_texts() == [["x", "0", "0"], ["0", "0", "(zeta3)*y"], ["0", "0", "0"]]
    assert PolyMatrix.zeros(0, 3).cell_texts() == [] and PolyMatrix.zeros(2, 0).cell_texts() == [[], []]
    rng = random.Random(5150)
    for density in DENSITIES:
        for rows, cols in ((1, 1), (3, 5), (6, 2)):
            m = random_matrix(rng, rows, cols, density)
            want = [[str(e) for e in row] for row in m.rows()]
            assert m.cell_texts() == want, (density, rows, cols)
            assert str(m) == "[" + ", ".join("[" + ", ".join(r) + "]" for r in want) + "]"


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


def test_kron_sum_equals_the_running_sum_of_kronecker_products():
    # dense random matrices put entries on the diagonal, so terms share cells
    rng = random.Random(46)
    contexts = [VARS, ("w", "y"), (), ("a",)]
    phase_sets = [[1, -1], [1, 0, Fraction(2, 3)], [make_root(3) ** g for g in range(3)], [2, 5]]
    for trial in range(80):
        phases = rng.choice(phase_sets)
        n = rng.choice([1, 2, 4, 6, 8, 12])
        terms = []
        for _ in range(rng.randrange(0, 4)):
            prefix = rng.choice([p for p in range(1, n + 1) if n % p == 0])
            d = rng.choice([q for q in range(1, n // prefix + 1) if n // prefix % q == 0])
            classes = [rng.randrange(len(phases)) for _ in range(prefix)]
            m = random_matrix(rng, d, d, rng.choice(DENSITIES), vars=rng.choice(contexts))
            terms.append((classes, m))
        got = PolyMatrix.kron_sum(terms, phases, n)
        want = PolyMatrix.zeros(n, n)
        for classes, m in terms:
            w = n // (len(classes) * m.nrows)
            dxi = PolyMatrix.diagonal([phases[c] for c in classes])
            want = want + dxi.kron(m).kron(PolyMatrix.identity(w))
        where = f"trial {trial}: n={n}, phases {phases!r}"
        assert got.vars == want.vars, where
        assert decoded(got) == decoded(want), where
    a = random_matrix(rng, 4, 4, 0.4)
    b = random_matrix(rng, 4, 4, 0.4, vars=("w", "x"))
    kron_sum = lambda: PolyMatrix.kron_sum([((0, 1), a), ((0,), b), ((1,), a)], [1, -1], 8)
    assert_operands_unchanged({"kron_sum": kron_sum}, a, b)


def test_kron_sum_checks_shapes():
    with pytest.raises(InputError, match="does not tile 6"):
        PolyMatrix.kron_sum([((0, 0), PolyMatrix.identity(2))], [1], 6)
    with pytest.raises(InputError, match="does not tile 4"):
        PolyMatrix.kron_sum([((0,), PolyMatrix.zeros(2, 1))], [1], 4)
    with pytest.raises(InputError, match="does not tile 4"):
        PolyMatrix.kron_sum([((0,), PolyMatrix.zeros(0, 0))], [1], 4)
    assert PolyMatrix.kron_sum([], [1], 3) == PolyMatrix.zeros(3, 3)


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
    for name in ("mul_terms", "add_terms"):
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
    assert kernel_calls["mul_terms"] == nnz(a) * nnz(b)

    kernel_calls.clear()
    a.scaled(x + y)
    assert kernel_calls["mul_terms"] == nnz(a)

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
                return i, j, Poly(m.vars, t).pruned()
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
    return Poly(m.vars, diag).pruned()


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


def _align_terms(terms: dict, old_vars: tuple, new_vars: tuple) -> dict:
    """Exponent tuples remapped from old_vars to new_vars, a superset (a copy of
    the realignment ``Poly`` ran on tuple keys)."""
    pos = {v: i for i, v in enumerate(old_vars)}
    pad = len(old_vars)  # the index of the zero
    index = [pos.get(v, pad) for v in new_vars]
    return {tuple([(exp + (0,))[i] for i in index]): c for exp, c in terms.items()}


def test_arithmetic_passes_equal_their_old_listcomps():
    # the slot-by-slot listcomps these passes once ran, on the same aligned lists
    rng = random.Random(54)
    w = Poly.variable("w")
    for where, m in walk_matrices(55):
        other = random_matrix(rng, m.nrows, m.ncols, rng.choice(DENSITIES), vars=("w", "y"))
        vs = tuple(sorted(set(m.vars) | set(other.vars)))
        a = [_align_terms(t, m.vars, vs) if t else t for t in decoded(m)]
        b = [_align_terms(t, other.vars, vs) if t else t for t in decoded(other)]
        pt = _align_terms((w + 1).terms, (w + 1).vars, vs)
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
                            [term_product(t, pt) if t else t for t in a]),
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


# -- cyclic shifts: the grid builders they replaced are the oracle -----------------


def same_matrix(got, want, where):
    assert got == want, where
    assert (got.vars, got.width, got.top) == (want.vars, want.width, want.top), where
    assert [list(t) for t in got.data] == [list(t) for t in want.data], where


def old_block_shift(blocks, w):
    # seeds._block_shift as it was: blocks[j] occupies block row (j+1) mod d,
    # block column j
    d = len(blocks)
    n = d * w
    rows = [[Poly.zero()] * n for _ in range(n)]
    for j, b in enumerate(blocks):
        r0 = ((j + 1) % d) * w
        c0 = j * w
        for r in range(w):
            for c in range(w):
                p = b.entry(r, c)
                if p:
                    rows[r0 + r][c0 + c] = p
    return PolyMatrix.from_rows(rows)


def old_monomial_actions(factors, arg_vars):
    # roby.monomial_roby's grid loop as it was
    e = len(factors)
    rows = {
        v: [[Poly.zero() for _ in range(e)] for _ in range(e)] for v in arg_vars
    }
    for j, (c, v) in enumerate(factors):
        rows[v][(j + 1) % e][j] = c
    return [PolyMatrix.from_rows(rows[v]) for v in arg_vars]


def old_charpoly_actions(spec):
    # roby.monomial_charpoly_roby's grid loop as it was, the T-slot last
    d, i = spec.d, spec.t_exp
    *grids, tgrid = [[[Poly.zero()] * d for _ in range(d)] for _ in range(d + 1)]
    for r in range(1, d + 1):  # r indexes eps_r, column r-1
        if r <= i:
            tgrid[r % d][r - 1] = Poly.const(1)
        else:
            c = spec.factors[r - i - 1]
            p = spec.dual_indices[r - i - 1]
            grids[p - 1][r % d][r - 1] = c
    return [PolyMatrix.from_rows(g) for g in grids + [tgrid]]


def old_split_actions(d):
    # roby.split_roby's grid loop as it was, the T-slot last
    *grids, tgrid = [[[Poly.zero()] * d for _ in range(d)] for _ in range(d + 1)]
    for j0 in range(d):  # column j0 is w_{j0+1}
        tgrid[(j0 + 1) % d][j0] = Poly.const(1)
        i = (j0 + 1) % d  # the index with i = j+1, zero-based
        grids[i][(j0 + 1) % d][j0] = Poly.const(-1)
    return [PolyMatrix.from_rows(g) for g in grids + [tgrid]]


# w = 1 blocks: zero weights (one with a variable but no term), scalars,
# zeta-weights, and exponents past the 8-bit field
SHIFT_WEIGHTS = (0, Poly.zero(), "x - x", 1, -1, Fraction(3, 2), "zeta3", "-zeta5^2*y",
                 "x - 2*y", "x^300 + z", "y^256")


def test_cyclic_shift_of_polynomials_equals_the_grid():
    rng = random.Random(61)
    for trial in range(200):
        d = rng.randrange(1, 6)
        weights = [rng.choice(SHIFT_WEIGHTS) for _ in range(d)]
        if rng.random() < 0.3:
            weights = [make_root(d) ** rng.randrange(d) * rng.choice((1, -1)) for _ in range(d)]
        grid = [[0] * d for _ in range(d)]
        for j, p in enumerate(weights):
            grid[(j + 1) % d][j] = p
        same_matrix(PolyMatrix.cyclic_shift(weights), PolyMatrix.from_rows(grid),
                    f"trial {trial}: {weights}")


def test_cyclic_shift_of_blocks_equals_the_old_block_shift():
    rng = random.Random(62)
    seen = Counter()
    for trial in range(200):
        d, w = rng.randrange(1, 5), rng.randrange(1, 4)
        zeta = make_root(max(d, 2))
        blocks = []
        for j in range(d):
            b = random_matrix(rng, w, w, rng.choice(DENSITIES))
            weight = rng.choice((1, 0, -(zeta ** j), zeta ** (j * j), "x^300"))
            seen["zero"] += weight == 0
            seen["zeta"] += not isinstance(weight, (int, str))
            blocks.append(b.scaled(weight) if rng.random() < 0.7 else b)
        same_matrix(PolyMatrix.cyclic_shift(blocks), old_block_shift(blocks, w),
                    f"trial {trial}: d={d}, w={w}")
    assert seen["zero"] and seen["zeta"]


def test_builders_equal_their_old_grids():
    for d in range(2, 7):
        split = split_roby(d)
        for got, want in zip(split.actions + [split.tslot], old_split_actions(d)):
            same_matrix(got, want, f"split {d}")

    factors = [("q", "x"), (1, "y"), ("-zeta3", "x"), ("x - x + 2", "y")]
    form = HomForm(parse_poly("-q*zeta3*2*x^2*y^2"), 4, ("x", "y", "w"))
    module = monomial_roby(form, factors)
    want = old_monomial_actions([(as_poly(c), v) for c, v in factors], form.arg_vars)
    for got, old in zip(module.actions, want):
        same_matrix(got, old, "monomial form")

    algebra = monogenic_algebra(parse_poly("z^3 - x*z - y^300"), "z")
    for spec in (
        MonomialSpec(3, 0, ("x", 1, "zeta3*y^2"), (2, 3, 2)),
        MonomialSpec(3, 1, ("y", 0), (1, 3)),
        MonomialSpec(3, 2, ("x - x",), (3,)),
    ):
        module = monomial_charpoly_roby(spec, algebra)
        for got, old in zip(module.actions + [module.tslot], old_charpoly_actions(spec)):
            same_matrix(got, old, f"charpoly monomial {spec}")

    for zmat, d in (
        (companion_matrix("z^3 - x^3 - y^3", "z"), 3),
        (PolyMatrix.from_rows([[0, "x"], ["y", 0]]), 4),
    ):
        seed = cyclic_cover_seed(zmat, d)
        w, zeta = zmat.nrows, make_root(d)
        powers = [PolyMatrix.identity(w)]
        for _ in range(d - 1):
            powers.append(powers[-1] * zmat)
        want = [old_block_shift([powers[k].scaled(-(zeta ** (j * k))) for j in range(d)], w)
                for k in range(d)]
        want.append(old_block_shift([PolyMatrix.identity(w)] * d, w))
        for got, old in zip(seed.actions + [seed.tslot], want):
            same_matrix(got, old, f"cyclic seed of {zmat}, d={d}")


def test_cyclic_shift_refuses_blocks_of_mixed_or_oblong_shape():
    with pytest.raises(InputError, match="square blocks of one size"):
        PolyMatrix.cyclic_shift([PolyMatrix.identity(2), PolyMatrix.identity(3)])
    with pytest.raises(InputError, match="square blocks of one size"):
        PolyMatrix.cyclic_shift([PolyMatrix.identity(2), "x"])
    with pytest.raises(InputError, match="square blocks of one size"):
        PolyMatrix.cyclic_shift([PolyMatrix.zeros(1, 2)] * 2)
    with pytest.raises(InputError, match="square blocks of one size"):
        PolyMatrix.cyclic_shift([])


# -- one context join: the joins each builder made of its own, as reference code --
#
# Before poly._context took every join, from_rows, diagonal, identity and
# cyclic_shift joined their entries in matrix._context_of, combination and
# toeplitz inlined a join each, and +, -, scaled and plus_scalar met in a
# two-operand join.  The builders below are those bodies as they were.


def old_context_of(polys):
    vars = tuple(sorted({v for p in polys for v in p.vars}))
    top = max((p.top for p in polys), default=0)
    return vars, _fit(top, max([matrix_module._WIDTH] + [p.width for p in polys])), top


def old_pair_context(a, b, top):
    vs = a.vars if a.vars == b.vars else tuple(sorted(set(a.vars) | set(b.vars)))
    return vs, _fit(top, max(a.width, b.width))


def old_writable(m, data):
    return list(data) if data is m.data else data


def old_from_rows(rows):
    grid = [[as_poly(x) for x in row] for row in rows]
    polys = [p for row in grid for p in row]
    vars, width, top = old_context_of(polys)
    ncols = len(grid[0]) if grid else 0
    return _make(len(grid), ncols, vars, width, top, [p._keys_in(vars, width) for p in polys])


def old_identity(n):
    data = [{}] * (n * n)
    for i in range(n):
        data[i * n + i] = {0: 1}
    return _make(n, n, (), matrix_module._WIDTH, 0, data)


def old_diagonal(entries):
    polys = [as_poly(x) for x in entries]
    n = len(polys)
    vars, width, top = old_context_of(polys)
    data = [{}] * (n * n)
    for i, p in enumerate(polys):
        data[i * n + i] = p._keys_in(vars, width)
    return _make(n, n, vars, width, top, data)


def old_cyclic_shift(blocks):
    w = blocks[0].nrows if isinstance(blocks[0], PolyMatrix) else 1
    d = len(blocks)
    n = d * w
    cells = []
    for j, b in enumerate(blocks):
        corner = (j + 1) % d * w * n + j * w
        if isinstance(b, PolyMatrix):
            cells += [(corner, r, c, b.entry(r, c)) for r, c, _ in b.nonzeros()]
        else:
            cells.append((corner, 0, 0, as_poly(b)))
    vars, width, top = old_context_of([p for *_, p in cells])
    data = [{}] * (n * n)
    for corner, r, c, p in cells:
        if p:
            data[corner + r * n + c] = p._keys_in(vars, width)
    return _make(n, n, vars, width, top, data)


def old_combination(pairs, n):
    terms = [(as_poly(c), m) for c, m in pairs if as_poly(c)]
    vs = tuple(sorted({v for p, m in terms for v in p.vars + m.vars}))
    top = max((m.top + p.top for p, m in terms), default=0)
    width = _fit(top, max((m.width for _, m in terms), default=matrix_module._WIDTH))
    data = [{}] * (n * n)
    for p, m in terms:
        pt = p._keys_in(vs, width)
        src = m.aligned_data(vs, width=width)
        for k in kernel.nonempty(src):
            t = kernel.mul_terms(src[k], pt)
            data[k] = kernel.add_terms(data[k], t) if data[k] else t
    return _make(n, n, vs, width, top, data)


def old_toeplitz(column, ncols):
    vs = tuple(sorted(set().union(*(c.vars for c in column))))
    top = max((c.top for c in column), default=0)
    width = _fit(top, max((c.width for c in column), default=matrix_module._WIDTH))
    col = [c.aligned_data(vs, width=width)[0] for c in column]
    data: list = []
    for i in range(len(col)):
        lower = min(i + 1, ncols)
        data += [col[i - j] for j in range(lower)] + [{}] * (ncols - lower)
    return _make(len(col), ncols, vs, width, top, data)


def old_sum(a, b, pair_op, lone_op):
    top = max(a.top, b.top)
    vs, width = old_pair_context(a, b, top)
    data = old_writable(a, a.aligned_data(vs, width=width))
    other = b.aligned_data(vs, width=width)
    for k in kernel.nonempty(other):
        x = data[k]
        data[k] = pair_op(x, other[k]) if x else lone_op(other[k])
    return _make(a.nrows, a.ncols, vs, width, top, data)


def old_scaled(m, c):
    p = as_poly(c)
    top = m.top + p.top
    vs, width = old_pair_context(m, p, top)
    pt = p._keys_in(vs, width)
    data = old_writable(m, m.aligned_data(vs, width=width))
    kernel.update_nonempty(data, lambda t: kernel.mul_terms(t, pt))
    return _make(m.nrows, m.ncols, vs, width, top, data)


def old_plus_scalar(m, c):
    n = m.nrows
    p = as_poly(c)
    top = max(m.top, p.top)
    vs, width = old_pair_context(m, p, top)
    pt = p._keys_in(vs, width)
    data = old_writable(m, m.aligned_data(vs, width=width))
    if pt:
        for k in range(0, n * n, n + 1):
            x = data[k]
            data[k] = kernel.add_terms(x, pt) if x else pt
    return _make(n, n, vs, width, top, data)


def same_build(got, want, where):
    """Equal shape, context and term maps, with keys and coefficient types in order."""
    assert (got.shape, got.vars, got.width, got.top) == (
        want.shape, want.vars, want.width, want.top), where
    assert [[(k, c, type(c)) for k, c in t.items()] for t in got.data] == [
        [(k, c, type(c)) for k, c in t.items()] for t in want.data], where


JOIN_VARS = ("w", "x", "y", "z")


def join_entry(rng):
    """A Poly, string or scalar: zeros with and without stray variables,
    constants, zeta-weights, exponents on both sides of the 8-bit field, and
    a product whose field is wider than its exponents need.
    """
    v, u = rng.sample(JOIN_VARS, 2)
    return rng.choice((
        lambda: 0,
        lambda: Poly.zero(),
        lambda: f"{v} - {v}",
        lambda: parse_poly(f"{v}*{u} - {u}*{v}"),
        lambda: rng.randrange(-3, 4),
        lambda: Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)),
        lambda: make_root(3) * rng.randrange(1, 3),
        lambda: f"{v} - 2*{u}",
        lambda: f"{v}^{rng.choice(BIG_EXPONENTS)} + 1/2",
        lambda: Poly.variable(v) ** 128 * Poly.variable(u) ** 128,
        lambda: Poly.variable(v),
    ))()


def join_matrix(rng, rows, cols):
    return PolyMatrix.from_rows([[join_entry(rng) for _ in range(cols)] for _ in range(rows)])


def test_every_builder_joins_contexts_as_before():
    rng = random.Random(2501)
    seen = Counter()
    for trial in range(150):
        r, c = rng.choice(((0, 0), (1, 0), (2, 0), (1, 1), (2, 3), (3, 2), (3, 3)))
        n = rng.randrange(0, 4)
        rows = [[join_entry(rng) for _ in range(c)] for _ in range(r)]
        a, b = join_matrix(rng, r, c), join_matrix(rng, r, c)
        if rng.random() < 0.3:  # 0 x n and n x 0 operands, keyed over no variables
            a = b = PolyMatrix.zeros(0, c) if rng.random() < 0.5 else PolyMatrix.zeros(r, 0)
        entries = [join_entry(rng) for _ in range(n)]
        square = join_matrix(rng, n, n)
        coefficient = as_poly(join_entry(rng))
        w = rng.randrange(0, 3)
        blocks = ([join_entry(rng) for _ in range(rng.randrange(1, 4))] if w == 1 else
                  [join_matrix(rng, w, w) for _ in range(rng.randrange(1, 4))])
        column = [join_matrix(rng, 1, 1) for _ in range(rng.randrange(0, 5))]
        pairs = [(join_entry(rng), join_matrix(rng, n, n)) for _ in range(rng.randrange(0, 4))]
        checks = {
            "from_rows": (lambda: PolyMatrix.from_rows(rows), lambda: old_from_rows(rows)),
            "identity": (lambda: PolyMatrix.identity(n), lambda: old_identity(n)),
            "diagonal": (lambda: PolyMatrix.diagonal(entries), lambda: old_diagonal(entries)),
            "cyclic_shift": (lambda: PolyMatrix.cyclic_shift(blocks),
                             lambda: old_cyclic_shift(blocks)),
            "toeplitz": (lambda: PolyMatrix.toeplitz(column, n), lambda: old_toeplitz(column, n)),
            "+": (lambda: a + b, lambda: old_sum(a, b, kernel.add_terms, lambda t: t)),
            "-": (lambda: a - b, lambda: old_sum(a, b, kernel.sub_terms, kernel.neg_terms)),
            "scaled": (lambda: a.scaled(coefficient), lambda: old_scaled(a, coefficient)),
            "plus_scalar": (lambda: square.plus_scalar(coefficient),
                            lambda: old_plus_scalar(square, coefficient)),
        }
        for name, (new, old) in checks.items():
            same_build(new(), old(), f"trial {trial}: {name}")
        got, want = PolyMatrix.combination(pairs, n), old_combination(pairs, n)
        # one change: the join also holds each coefficient's field width, as
        # the running sum of scaled matrices always did
        coefficients = [p for p in (as_poly(c) for c, _ in pairs) if p]
        assert got.width == max([want.width] + [p.width for p in coefficients]), trial
        widened = want.aligned_data(want.vars, width=got.width)
        same_build(got, _make(n, n, want.vars, got.width, want.top, widened),
                   f"trial {trial}: combination")
        seen["combination wider than before"] += got.width > want.width
        seen["stray zero"] += any(isinstance(e, str) and "-" in e and not as_poly(e)
                                  for row in rows for e in row)
        seen["0 x n"] += 0 in a.shape
        seen["wide field"] += any(m.width > matrix_module._WIDTH for m in (a, b, square))
    expected = {"stray zero", "0 x n"}
    if matrix_module._WIDTH == 8:  # 24-bit fields hold every exponent drawn here
        expected |= {"combination wider than before", "wide field"}
    assert {k for k, v in seen.items() if v} >= expected, seen


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
    {"x": 0, "y": "3/2*w", "z": "y - w"},  # mixed zero and nonzero bindings
    {"z": "z + y"},  # a value sharing a kept variable
    {"y": "w^2", "x": "x*w"},  # values widening fields past 8 bits
    {"z": "zeta5*x - zeta3", "x": "zeta4*w"},  # cyclotomic values
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
        test_cyclic_shift_of_polynomials_equals_the_grid,
        test_cyclic_shift_of_blocks_equals_the_old_block_shift,
        test_every_builder_joins_contexts_as_before,
    ],
    ids=lambda check: check.__name__,
)
def test_under_each_encoding(forced_wide_keys, check):
    check()
