"""The term-map kernel, checked against a plain evaluator that never calls it.

Each kernel result is evaluated at random rational points and compared with
the same arithmetic done on the evaluated inputs.  Exact values that agree at
several random points make a wrong term map vanishingly unlikely
(Schwartz-Zippel), and the exact cases below pin the rest.
"""

import random
from fractions import Fraction

import pytest

from robyclif import kernel, matrix
from robyclif.scalars import make_root

WIDTH = 3
POINTS = 3


def random_terms(rng, *, size=6, cyclotomic=False):
    out = {}
    for _ in range(size):
        exp = tuple(rng.randrange(0, 4) for _ in range(WIDTH))
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        if cyclotomic and rng.random() < 0.5:
            c = make_root(4) * c + rng.randrange(-2, 3)
        if c:
            out[exp] = c
    return out


def random_points(rng):
    return [
        tuple(Fraction(rng.randrange(-7, 8), rng.randrange(1, 5)) for _ in range(WIDTH))
        for _ in range(POINTS)
    ]


def evaluate(terms, point):
    total = Fraction(0)
    for exp, c in terms.items():
        value = c
        for x, e in zip(point, exp):
            value = value * x**e
        total = total + value
    return total


def assert_no_zeros(terms):
    assert all(terms.values()), "a zero coefficient slipped into a term map"


def test_add_sub_mul_match_the_evaluator():
    rng = random.Random(11)
    for trial in range(40):
        cyc = trial % 3 == 0
        a = random_terms(rng, cyclotomic=cyc)
        b = random_terms(rng, cyclotomic=cyc)
        a_copy, b_copy = dict(a), dict(b)
        got = {
            "add": kernel.add_terms(a, b),
            "sub": kernel.sub_terms(a, b),
            "mul": kernel.mul_terms(a, b),
        }
        assert (a, b) == (a_copy, b_copy), "an input term map was mutated"
        for terms in got.values():
            assert_no_zeros(terms)
        for p in random_points(rng):
            va, vb = evaluate(a, p), evaluate(b, p)
            assert evaluate(got["add"], p) == va + vb, f"add_terms, trial {trial}"
            assert evaluate(got["sub"], p) == va - vb, f"sub_terms, trial {trial}"
            assert evaluate(got["mul"], p) == va * vb, f"mul_terms, trial {trial}"


def test_neg_and_scale_match_the_evaluator():
    rng = random.Random(12)
    for trial in range(20):
        a = random_terms(rng, cyclotomic=trial % 2 == 0)
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        if trial % 4 == 1:
            c = make_root(4) * c + 1
        neg, scaled = kernel.neg_terms(a), kernel.scale_terms(a, c)
        assert_no_zeros(neg)
        assert_no_zeros(scaled)
        for p in random_points(rng):
            assert evaluate(neg, p) == -evaluate(a, p)
            assert evaluate(scaled, p) == evaluate(a, p) * c
    assert kernel.scale_terms(a, 0) == {}
    assert kernel.scale_terms(a, Fraction(0)) == {}


def test_mul_into_accumulates():
    rng = random.Random(13)
    for trial in range(20):
        cyc = trial % 3 == 0
        acc = random_terms(rng, cyclotomic=cyc)
        before = dict(acc)
        a = random_terms(rng, cyclotomic=cyc)
        b = random_terms(rng)
        kernel.mul_into(acc, a, b)
        assert_no_zeros(acc)
        for p in random_points(rng):
            assert evaluate(acc, p) == evaluate(before, p) + evaluate(a, p) * evaluate(b, p)


def test_matmul_matches_naive_triple_loop():
    rng = random.Random(14)
    for trial in range(10):
        n, k, m = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        # size 0 leaves some entries empty, as in sparse assembly matrices
        a = [random_terms(rng, size=rng.randrange(0, 4), cyclotomic=trial % 2 == 0)
             for _ in range(n * k)]
        b = [random_terms(rng, size=rng.randrange(0, 4)) for _ in range(k * m)]
        out = packed_matmul(a, b, n, k, m)
        assert len(out) == n * m
        for entry in out:
            assert_no_zeros(entry)
        for p in random_points(rng):
            va = [evaluate(t, p) for t in a]
            vb = [evaluate(t, p) for t in b]
            for i in range(n):
                for j in range(m):
                    want = Fraction(0)
                    for s in range(k):
                        want = want + va[i * k + s] * vb[s * m + j]
                    assert evaluate(out[i * m + j], p) == want, f"entry ({i}, {j}), trial {trial}"


def test_matmul_empty_inner():
    assert kernel.matmul_terms([], [], 2, 0, 2) == [{}] * 4


def test_cancellation_prunes():
    a = {(1, 0): Fraction(3)}
    b = {(1, 0): Fraction(-3), (0, 1): Fraction(2)}
    assert kernel.add_terms(a, b) == {(0, 1): Fraction(2)}
    assert kernel.sub_terms(a, a) == {}
    prod = kernel.mul_terms(
        {(1,): Fraction(1), (0,): Fraction(1)},
        {(1,): Fraction(1), (0,): Fraction(-1)},
    )
    assert prod == {(2,): Fraction(1), (0,): Fraction(-1)}
    acc = {(2,): Fraction(-1)}
    kernel.mul_into(acc, {(1,): Fraction(1)}, {(1,): Fraction(1)})
    assert acc == {}


# -- the sparse product against a plain triple loop ------------------------------


def packed_matmul(a, b, n, k, m):
    """``matmul_terms`` on flat lists of tuple-keyed term maps.

    The keys are packed at the width of a new matrix, widened by bytes until
    every exponent sum fits, and the product is decoded back to tuples.
    """
    tops = [max((e for t in side for exp in t for e in exp), default=0) for side in (a, b)]
    nvars = next((len(exp) for t in a + b for exp in t), 0)
    width = matrix._WIDTH
    while sum(tops) >> width:
        width += 8
    out = kernel.matmul_terms(
        [kernel.pack(t, width) for t in a], [kernel.pack(t, width) for t in b], n, k, m
    )
    return [kernel.unpack(t, range(nvars), width) for t in out]


DENSITIES = (0.0, 0.02, 0.3, 1.0)


def random_flat_matrix(rng, rows, cols, density):
    """Flat row-major term maps; each slot is nonzero with probability density."""
    out = []
    for _ in range(rows * cols):
        terms = random_terms(rng, size=rng.randrange(1, 3)) if rng.random() < density else {}
        out.append(terms)
    return out


def naive_mul_into(acc, a, b):
    # term by term, the shorter factor outermost (the left one on a tie): the
    # order in which the kernel documents its products, so the resulting key
    # order is the one reports have always printed
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            total = acc.get(exp, 0) + ca * cb
            if total:
                acc[exp] = total
            else:
                acc.pop(exp, None)


def naive_matmul(a, b, n, k, m):
    out = []
    for i in range(n):
        for j in range(m):
            acc = {}
            for s in range(k):
                naive_mul_into(acc, a[i * k + s], b[s * m + j])
            out.append(acc)
    return out


def sparse_shapes():
    yield 3, 5, 2
    yield 3, 0, 4
    yield 0, 3, 2
    for size in range(1, 18):
        yield size, size, size


def test_sparse_matmul_equals_the_triple_loop_key_for_key():
    rng = random.Random(15)
    for n, k, m in sparse_shapes():
        for density in DENSITIES:
            a = random_flat_matrix(rng, n, k, density)
            b = random_flat_matrix(rng, k, m, density)
            got = packed_matmul(a, b, n, k, m)
            want = naive_matmul(a, b, n, k, m)
            where = f"{n}x{k} @ {k}x{m} at density {density}"
            assert got == want, where
            # equal dicts may still print differently: pin the key order too
            assert [list(t.items()) for t in got] == [list(t.items()) for t in want], where


# -- the two key encodings --------------------------------------------------------


def naive_mul_terms(a, b):
    acc = {}
    naive_mul_into(acc, a, b)
    return acc


def assert_same_items(got, want, where):
    assert got == want, where
    assert list(got.items()) == list(want.items()), where


def terms_reaching(rng, nvars, top, size):
    """Random terms with exponents in 0..top, one of them top in field 0."""
    out = {}
    for _ in range(size):
        exp = tuple(rng.choice((0, 1, top - 1, top)) if top else 0 for _ in range(nvars))
        out[exp] = rng.choice((1, -2, Fraction(3, 4), 5))
    if nvars:
        out[(top,) + (1,) * (nvars - 1)] = 7
    return out


# (largest exponent on the left, largest on the right): sums on both sides of
# the one-byte field, where packing stops, and wider ones that keep the tuple
# loop: both sides of two bytes and above 64 bits
FIELD_EDGES = ((128, 127), (128, 128), (32768, 32767), (32768, 32768), (2**64, 1), (0, 0))


def encoding_cases(rng):
    """(name, a, b) pairs covering every field width and key width."""
    for left, right in FIELD_EDGES:
        for nvars in (1, 3):
            yield (f"{left}+{right} in {nvars} vars",
                   terms_reaching(rng, nvars, left, 9), terms_reaching(rng, nvars, right, 7))
    yield "0 vars", {(): Fraction(2, 3)}, {(): -3}
    yield "30 vars", terms_reaching(rng, 30, 3, 12), terms_reaching(rng, 30, 250, 10)
    # (1 - x + x^2)(1 + x + x^2): x and x^3 cancel; x^2 is cancelled by the
    # second row of products and re-inserted, at the end, by the third
    yield "cancel and re-insert", {(0,): 1, (1,): 1, (2,): 1}, {(0,): 1, (1,): -1, (2,): 1}


def test_cancelled_keys_are_re_inserted_at_the_end(forced_packing):
    got = kernel.mul_terms({(0,): 1, (1,): 1, (2,): 1}, {(0,): 1, (1,): -1, (2,): 1})
    assert list(got.items()) == [((0,), 1), ((2,), 1), ((4,), 1)]


def test_both_encodings_equal_the_tuple_loop_key_for_key(forced_encodings, packed_calls):
    rng = random.Random(16)
    for name, a, b in encoding_cases(rng):
        a_copy, b_copy = dict(a), dict(b)
        assert_same_items(kernel.mul_terms(a, b), naive_mul_terms(a, b), name)
        assert_same_items(kernel.mul_terms(b, a), naive_mul_terms(b, a), name)
        # a 2x2 product whose entries accumulate across s
        left, right = [a, {}, b, a], [b, a, a, {}]
        got = packed_matmul(left, right, 2, 2, 2)
        want = naive_matmul(left, right, 2, 2, 2)
        assert [list(t.items()) for t in got] == [list(t.items()) for t in want], name
        assert (a, b) == (a_copy, b_copy), f"{name}: an input was mutated"
    assert bool(packed_calls) == (forced_encodings == "always")


def test_only_one_byte_sums_pack(monkeypatch, packed_calls):
    monkeypatch.setattr(kernel, "_PACK_RATIO", 0)
    rng = random.Random(18)
    for left, right in FIELD_EDGES:
        a, b = terms_reaching(rng, 3, left, 9), terms_reaching(rng, 3, right, 7)
        del packed_calls[:]
        assert_same_items(kernel.mul_terms(a, b), naive_mul_terms(a, b), f"{left}+{right}")
        got = packed_matmul([a], [b], 1, 1, 1)
        assert_same_items(got[0], naive_mul_terms(a, b), f"{left}+{right} matmul")
        assert len(packed_calls) == (1 if left + right <= 255 else 0), f"{left}+{right}"


def test_fat_calls_pack_and_thin_calls_do_not(packed_calls):
    rng = random.Random(17)
    thin = [random_terms(rng, size=2) for _ in range(2)]
    assert_same_items(kernel.mul_terms(*thin), naive_mul_terms(*thin), "thin mul_terms")
    assert packed_calls == []

    fat = [terms_reaching(rng, 4, 6, 20) for _ in range(2)]
    assert len(fat[0]) * len(fat[1]) >= kernel._PACK_RATIO * (len(fat[0]) + len(fat[1]))
    assert_same_items(kernel.mul_terms(*fat), naive_mul_terms(*fat), "fat mul_terms")
    assert packed_calls == [(len(fat[0]), len(fat[1]))]


def test_matmul_shares_one_empty_map_under_both_encodings(forced_wide_keys):
    # packed keys over (x, y): y is the second field
    y = 1 << matrix._WIDTH
    a = [{y: 1}, {}, {}, {}]
    out = kernel.matmul_terms(a, a, 2, 2, 2)
    assert out == [{2 * y: 1}, {}, {}, {}]
    assert out[1] is out[2] is out[3]


def test_matmul_entry_that_cancels_is_the_shared_empty_map(forced_wide_keys):
    # y*1 + y*(-1) cancels in entry (0, 0); no product reaches the others
    y = 1 << matrix._WIDTH
    a = [{y: 1}, {y: 1}, {}, {}]
    b = [{0: 1}, {}, {0: -1}, {}]
    out = kernel.matmul_terms(a, b, 2, 2, 2)
    assert out == [{}, {}, {}, {}]
    assert out[0] is out[1] is out[2] is out[3]


@pytest.mark.parametrize(
    "check",
    [
        test_add_sub_mul_match_the_evaluator,
        test_matmul_matches_naive_triple_loop,
        test_matmul_empty_inner,
        test_cancellation_prunes,
        test_sparse_matmul_equals_the_triple_loop_key_for_key,
    ],
    ids=lambda check: check.__name__,
)
def test_under_each_encoding(forced_encodings, check):
    check()
