"""The one-pass twisted tensor against the pairwise Kronecker fold.

``twisted_tensor_all`` writes each action of M_0 (x) ... (x) M_k cell by cell
from the factors' nonzeros.  The reference below is the pairwise product
that it replaced, written out with ``kron``, ``diagonal`` and matrix sums:
phi(m) = phi1(m) (x) I + diag(xi^deg) (x) phi2(m), folded from the left.  The
two must agree on every named action (names, target variables, ``==`` and
``vars`` of each matrix), the grading, the target, the t-variable and the
source algebra.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from robyclif.errors import InputError
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import run_pipeline
from robyclif.poly import HomForm, Poly, parse_poly
from robyclif.roby import (
    GradedRobyModule,
    monomial_charpoly_roby,
    monomial_roby,
    split_roby,
    twisted_tensor,
    twisted_tensor_all,
    verify_roby,
    zero_roby,
)
from robyclif.scalars import make_root
from robyclif.seeds import mf_seed
from robyclif.specfile import parse_pipeline

from test_pipeline import multi_branch_spec

DEMO = Path(__file__).resolve().parent.parent / "demo"


def reference_pair(m1, m2, xi):
    """The pairwise twisted tensor as two Kronecker products and a sum."""
    e = m1.degree
    eye2 = PolyMatrix.identity(m2.dim)
    dxi = PolyMatrix.diagonal([xi ** g for g in m1.grading])
    left = {n: (v, a) for n, v, a in m1.named_actions[: len(m1.action_names)]}
    right = {n: (v, b) for n, v, b in m2.named_actions[: len(m2.action_names)]}
    named = []
    for n in dict.fromkeys([*left, *right]):
        v, a = left.get(n) or (None, PolyMatrix.zeros(m1.dim, m1.dim))
        w, b = right.get(n) or (None, PolyMatrix.zeros(m2.dim, m2.dim))
        named.append((n, v or w, a.kron(eye2) + dxi.kron(b)))
    names, tvars, actions = zip(*named)
    tslot = m1.tslot.kron(eye2) + dxi.kron(m2.tslot) if m1.has_tslot else None
    grading = [(g1 + g2) % e for g1 in m1.grading for g2 in m2.grading]
    source = m1.source_algebra if m1.source_algebra == m2.source_algebra else None
    return GradedRobyModule(
        e, grading, names, actions, m1.target_poly + m2.target_poly,
        target_vars=tvars, tslot=tslot, tvar=m1.tvar, source_algebra=source,
    )


def reference_fold(modules, xi):
    acc = modules[0]
    for m in modules[1:]:
        acc = reference_pair(acc, m, xi)
    return acc


def assert_same_module(got, want):
    assert [t[:2] for t in got.named_actions] == [t[:2] for t in want.named_actions]
    for (name, _, a), (_, _, b) in zip(got.named_actions, want.named_actions):
        assert a == b, name
        assert a.vars == b.vars, name
    assert got.grading == want.grading
    assert got.target_poly == want.target_poly
    assert got.target_poly.vars == want.target_poly.vars
    assert got.tvar == want.tvar
    assert got.degree == want.degree
    assert got.source_algebra is want.source_algebra


def pipeline_factors(spec):
    """The seed and monomial factors ``run_pipeline`` tensors, and its result."""
    result = run_pipeline(spec)
    factors = [monomial_charpoly_roby(m, spec.algebra) for m in result.monomials]
    return result, [result.seed, *factors]


PIPELINES = {
    **{f"multi_branch_spec({n})": (lambda n=n: multi_branch_spec(n)) for n in range(1, 7)},
    **{
        name: (lambda name=name: parse_pipeline((DEMO / name).read_text(encoding="utf-8")))
        for name in ("quadric.pipeline", "perturbed_split.pipeline")
    },
}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_assembly_equals_the_pairwise_fold(name):
    result, modules = pipeline_factors(PIPELINES[name]())
    xi = make_root(result.seed.degree)
    assert_same_module(result.assembly, reference_fold(modules, xi))
    assert_same_module(twisted_tensor_all(modules, xi), result.assembly)


def test_families_add_where_they_share_a_cell():
    # family j writes cells whose indices differ from the diagonal's in
    # slot j only, so two families meet only on the diagonal, where both
    # factors have a diagonal entry; an entry that raises the grade has none
    def one_dim(text, g):
        return GradedRobyModule(2, (g,), ("a",), [PolyMatrix.from_rows([[text]])], Poly.zero())

    modules = [one_dim("x", 1), one_dim("y", 0), one_dim("x*y - x", 1)]
    got = twisted_tensor_all(modules, -1)
    assert got.action("a") == PolyMatrix.from_rows([["2*x - y - x*y"]])  # x - y - (x*y - x)
    assert_same_module(got, reference_fold(modules, -1))
    cancel = twisted_tensor_all([one_dim("x", 0), one_dim("-x", 0)], -1)
    assert cancel.action("a").is_zero() and cancel.action("a").vars == ("x",)
    assert_same_module(cancel, reference_fold([one_dim("x", 0), one_dim("-x", 0)], -1))


def test_the_ungraded_demo_shares_no_cell():
    # perturbed_split's algebra is ungraded, but every action of its seed
    # and factors still raises the grade, so no two families meet
    result, modules = pipeline_factors(PIPELINES["perturbed_split.pipeline"]())
    assert result.report.meta["mode"] == "ungraded"
    for m in modules:
        for _, _, a in m.named_actions:
            assert all(m.grading[r] == (m.grading[c] + 1) % 2 for r, c, _ in a.nonzeros())


def random_entry(rng, names, e, order):
    """0 or a few terms in names with coefficients in Q(zeta_order)."""
    if rng.random() < 0.6:
        return 0
    out = Poly.zero()
    for _ in range(rng.randrange(1, 3)):
        c = make_root(order) ** rng.randrange(order) * Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        term = Poly.const(c)
        for v in rng.sample(names, rng.randrange(0, 3)):
            term = term * Poly.variable(v) ** rng.randrange(1, e + 1)
        out = out + term
    return out


def random_form_module(rng, e, order, pool):
    """A seeded form module of degree e over Q(zeta_order), graded or not."""
    dim = rng.choice([1, 2, 3, e])
    grading = [rng.randrange(e) for _ in range(dim)]
    graded = rng.random() < 0.5
    names = rng.sample(pool, rng.randrange(1, len(pool) + 1))
    actions = []
    for _ in names:
        rows = [
            [
                0 if graded and grading[r] != (grading[c] + 1) % e
                else random_entry(rng, ["x", "y", "w"], e, order)
                for c in range(dim)
            ]
            for r in range(dim)
        ]
        actions.append(PolyMatrix.from_rows(rows))
    target = random_entry(rng, ["x", "y"], e, order) or Poly.zero()
    return GradedRobyModule(e, grading, names, actions, target)


@pytest.mark.parametrize("e", [3, 4])
def test_seeded_modules_over_cyclotomic_fields(e):
    rng = random.Random(2700 + e)
    xi = make_root(e)
    for _ in range(40):
        modules = [random_form_module(rng, e, e, ["a", "b", "c", "T"]) for _ in range(rng.randrange(1, 5))]
        assert_same_module(twisted_tensor_all(modules, xi), reference_fold(modules, xi))
        if len(modules) == 2:
            assert_same_module(twisted_tensor(*modules, xi), reference_fold(modules, xi))


def diagonal_forms(e, names):
    return [monomial_roby(HomForm(parse_poly(f"{v}^{e}"), e, (v,))) for v in names]


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_form_modules_with_different_name_sets(e):
    xi = make_root(e)
    products = [
        monomial_roby(HomForm(parse_poly(text), e, names))
        for text, names in (
            ("x*y" + "*x" * (e - 2), ("x", "y")),
            ("y*z" + "*y" * (e - 2), ("y", "z")),
        )
    ]
    for modules in (
        diagonal_forms(e, ["y1", "y2", "y3"]),
        [*products, *diagonal_forms(e, ["x"])],
        [zero_roby(e, ("q",)), *products],
    ):
        got = twisted_tensor_all(modules, xi)
        assert_same_module(got, reference_fold(modules, xi))
        assert verify_roby(got).ok


def test_a_basis_action_named_T_stays_beside_the_tslot():
    seed = mf_seed("x", "y", var="T")
    bare = GradedRobyModule(
        2, seed.grading, seed.action_names, seed.actions, seed.target_poly,
        target_vars=seed.target_vars, tslot=seed.tslot, tvar=seed.tvar,
    )
    for modules in ([seed, seed, seed], [bare, seed], [seed, bare, seed]):
        got = twisted_tensor_all(modules, -1)
        assert [n for n, _, _ in got.named_actions] == ["1", "T", "T"]
        assert_same_module(got, reference_fold(modules, -1))


def test_the_nonprimitive_counterexample():
    modules = diagonal_forms(2, ["x", "y"])
    got = twisted_tensor_all(modules, 1, require_primitive=False)
    assert_same_module(got, reference_fold(modules, 1))
    assert_same_module(twisted_tensor(*modules, 1, require_primitive=False), got)
    assert not verify_roby(got).ok
    three = diagonal_forms(3, ["x", "y", "z"])
    for xi in (1, 2, make_root(6)):
        got = twisted_tensor_all(three, xi, require_primitive=False)
        assert_same_module(got, reference_fold(three, xi))


def test_split_modules_and_one_module_alone():
    s = split_roby(3)
    xi = make_root(3)
    assert_same_module(twisted_tensor_all([s, s, s], xi), reference_fold([s, s, s], xi))
    assert_same_module(twisted_tensor_all([s], xi), s)


@pytest.mark.parametrize(
    "modules, xi, message",
    [
        (lambda: diagonal_forms(2, ["x"]) + diagonal_forms(3, ["y"]), -1, "degrees 2 and 3"),
        (lambda: [split_roby(2), *diagonal_forms(2, ["x"])], -1, "form module"),
        (lambda: diagonal_forms(2, ["x", "y"]), 0.5, "exact scalar, got float"),
        (lambda: diagonal_forms(2, ["x", "y"]), 1, "primitive root"),
        (lambda: [split_roby(2), split_roby(2, dual_names=("h1", "h2"))], -1, "share basis"),
        (
            lambda: diagonal_forms(2, ["x"])
            + [GradedRobyModule(2, (1, 0), ("x",), diagonal_forms(2, ["x"])[0].actions,
                                parse_poly("a^2"), target_vars=("a",))],
            -1,
            "action x has target variables 'x' and 'a'",
        ),
        # the fold reports the first step's refusal, before a later one
        (lambda: diagonal_forms(2, ["x", "y"]) + diagonal_forms(3, ["z"]), 1, "primitive root"),
        (lambda: diagonal_forms(2, ["x"]) + diagonal_forms(3, ["y"]), 1, "degrees 2 and 3"),
        (lambda: [], -1, "at least one module"),
    ],
)
def test_refusals_come_in_the_fold_order(modules, xi, message):
    with pytest.raises(InputError, match=message):
        twisted_tensor_all(modules(), xi)


def test_the_pipeline_builds_no_intermediate_module(monkeypatch):
    dims = []
    init = GradedRobyModule.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dims.append(self.dim)

    monkeypatch.setattr(GradedRobyModule, "__init__", recording)
    result = run_pipeline(multi_branch_spec(5))
    seed, top = result.seed.dim, result.assembly.dim
    assert (seed, top) == (4, 128)
    assert top in dims
    assert [d for d in dims if seed < d < top] == []
