"""The xi-binomial lemma path of ``verify_roby`` against the full check.

A module that ``twisted_tensor_all`` built records (factors, xi) as its
``tensor_of``, and ``verify_roby`` writes the graded and power-identity rows
from the factors when conditions (i)-(vi) of ``roby.py`` hold: the factors'
own checks, one degree and a primitive twist, (name, target variable) pairs
that bind alike (iii'), the summed grading, the O(nnz) certificate
``PolyMatrix.is_twisted_sum`` and the summed target.  Otherwise it checks the
module itself.  Here every input is verified both ways, once rebuilt with the
case's record and once rebuilt without any, and the two reports must be
equal (``comparable_dict``); whether the lemma decided is asserted per input,
and every verdict is checked against the random-point evaluator
``roby_point_verdict`` as well, which shares no code with either path.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from robyclif.cli import main
from robyclif.errors import InputError
from robyclif.matrix import PolyMatrix
from robyclif.poly import HomForm, Poly, parse_poly
from robyclif.report import comparable_dict
from robyclif.roby import (
    GradedRobyModule,
    _tensor_lemma,
    monomial_roby,
    twisted_tensor,
    twisted_tensor_all,
    verify_roby,
    zero_roby,
)
from robyclif.scalars import make_root
from robyclif.specfile import parse_pipeline, parse_roby_module, render_roby_module

from make_golden import replaced, unit
from test_assembly_oracle import diagonal_forms, pipeline_factors, random_form_module
from test_pipeline import multi_branch_spec
from test_point_oracle import roby_point_verdict
from test_power_block import products

DEMO = Path(__file__).resolve().parent.parent / "demo"


def pipeline_case(build):
    """(assembly, factors, twist) of one pipeline run."""
    result, modules = pipeline_factors(build())
    return result.assembly, modules, make_root(result.seed.degree)


def demo_spec(name):
    return parse_pipeline((DEMO / name).read_text(encoding="utf-8"))


def random_scalar(rng, order):
    """A nonzero element of Q(zeta_order): a signed fraction times a root power."""
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return make_root(order) ** rng.randrange(order) * Fraction(num, rng.randrange(1, 4))


def random_monomial_module(rng, e, names):
    """A one-term form over names, its coefficient spread over the e slots.

    Each slot factor is a scalar of Q(zeta_e), times x for some slots.
    """
    slots = [
        (Poly.const(random_scalar(rng, e)) * Poly.variable("x") ** rng.randrange(2),
         rng.choice(names))
        for _ in range(e)
    ]
    form = Poly.const(1)
    for c, v in slots:
        form = form * c * Poly.variable(v)
    return monomial_roby(HomForm(form, e, names), factors=slots)


def seeded_case(e, seed):
    """A seeded twisted tensor of one to three factors over Q(zeta_e).

    Most factors are one-term forms over the names a, b, c (each passes its
    own check); one in five is a random form module, graded or not, over a
    random subset of the names, which the lemma must hand back.
    """
    rng = random.Random(seed)
    names = ("a", "b", "c")
    modules = []
    for _ in range(rng.randrange(1, 4)):
        pick = rng.random()
        if pick < 0.2:
            modules.append(random_form_module(rng, e, e, list(names)))
        elif pick < 0.3:
            modules.append(zero_roby(e, names))
        else:
            modules.append(random_monomial_module(rng, e, names))
    # any primitive e-th root twists; the builder and the lemma get the same
    xi = make_root(e) ** rng.choice([k for k in range(1, e) if all(k * j % e for j in range(1, e))])
    return twisted_tensor_all(modules, xi), modules, xi


def one_cell(assembly, index, new_entry):
    """The assembly with entry (r, c) of named action ``index`` replaced by new_entry(entry)."""
    name, r, c = index
    n = assembly.dim
    named = []
    for act, v, m in assembly.named_actions:
        if act == name:
            old = m.entry(r, c)
            m = m + unit(n, r, c, new_entry(old) - old)
        named.append(m)
    basis = len(assembly.action_names)
    return replaced(assembly, actions=named[:basis], tslot=named[basis] if assembly.has_tslot else None)


def nonzero_cell(module, index=0):
    """(action name, row, col) of the index-th nonzero over all actions in order."""
    cells = [(name, r, c) for name, _, m in module.named_actions for r, c, _ in m.nonzeros()]
    return cells[index]


def empty_raising_cell(module):
    """(action name, row, col) of an empty cell of the first action that raises the grade."""
    name, _, m = module.named_actions[0]
    g, d = module.grading, module.degree
    return next(
        (name, r, c)
        for r in range(module.dim)
        for c in range(module.dim)
        if g[r] == (g[c] + 1) % d and not m.entry(r, c)
    )


def tampered_factor(modules, j):
    """The factors with x added at the first nonzero of factor j's last action."""
    m = modules[j]
    cell = nonzero_cell(m)
    return [*modules[:j], one_cell(m, cell, lambda p: p + Poly.variable("x")), *modules[j + 1:]]


def recorded(module, modules, xi):
    """The module rebuilt with the record (modules, xi), right or wrong."""
    return replaced(module, tensor_of=(tuple(modules), xi))


def unrecorded(module):
    """The module rebuilt without a record, so ``verify_roby`` checks it in full."""
    return replaced(module)


def small():
    return pipeline_case(lambda: multi_branch_spec(2))


def cubic():
    return seeded_case(3, 6)


def missing_action():
    # factor 2 has no action a, so its own check leaves a free: its entry
    # a squares to a*s^2 = its target a*b^2 at b = s.  In the assembly a is
    # a target variable, bound to a fresh coefficient, and the identity fails
    f1 = monomial_roby(HomForm(parse_poly("a^2"), 2, ("a",)))
    f2 = GradedRobyModule(2, (0, 1), ("b",), [PolyMatrix.from_rows([[0, "a"], [1, 0]])],
                          parse_poly("a*b^2"))
    return twisted_tensor_all([f1, f2], -1), [f1, f2], -1


def entry_names_a_lacking_action():
    # factor 2 has no action a and names a in two entries only: its
    # action is [[0, P], [P^-1, 0]] with P = [[1, a], [0, 1]], so it squares
    # to I for every a and the factor passes with a free.  A check binds a
    # only in a target, and factor 2's target b^2 has no a, so (iii') holds
    # and the lemma decides the assembly, which passes
    f1 = monomial_roby(HomForm(parse_poly("a^2"), 2, ("a",)))
    rows = [[0, 0, 1, "a"], [0, 0, 0, 1], [1, "-a", 0, 0], [0, 1, 0, 0]]
    f2 = GradedRobyModule(2, (0, 0, 1, 1), ("b",), [PolyMatrix.from_rows(rows)], parse_poly("b^2"))
    return twisted_tensor_all([f1, f2], -1), [f1, f2], -1


def pairs_out_of_order():
    # factor 2 has the assembly's (name, target variable) pairs in another
    # order.  Each target variable is bound to its one action either way,
    # so both checks pass and (iii') holds
    f1 = monomial_roby(HomForm(parse_poly("a^2"), 2, ("a", "b")))
    f2 = monomial_roby(HomForm(parse_poly("b^2"), 2, ("b", "a")))
    return twisted_tensor_all([f1, f2], -1), [f1, f2], -1


def binary_fold(e, s, xi=None, *, require_primitive=True):
    """The benchmark's diagonal form y1^e + ... + ys^e as s - 1 binary tensors.

    Each step records (the fold so far, the next factor), so the lemma
    checks the fold so far by its own record in condition (i).
    """
    xi = make_root(e) if xi is None else xi
    acc, *rest = diagonal_forms(e, [f"y{i}" for i in range(1, s + 1)])
    for nxt in rest:
        acc = twisted_tensor(acc, nxt, xi, require_primitive=require_primitive)
    return acc, list(acc.tensor_of[0]), xi


def power_forms(e, names):
    """One module of v^e per name v, each with an action for every name."""
    return [monomial_roby(HomForm(parse_poly(f"{v}^{e}"), e, names)) for v in names]


def untwisted(e, names, claimed):
    # the counterexample of twisted_tensor's docstring, with the names
    # shared so that only the twist stops the lemma
    modules = power_forms(e, names)
    return twisted_tensor_all(modules, 1, require_primitive=False), modules, claimed


def with_assembly(case, change):
    assembly, modules, xi = case()
    return change(assembly, xi), modules, xi


# name -> (case factory: (module, factors, twist), whether the lemma decides,
# whether the module passes); None where a seeded case decides it
CASES = {
    **{f"multi_branch_spec({n})": (lambda n=n: pipeline_case(lambda: multi_branch_spec(n)), True, True)
       for n in range(1, 7)},
    **{name: (lambda name=name: pipeline_case(lambda: demo_spec(name)), True, True)
       for name in ("quadric.pipeline", "perturbed_split.pipeline")},
    **{f"seeded over Q(zeta_{e}) #{k}": (lambda e=e, k=k: seeded_case(e, 100 * e + k), None, None)
       for e in (3, 4) for k in range(12)},
    "xi = 1 counterexample, y1^2 + y2^2": (lambda: untwisted(2, ("y1", "y2"), 1), False, False),
    "xi = 1 counterexample claimed as xi = -1": (
        lambda: untwisted(2, ("y1", "y2"), -1), False, False),
    "xi = 1 counterexample, cubes, claimed as zeta_3": (
        lambda: untwisted(3, ("y1", "y2", "y3"), make_root(3)), False, False),
    "cubes twisted by zeta_3, claimed as zeta_6": (
        lambda: (twisted_tensor_all(power_forms(3, ("y1", "y2")), make_root(3)),
                 power_forms(3, ("y1", "y2")), make_root(6)), False, True),
    **{f"Q(zeta_{e})^{s} as binary tensors": (lambda e=e, s=s: binary_fold(e, s), True, True)
       for e, s in ((3, 4), (4, 3), (5, 3))},
    "xi = 1 control, cubes as binary tensors": (
        lambda: binary_fold(3, 3, 1, require_primitive=False), False, False),
    "squares over different names": (
        lambda: (twisted_tensor_all(diagonal_forms(2, ["y1", "y2"]), -1),
                 diagonal_forms(2, ["y1", "y2"]), -1), True, True),
    "a factor without an action": (missing_action, False, False),
    "a factor naming a lacking action in an entry": (entry_names_a_lacking_action, True, True),
    "a factor with its pairs out of order": (pairs_out_of_order, True, True),
    "assembly built from a tampered factor": (
        lambda: (lambda mods: (twisted_tensor_all(mods, -1), mods, -1))(
            tampered_factor(small()[1], 2)), False, False),
    "assembly checked against a tampered factor": (
        lambda: (lambda a, mods, xi: (a, tampered_factor(mods, 1), xi))(*small()), False, True),
    **{
        f"{label}: {what}": (
            lambda case=case, change=change: with_assembly(case, change), False, False)
        for label, case in (("multi_branch_spec(2)", small), ("seeded cubic", cubic))
        for what, change in (
            ("one entry dropped", lambda a, xi: one_cell(a, nonzero_cell(a), lambda p: Poly.zero())),
            ("one extra nonzero",
             lambda a, xi: one_cell(a, empty_raising_cell(a), lambda p: Poly.variable("x"))),
            ("one phase flipped",
             lambda a, xi: one_cell(a, nonzero_cell(a, -1), lambda p: p * Poly.const(xi))),
            ("one grade changed",
             lambda a, xi: replaced(a, grading=(a.grading[0] + 1, *a.grading[1:]))),
            ("target changed",
             lambda a, xi: replaced(a, target_poly=a.target_poly + parse_poly("x^2"))),
        )
    },
}



def lemma_applies(module, modules):
    """Whether the lemma should decide a seeded case: every factor passes and (iii') holds.

    (iii'): each factor's pairs are among the module's, and no factor's
    target mentions the target variable of a pair it lacks.
    """
    pairs = [t[:2] for t in module.named_actions]
    for m in modules:
        own = [t[:2] for t in m.named_actions]
        if any(p not in pairs for p in own):
            return False
        if any(v in m.target_poly.pruned().vars for n, v in pairs if (n, v) not in own):
            return False
    return all(verify_roby(m).ok for m in modules)


@pytest.mark.parametrize("name", list(CASES))
def test_the_lemma_path_reports_what_the_full_check_reports(name):
    build, decides, holds = CASES[name]
    module, modules, xi = build()
    full = verify_roby(unrecorded(module))
    lemma = verify_roby(recorded(module, modules, xi))
    assert comparable_dict(lemma.to_dict()) == comparable_dict(full.to_dict())
    assert comparable_dict(verify_roby(module).to_dict()) == comparable_dict(full.to_dict())
    decided = _tensor_lemma(module, modules, xi)
    assert decided == (lemma_applies(module, modules) if decides is None else decides)
    if holds is not None:
        assert full.ok == holds
    assert full.ok or not decided  # the lemma decides only identities that hold
    rng = random.Random(sum(map(ord, name)))
    assert roby_point_verdict(module, rng) == full.get("power_identity").ok


def test_the_tampered_assemblies_start_from_decided_ones():
    assert _tensor_lemma(*small()) and _tensor_lemma(*cubic())


def test_the_seeded_cases_take_both_paths():
    decided = [_tensor_lemma(*CASES[name][0]()) for name in CASES if name.startswith("seeded over")]
    assert 0 < sum(decided) < len(decided)


def test_the_lemma_path_makes_no_product_larger_than_a_factor(monkeypatch):
    assembly, modules, xi = pipeline_case(lambda: multi_branch_spec(6))
    largest = max(m.dim for m in modules)
    seen = products(monkeypatch, lambda: verify_roby(assembly))
    assert seen and all(max(*a, *b) <= largest for a, b in seen)
    # the full check of the same assembly multiplies its grade blocks
    full = products(monkeypatch, lambda: verify_roby(unrecorded(assembly)))
    assert max(max(*a, *b) for a, b in full) == assembly.dim // assembly.degree


def test_repeated_target_variables_are_refused(tmp_path, capsys):
    # a check binds a target variable to one action's coefficient, so with
    # actions a and b both aimed at v the verdict hung on their order
    swap, zero = PolyMatrix.cyclic_shift([1, 1]), PolyMatrix.zeros(2, 2)
    for actions in ([zero, swap], [swap, zero]):
        with pytest.raises(InputError, match="repeated target variables"):
            GradedRobyModule(2, (0, 1), ("a", "b"), actions, parse_poly("v^2"),
                             target_vars=("v", "v"))
    # two factors that aim different actions at v meet in the tensor
    f1 = GradedRobyModule(2, (0, 1), ("a",), [swap], parse_poly("v^2"), target_vars=("v",))
    f2 = GradedRobyModule(2, (0, 1), ("b",), [swap], parse_poly("v^2"), target_vars=("v",))
    with pytest.raises(InputError, match="repeated target variables"):
        twisted_tensor_all([f1, f2], -1)
    # read from a file, the module is refused with exit 2
    good = GradedRobyModule(2, (0, 1), ("a", "b"), [zero, swap], parse_poly("w^2"),
                            target_vars=("v", "w"))
    text = render_roby_module(good)
    assert "target_vars = v, w\n" in text
    path = tmp_path / "repeated.roby"
    path.write_text(text.replace("target_vars = v, w\n", "target_vars = v, v\n"))
    assert main(["roby", "verify", str(path)]) == 2
    assert "repeated target variables" in capsys.readouterr().err


def test_a_binary_fold_is_checked_from_its_factors_and_read_back_in_full(monkeypatch):
    module, _, _ = binary_fold(5, 3)
    seen = products(monkeypatch, lambda: verify_roby(module))
    assert seen and all(max(*a, *b) <= 5 for a, b in seen)
    report = verify_roby(module)
    assert report.ok
    # a module read from its file has no record: the full check multiplies
    # 25 x 25 grade blocks and reports the same
    read = parse_roby_module(render_roby_module(module))
    assert read.tensor_of is None
    full = products(monkeypatch, lambda: verify_roby(read))
    assert max(max(*a, *b) for a, b in full) == 25
    assert comparable_dict(verify_roby(read).to_dict()) == comparable_dict(report.to_dict())


# -- the certificate on its own ---------------------------------------------------


def kron_reference(factors, phases):
    """sum_j (D_0 ⊗ ... ⊗ D_(j-1)) ⊗ M_j ⊗ I from Kronecker products."""
    e, n = len(phases), 1
    for _, m in factors:
        n *= m.nrows
    total = PolyMatrix.zeros(n, n)
    for j, (_, m) in enumerate(factors):
        left = PolyMatrix.identity(1)
        for grading, _ in factors[:j]:
            left = left.kron(PolyMatrix.diagonal([phases[g % e] for g in grading]))
        right = 1
        for _, later in factors[j + 1:]:
            right *= later.nrows
        total = total + left.kron(m).kron(PolyMatrix.identity(right))
    return total


def test_the_certificate_accepts_the_sum_and_refuses_each_change():
    xi = make_root(3)
    phases = [xi ** g for g in range(3)]
    shift = PolyMatrix.from_rows([[0, 0, "y"], ["x", 0, 0], [0, 2, 0]])
    factors = [((0, 1, 2), shift), ((1, 2, 0), PolyMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, "x^2", 0]]))]
    m = kron_reference(factors, phases)
    assert m.is_twisted_sum(factors, phases)
    assert not m.is_twisted_sum(factors, [1, 1, 1])
    assert not m.is_twisted_sum(factors[::-1], phases)
    r, c = next((r, c) for r in range(9) for c in range(9) if not m.entry(r, c))
    assert not (m + unit(9, r, c, "x")).is_twisted_sum(factors, phases)  # an extra nonzero
    r, c, _ = next(m.nonzeros())
    assert not (m - unit(9, r, c, m.entry(r, c))).is_twisted_sum(factors, phases)
    assert not m.is_twisted_sum(factors, [0, 1, 1])  # a zero phase
    assert not m.is_twisted_sum(factors[:1], phases)  # the sizes do not tile
    # a factor variable the matrix cannot hold: re-encoded into the matrix's
    # keys, w would be dropped and the entry w read as 1
    other = PolyMatrix.from_rows([[0, 0, "w"], [1, 0, 0], [0, "x^2", 0]])
    assert not m.is_twisted_sum([factors[0], ((1, 2, 0), other)], phases)


def test_the_certificate_refuses_a_diagonal_nonzero():
    # two families that meet on the diagonal add there, so matching each
    # family's run and the count no longer pins the matrix: f holds x where
    # the sum holds 2x, and its extra y makes the count come out right
    factors = [((0, 0), PolyMatrix.from_rows([["x", 0], [0, 0]])), ((0,), PolyMatrix.from_rows([["x"]]))]
    total = kron_reference(factors, [1, -1])
    assert total == PolyMatrix.from_rows([["2*x", 0], [0, "x"]])
    f = PolyMatrix.from_rows([["x", "y"], [0, "x"]])
    assert f.nnz() == 3 == 1 * 1 + 1 * 2
    assert not f.is_twisted_sum(factors, [1, -1])
    assert not total.is_twisted_sum(factors, [1, -1])


def test_nnz_counts_the_nonzero_entries():
    assert PolyMatrix.zeros(3, 4).nnz() == 0
    assert PolyMatrix.identity(5).nnz() == 5
    assert PolyMatrix.from_rows([["x", 1], ["y", "x - x"]]).nnz() == 3
