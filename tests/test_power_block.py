"""The power identity on one grade cycle against the full d-th power.

``verify_roby`` decides G^d = c*I on the cycle product P_0 = G_{d-1} ... G_0
of the grade blocks when c != 0, G is graded and the grade classes have one
size (the lemma in ``roby.py``), and forms G^d in full otherwise.  Here every
fixture is decided three ways -- the full power, ``verify_roby`` and the
random-point evaluator of ``test_point_oracle`` -- and the verdicts must
agree.  The guard fixtures have P_0 = c*I while G^d != c*I, so dropping any
one guard of ``_cycle_is_scalar`` makes ``verify_roby`` pass a false
identity here.
"""

import random
from functools import cache

import pytest

from robyclif.errors import VerificationError
from robyclif.matrix import PolyMatrix
from robyclif.poly import Poly, parse_poly
from robyclif.roby import (
    GradedRobyModule,
    _cycle_is_scalar,
    char_morphism,
    fresh_names,
    verify_roby,
)
from robyclif.specfile import parse_roby_module

from make_golden import GOLDEN, tampered_in_block
from test_point_oracle import diagonal_form, roby_point_verdict


def golden_module(stem):
    return parse_roby_module((GOLDEN / f"{stem}.roby").read_text(encoding="utf-8"))


def form_module(degree, grading, actions, target):
    names = [f"x{k + 1}" for k in range(len(actions))]
    return GradedRobyModule(
        degree, grading, names, [PolyMatrix.from_rows(a) for a in actions], parse_poly(target)
    )


def unequal_classes():
    # V_0 = {0}, V_1 = {1, 2}: P_0 = G[V_0,V_1] G[V_1,V_0] = s^2 = c, while
    # G^2 has the entry 0 at (2, 2)
    return form_module(2, (0, 1, 1), [[[0, 1, 0], [1, 0, 0], [0, 0, 0]]], "x1^2")


def zero_target():
    # d = 2 on 2 x 2 blocks, G_0 = E11 and G_1 = E12: P_0 = E12 E11 = 0 = c,
    # while P_1 = E11 E12 = E12 != 0
    a = [[0] * 4 for _ in range(4)]
    a[2][0] = 1  # G_0: the first vector of V_0 to the first of V_1
    a[0][3] = 1  # G_1: the second vector of V_1 to the first of V_0
    return form_module(2, (0, 0, 1, 1), [a], "0")


def ungraded():
    # x2 acts by E11, from grade 0 to grade 0; the blocks of the generic
    # element hold only x1's entries, so P_0 = s1^2 = c
    return form_module(2, (0, 1), [[[0, 1], [1, 0]], [[1, 0], [0, 0]]], "x1^2")


PASSING = ("split3", "mf_x_y", "cyclic_z3_x_y", "cyclic_z4_xy", "misgraded_split3")
FAILING = ("untwisted_xi1", "nonmonic_tslot_split3", "tampered_cyclic_z3_x_y")

# name -> (module factory, whether G^d = c*I holds)
FIXTURES = {
    **{stem: (lambda stem=stem: golden_module(stem), stem in PASSING)
       for stem in PASSING + FAILING},
    "xi = 1 control, y1^2 + y2^2": (lambda: diagonal_form(2, 1, require_primitive=False), False),
    **{f"tampered in grade block {g}": (
        lambda g=g: tampered_in_block(golden_module("cyclic_z3_x_y"), g), False
    ) for g in range(3)},
    "unequal grade classes": (unequal_classes, False),
    "zero target": (zero_target, False),
    "ungraded action": (ungraded, False),
}

# the fixtures on which P_0 = c*I although G^d != c*I
GUARDED = ("unequal grade classes", "zero target", "ungraded action")


@cache
def generic_and_value(name):
    """(module, generic element, target value) with fresh coefficient names."""
    module = FIXTURES[name][0]()
    names = fresh_names("s", len(module.named_actions), module.all_vars())
    bindings = {v: Poly.variable(c) for (_, v, _), c in zip(module.named_actions, names)}
    return module, module.generic_matrix(names), module.target_poly.substitute(bindings)


def cycle_product(m, grading, d):
    """P_0 from the grade blocks of m, without the guards."""
    classes = [[i for i, g in enumerate(grading) if g == k] for k in range(d)]
    acc = m.submatrix(classes[1], classes[0])
    for g in range(1, d):
        acc = m.submatrix(classes[(g + 1) % d], classes[g]) * acc
    return acc


@pytest.mark.parametrize("name", list(FIXTURES))
def test_block_path_full_power_and_point_oracle_agree(name):
    module, generic, value = generic_and_value(name)
    full = generic.pow(module.degree).plus_scalar(-value).is_zero()
    assert full == FIXTURES[name][1]
    assert verify_roby(module).get("power_identity").ok == full
    assert roby_point_verdict(module, random.Random(sum(map(ord, name)))) == full
    # the block path only ever proves an identity that holds
    assert not _cycle_is_scalar(generic, module.grading, module.degree, value) or full


@pytest.mark.parametrize("name", GUARDED)
def test_each_guard_fixture_has_a_scalar_cycle_and_a_false_identity(name):
    module, generic, value = generic_and_value(name)
    p0 = cycle_product(generic, module.grading, module.degree)
    assert p0.plus_scalar(-value).is_zero()
    assert not generic.pow(module.degree).plus_scalar(-value).is_zero()
    assert not _cycle_is_scalar(generic, module.grading, module.degree, value)


@pytest.mark.parametrize("name", PASSING + FAILING[1:])
def test_char_morphism_accepts_t_exactly_when_its_full_power_is_one(name):
    module = golden_module(name)
    t, d = module.tslot, module.degree
    monic = t.pow(d) == PolyMatrix.identity(module.dim)
    assert _cycle_is_scalar(t, module.grading, d, 1) <= monic
    try:
        char_morphism(module)
    except VerificationError as exc:
        assert not monic
        assert exc.report.get("tslot_invertible").detail == "action(T)^d is not the identity"
    else:
        assert monic


def products(monkeypatch, run):
    """The operand shapes of every PolyMatrix product made while run() runs."""
    seen = []
    inner = PolyMatrix.__mul__

    def spy(self, other):
        if isinstance(other, PolyMatrix):
            seen.append((self.shape, other.shape))
        return inner(self, other)

    monkeypatch.setattr(PolyMatrix, "__mul__", spy)
    run()
    monkeypatch.undo()
    return seen


def test_a_passing_graded_module_makes_no_full_size_product(monkeypatch):
    module = golden_module("cyclic_z4_xy")
    n, d = module.dim, module.degree
    seen = products(monkeypatch, lambda: verify_roby(module))
    block = (n // d, n // d)
    assert seen == [(block, block)] * (d - 1)


def test_the_xi_1_control_still_makes_the_full_power(monkeypatch):
    module = golden_module("untwisted_xi1")
    n, d = module.dim, module.degree
    seen = products(monkeypatch, lambda: verify_roby(module))
    full = [pair for pair in seen if pair == ((n, n), (n, n))]
    # the cycle's d - 1 block products, then pow's (bit_length - 1) + (popcount - 1)
    assert len(seen) - len(full) == d - 1
    assert len(full) == (d.bit_length() - 1) + (bin(d).count("1") - 1)
