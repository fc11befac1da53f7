"""The characteristic morphism by relabelling against the product path.

``char_morphism`` reads C(gamma) = -a_gamma * T^(d-1) off a monomial T-slot
with constant entries by relabelling the columns of each action (the lemma
in its docstring), and forms the products for any other T.  Here the
relabelled matrices are compared with the forced product path key for key
-- ``vars``, width, top, the nonzero slots, each entry's keys in order and
each coefficient's type (a cyclotomic one's order too) -- on both demo
pipelines, the multi-branch quadric assemblies for n = 3..6, every golden
module that ``charmor`` accepts, the cyclic-cover seeds of the
``cyclotomic_twist`` benchmark, and planted T-slots whose constants are not
their own inverses.  Planted T-slots that are not monomial with constant
entries must take the product path, and a monomial T with T^d != I must be
refused with the product path's report.
"""

from functools import cache
from pathlib import Path

import pytest

from robyclif.errors import InputError, VerificationError
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import run_pipeline
from robyclif.roby import char_morphism
from robyclif.scalars import CycScalar
from robyclif.seeds import companion_matrix, cyclic_cover_seed
from robyclif.specfile import parse_pipeline, parse_roby_module, render_roby_module

from test_pipeline import multi_branch_spec

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEMO = HERE.parent / "demo"
SPLIT3 = (GOLDEN / "split3.roby").read_text(encoding="utf-8")
# name -> the rows of a T-slot planted into split3 (d = 3, dim 3); each is a
# monomial matrix with constant entries and T^3 = I, with constants that are
# not their own inverses, and the first two move along a 3-cycle, which
# tells pi from its inverse
PLANTED = {
    "rational_cycle": ["0, 0, 2", "3, 0, 0", "0, 1/6, 0"],
    "cyclotomic_cycle": ["0, zeta3, 0", "0, 0, zeta3", "zeta3, 0, 0"],
    "cyclotomic_fixed_points": ["zeta3, 0, 0", "0, zeta3^2, 0", "0, 0, 1"],
}
# dense actions, so every column of every action moves
ACTIONS = [["u, %d, 1/3" % (k + 2), "-1, v^2, %d" % k, "5, 0, u - 7"] for k in range(3)]


def with_tslot(rows) -> str:
    """split3's module text with the given T-slot rows and dense actions."""
    head = SPLIT3[: SPLIT3.index("[action e1]")]
    tail = SPLIT3[SPLIT3.index("[algebra]") :]
    sections = [(f"action e{k + 1}", a) for k, a in enumerate(ACTIONS)] + [("tslot", rows)]
    body = "".join(f"[{name}]\n" + "".join(f"row = {r}\n" for r in m) + "\n" for name, m in sections)
    return head + body + tail


def planted(name):
    return parse_roby_module(with_tslot(PLANTED[name]))


@cache
def pipeline_modules():
    """name -> module for the demo pipelines and the quadric ladder."""
    out = {}
    for path in sorted(DEMO.glob("*.pipeline")):
        spec = parse_pipeline(path.read_text(encoding="utf-8"), base_dir=DEMO)
        result = run_pipeline(spec)
        out[f"{path.stem} assembly"], out[f"{path.stem} seed"] = result.assembly, result.seed
    for n in range(3, 7):
        result = run_pipeline(multi_branch_spec(n))
        out[f"multi_branch({n}) assembly"] = result.assembly
    return out


def golden_texts():
    return [p for p in sorted(GOLDEN.iterdir()) if p.suffix in (".roby", ".assembly")]


def cyclic_seed(e):
    return cyclic_cover_seed(companion_matrix(f"z^{e} - x^{e} - y^{e}", "z"), e)


def by_products(module):
    """char_morphism's result on the product path, forced."""
    real = PolyMatrix.monomial_scalars
    PolyMatrix.monomial_scalars = lambda self: None
    try:
        return char_morphism(module)
    finally:
        PolyMatrix.monomial_scalars = real


def calls(monkeypatch, name, run):
    """(run's result, the number of PolyMatrix.<name> calls it made)."""
    count = [0]
    real = getattr(PolyMatrix, name)

    def spy(self, *args):
        count[0] += 1
        return real(self, *args)

    monkeypatch.setattr(PolyMatrix, name, spy)
    try:
        return run(), count[0]
    finally:
        monkeypatch.setattr(PolyMatrix, name, real)


def typed(c):
    return (type(c), c.order, c.coeffs) if isinstance(c, CycScalar) else (type(c), c)


def assert_same(a: PolyMatrix, b: PolyMatrix):
    assert (a.shape, a.vars, a.width, a.top) == (b.shape, b.vars, b.width, b.top)
    left, right = list(a.nonzeros()), list(b.nonzeros())
    assert [(i, j) for i, j, _ in left] == [(i, j) for i, j, _ in right]
    for (_, _, s), (_, _, t) in zip(left, right):
        assert [(k, typed(c)) for k, c in s.items()] == [(k, typed(c)) for k, c in t.items()]


def assert_relabelled_like_products(monkeypatch, module):
    cm, relabelled = calls(monkeypatch, "relabelled", lambda: char_morphism(module))
    assert relabelled == len(module.actions)  # the relabelling path was taken
    reference = by_products(module)
    assert len(cm.matrices) == len(reference.matrices)
    for a, b in zip(cm.matrices, reference.matrices):
        assert_same(a, b)


def assert_refused_alike(module, kind=VerificationError):
    """Both paths raise the same error; a VerificationError names the T-slot."""
    with pytest.raises(kind) as fast:
        char_morphism(module)
    with pytest.raises(kind) as slow:
        by_products(module)
    assert str(fast.value) == str(slow.value)
    if kind is VerificationError:
        assert fast.value.report.to_dict() == slow.value.report.to_dict()
        row = fast.value.report.get("tslot_invertible")
        assert (row.ok, row.detail) == (False, "action(T)^d is not the identity")


@pytest.mark.parametrize(
    "name",
    ["perturbed_split assembly", "perturbed_split seed", "quadric assembly", "quadric seed",
     *(f"multi_branch({n}) assembly" for n in range(3, 7))],
)
def test_pipeline_morphisms_equal_the_products(monkeypatch, name):
    assert_relabelled_like_products(monkeypatch, pipeline_modules()[name])


@pytest.mark.parametrize("path", golden_texts(), ids=lambda p: p.name)
def test_golden_morphisms_equal_the_products(monkeypatch, path):
    module = parse_roby_module(path.read_text(encoding="utf-8"))
    try:
        by_products(module)
    except (InputError, VerificationError) as exc:  # refused by charmor
        assert_refused_alike(module, type(exc))
    else:
        assert_relabelled_like_products(monkeypatch, module)


@pytest.mark.parametrize("e", [3, 4])
def test_cyclic_cover_seeds_equal_the_products(monkeypatch, e):
    text = render_roby_module(cyclic_seed(e))  # as ``roby build`` writes it for ``charmor``
    assert_relabelled_like_products(monkeypatch, parse_roby_module(text))


@pytest.mark.parametrize("name", list(PLANTED))
def test_planted_monomial_slots_equal_the_products(monkeypatch, name):
    module = planted(name)
    assert module.tslot.pow(3) == PolyMatrix.identity(3)
    assert_relabelled_like_products(monkeypatch, module)


def test_two_nonzeros_in_a_row_take_the_product_path(monkeypatch):
    # T = S P S^-1 for the 3-cycle P and S = I + E_01: T^3 = I, not monomial
    module = parse_roby_module(with_tslot(["1, -1, 1", "1, -1, 0", "0, 1, 0"]))
    t = module.tslot
    assert t.pow(3) == PolyMatrix.identity(3) and t.monomial_scalars() is None
    cm, relabelled = calls(monkeypatch, "relabelled", lambda: char_morphism(module))
    assert relabelled == 0
    for c, a in zip(cm.matrices, module.actions):
        assert c * t == -a  # C(gamma) = -a_gamma * T^-1


def test_a_non_constant_entry_takes_the_product_path(monkeypatch):
    # the 3-cycle with u in place of a 1: monomial, T^3 = u * I
    module = parse_roby_module(with_tslot(["0, 0, u", "1, 0, 0", "0, 1, 0"]))
    assert module.tslot.monomial_scalars() is None
    _, powers = calls(monkeypatch, "pow", lambda: pytest.raises(VerificationError, char_morphism, module))
    assert powers == 1
    assert_refused_alike(module)


def test_a_cycle_product_other_than_one_is_refused_as_by_products(monkeypatch):
    module = parse_roby_module(with_tslot(["0, 0, 2", "3, 0, 0", "0, 1/2, 0"]))
    assert module.tslot.monomial_scalars() is not None  # decided by the lemma
    _, powers = calls(monkeypatch, "pow", lambda: pytest.raises(VerificationError, char_morphism, module))
    assert powers == 0
    assert_refused_alike(module)


def test_the_assembly_morphism_multiplies_nothing_larger_than_the_seed(monkeypatch):
    result = run_pipeline(multi_branch_spec(5))
    seen = []
    real = PolyMatrix.__mul__

    def spy(self, other):
        if isinstance(other, PolyMatrix):
            seen.append(max(self.shape + other.shape))
        return real(self, other)

    monkeypatch.setattr(PolyMatrix, "__mul__", spy)
    (_, powers) = calls(monkeypatch, "pow", lambda: char_morphism(result.assembly))
    assert powers == 0
    assert all(size <= result.seed.dim for size in seen), seen
