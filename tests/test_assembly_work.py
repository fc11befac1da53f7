"""A ledger of the work a pipeline run does at the assembly's size.

The assembly of ``multi_branch_spec(5)`` has dimension 128, the seed 4.
Counting wrappers sit on the ``PolyMatrix`` operations that can cost the
square of the size they touch -- products, ``pow``, ``kron``,
``substitute``, ``==`` and the ``identity`` and ``zeros`` builders -- and
every call whose operand or result has a side of the assembly's size is
counted by the ``robyclif`` function that made it (its stage) and the
operation.  A call made inside another counted call (the products of a
``pow``, say) belongs to the outer one.  The counts must equal
``ASSEMBLY_WORK``, whose every entry says why the work is there: it is the
assembly itself, at a cost in proportion to its nonzeros, or an open
ROADMAP item removes it.  A new assembly-sized call fails the test, and so
does an entry that no longer occurs, which is then deleted from the table
in the change that removed the work.
"""

import os
import sys
from collections import Counter

from robyclif import kernel, matrix, pipeline
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import run_pipeline

from test_pipeline import multi_branch_spec

PACKAGE = os.path.dirname(pipeline.__file__)
# the layout and its loops: a call from these files is the matrix's own work
INNER = {matrix.__file__, kernel.__file__}

# (stage, operation) -> (calls, why the work is there)
ASSEMBLY_WORK = {
    ("substitute_base", "substitute"): (
        2,
        "O(nnz): the assembly itself -- each C-matrix restricted to the line",
    ),
    ("action_laws", "__mul__"): (
        1,
        "ROADMAP item 12: the law row's C(z) * C(z)",
    ),
    ("action_laws", "__eq__"): (
        1,
        "ROADMAP item 12: the law row compares C(z) * C(z) with its image",
    ),
}

COUNTED = ("__mul__", "pow", "kron", "substitute", "__eq__")
BUILDERS = ("identity", "zeros")


def stage() -> str:
    """The innermost robyclif function outside the matrix layout on the stack."""
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        if (os.path.dirname(code.co_filename) == PACKAGE and code.co_filename not in INNER
                and not code.co_name.startswith("<")):
            return code.co_name
        frame = frame.f_back
    return "?"


def assembly_work(monkeypatch, spec, size) -> Counter:
    """(stage, operation) -> calls touching a side of ``size`` during run_pipeline."""
    seen, depth = Counter(), [0]

    def counted(name, real):
        def spy(*args):
            depth[0] += 1
            try:
                out = real(*args)
            finally:
                depth[0] -= 1
            touched = [a for a in (*args, out) if isinstance(a, PolyMatrix)]
            if not depth[0] and any(size in m.shape for m in touched):
                seen[stage(), name] += 1
            return out

        return spy

    for name in COUNTED:
        monkeypatch.setattr(PolyMatrix, name, counted(name, getattr(PolyMatrix, name)))
    for name in BUILDERS:
        real = getattr(PolyMatrix, name)  # bound to the class
        monkeypatch.setattr(PolyMatrix, name, classmethod(lambda cls, *a, f=counted(name, real): f(*a)))
    try:
        run_pipeline(spec)
    finally:
        monkeypatch.undo()
    return seen


def against_ledger(seen: Counter) -> tuple:
    """(calls missing from ASSEMBLY_WORK or at another count, entries no longer made)."""
    new = {key: n for key, n in seen.items() if ASSEMBLY_WORK.get(key, (None,))[0] != n}
    return new, [key for key in ASSEMBLY_WORK if key not in seen]


def test_assembly_sized_work_is_the_ledger(monkeypatch):
    spec = multi_branch_spec(5)
    size = spec.seed.dim * spec.algebra.rank ** 5
    assert size == 128
    new, gone = against_ledger(assembly_work(monkeypatch, spec, size))
    assert not new, f"assembly-sized calls not in ASSEMBLY_WORK (or at another count): {new}"
    assert not gone, f"no longer made; delete them from ASSEMBLY_WORK: {gone}"


def test_the_ledger_sees_an_added_product(monkeypatch):
    real = pipeline.char_morphism

    def with_a_square(module):
        cm = real(module)
        cm.matrices[0] * cm.matrices[0]
        return cm

    monkeypatch.setattr(pipeline, "char_morphism", with_a_square)
    seen = assembly_work(monkeypatch, multi_branch_spec(5), 128)
    # a function outside the package is no stage: the product is the caller's
    assert against_ledger(seen) == ({("run_pipeline", "__mul__"): 1}, [])
