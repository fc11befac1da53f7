"""The benchmark's layer tracer still installs on this code and still counts.

``perfbench/layers.py`` looks up every name in its ``TARGETS`` when it
installs, and its counters read matrix and module internals, so a change
that renames or reshapes one of them breaks ``perfbench/run.py --trace 1``
before its first pass while the untraced run still passes.  This test loads
``layers.py`` from its source without writing anything under ``perfbench/``,
installs the tracer, runs a small pipeline, a spec-file read and a matrix
product under it, and removes it again.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from robyclif.matrix import PolyMatrix
from test_pipeline import multi_branch_spec

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

pytestmark = pytest.mark.skipif(not LAYERS.is_file(), reason="no perfbench/ in this checkout")

MODULE_TEXT = """[roby]
degree = 2
grading = 0, 1
target = -x*y + t^2
target_vars = z

[action z]
row = 0, x
row = y, 0
"""


def load_layers():
    """perfbench/layers.py as a module, compiled from its text (no bytecode file)."""
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), module.__dict__)
    return module


def bound(module_name: str, attr: str):
    """What a caller finds today under a ``TARGETS`` name."""
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_the_tracer_binds_every_target_and_counts():
    layers = load_layers()
    for module_name, *_ in layers.TARGETS:
        importlib.import_module(module_name)
    pipeline = sys.modules["robyclif.pipeline"]
    specfile = sys.modules["robyclif.specfile"]
    tracer = layers.Tracer()
    installed = layers.Installed(tracer)
    try:
        unbound = [
            (module_name, attr)
            for module_name, attr, *_ in layers.TARGETS
            if not hasattr(bound(module_name, attr), "__wrapped__")
        ]
        pipeline.run_pipeline(multi_branch_spec(1))
        specfile.parse_roby_module(MODULE_TEXT)
        PolyMatrix.from_rows([["x", 1], [0, "x"]]) * PolyMatrix.from_rows([["y", 0], [1, "y"]])
    finally:
        installed.remove()
    assert not unbound
    assert not [t for t in layers.TARGETS if hasattr(bound(*t[:2]), "__wrapped__")]
    for count in ("matrix.matmul_slots", "matrix.realigned_entries", "pipeline.assembly_nnz"):
        assert tracer.counts[count] > 0, count
    assert tracer.stats["specfile.parse"][0] == 1
