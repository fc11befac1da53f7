"""Matrix sections read from their nonzero cells, against the grid reader they replaced.

``old_matrix_rows`` below is that reader: it reads every cell into a grid of
Polys and builds the matrix with ``PolyMatrix.from_rows``.  On every spec
file of the demos and the golden corpus, and on the cyclic seeds ``roby
build`` writes, ``specfile._matrix_rows`` must give an equal matrix over the
same variables at the same width, or fail with the same message.
"""

from pathlib import Path

import pytest

from robyclif.cli import main
from robyclif.errors import InputError
from robyclif.matrix import PolyMatrix
from robyclif.specfile import _matrix_rows, _parse_sections, _poly_reader, _split_list

ROOT = Path(__file__).resolve().parent.parent
MATRIX_SECTIONS = ("action", "tslot", "relations")


def old_matrix_rows(section, read):
    rows = []
    for key, value in section.pairs:
        if key != "row":
            raise InputError(
                f"[{section.name}] takes only 'row = ...' lines, got {key!r}"
            )
        rows.append([read(c) for c in _split_list(value)])
    if not rows:
        raise InputError(f"[{section.name}] has no rows")
    return PolyMatrix.from_rows(rows)


def outcome(read_matrix, section):
    try:
        m = read_matrix(section, _poly_reader())
    except InputError as exc:
        return "error", str(exc)
    return m.shape, m.vars, m.width, m


def spec_files():
    paths = []
    for folder in (ROOT / "demo", ROOT / "tests" / "golden"):
        for suffix in ("roby", "algebra", "in", "pipeline"):
            paths += sorted(folder.glob(f"*.{suffix}"))
    return paths


@pytest.fixture(scope="module")
def cyclic_seeds(tmp_path_factory):
    out = tmp_path_factory.mktemp("seeds")
    paths = []
    for e in (3, 4):
        path = out / f"cyclic{e}.roby"
        code = main(["roby", "build", "--kind", "cyclic", "--poly", f"z^{e} - x^{e} - y^{e}",
                     "--cover", str(e), "--out", str(path)])
        assert code == 0
        paths.append(path)
    return paths


def test_every_matrix_section_reads_as_its_grid(cyclic_seeds):
    read = compared = 0
    for path in [*spec_files(), *cyclic_seeds]:
        try:
            sections = _parse_sections(path.read_text(encoding="utf-8"))
        except InputError:
            continue
        read += 1
        for section in sections:
            if section.name in MATRIX_SECTIONS:
                want = outcome(old_matrix_rows, section)
                got = outcome(_matrix_rows, section)
                assert got == want, (path.name, section.line)
                compared += want[0] != "error"
    assert read >= 20 and compared >= 60


def test_a_cancelled_cell_keeps_its_variables():
    (section,) = _parse_sections("[action a]\nrow = 0, x - x\nrow = 1, 0\n")
    m = _matrix_rows(section, _poly_reader())
    assert m.vars == ("x",)
    assert m == PolyMatrix.from_rows([[0, 0], [1, 0]])
    assert outcome(_matrix_rows, section) == outcome(old_matrix_rows, section)


def test_a_bad_cell_is_named_before_a_ragged_row(tmp_path, capsys):
    path = tmp_path / "ragged.roby"
    path.write_text(
        "[roby]\ndegree = 2\ngrading = 0, 1\ntarget = t^2\n\n"
        "[action a]\nrow = 0, 1, 0\nrow = 1, x $ y\n",
        encoding="utf-8",
    )
    assert main(["roby", "verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot tokenize polynomial at: ' $ y'" in err
    assert "ragged" not in err
