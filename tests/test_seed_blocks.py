"""The seed-block certificate of the filtered check against the per-level path.

``run_pipeline`` hands ``verify_filtered_pseudo`` the seed's restricted
C-matrices, and each restricted C-matrix is read once by
``PolyMatrix.is_filtered_kron``: no entry leaves a flag, and every level
block is the seed matrix ⊗ I.  When that holds the quotients' laws are
decided on the seed and no block is cut out; otherwise the per-level code
runs, and then ``_quotients_match``.  Here the per-level path is forced by
calling without the seed, and both paths must give the same report, the
raised row included, on every golden pipeline and on planted faults.
"""

from fractions import Fraction

import pytest

from robyclif import pipeline
from robyclif.errors import VerificationError
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import run_pipeline
from robyclif.report import comparable_dict
from robyclif.roby import CharMorphism, Filtration, char_morphism, verify_filtered_pseudo

from make_golden import unit
from test_pipeline import GOLDEN_SPECS, multi_branch_spec, quadric_spec


def outcome(spec):
    """(raised message or "passed", the report without its timing) of one run."""
    try:
        report = run_pipeline(spec).report
        message = "passed"
    except VerificationError as err:
        report, message = err.report, str(err)
    return message, comparable_dict(report.to_dict())


def forced_full(monkeypatch):
    """Make run_pipeline call verify_filtered_pseudo without the seed."""
    monkeypatch.setattr(
        pipeline, "verify_filtered_pseudo", lambda cm, f, **_: verify_filtered_pseudo(cm, f)
    )


def spied(monkeypatch):
    """Record each certificate verdict and each _quotients_match call of a run."""
    seen = {"seed_blocks": [], "quotients_match": 0}
    real_verify, real_match = pipeline.verify_filtered_pseudo, pipeline._quotients_match

    def verify(cm, f, **kw):
        report = real_verify(cm, f, **kw)
        seen["seed_blocks"].append(report.meta.get("seed_blocks"))
        return report

    def match(*args):
        seen["quotients_match"] += 1
        return real_match(*args)

    monkeypatch.setattr(pipeline, "verify_filtered_pseudo", verify)
    monkeypatch.setattr(pipeline, "_quotients_match", match)
    return seen


def both_paths(monkeypatch, build):
    """The outcome of a run with the certificate, what it saw, and the forced full path's."""
    seen = spied(monkeypatch)
    fast = outcome(build())
    monkeypatch.undo()
    forced_full(monkeypatch)
    full = outcome(build())
    monkeypatch.undo()
    return fast, seen, full


@pytest.mark.parametrize("name", list(GOLDEN_SPECS))
def test_every_golden_pipeline_is_certified_and_reports_what_the_full_path_reports(
    name, monkeypatch
):
    fast, seen, full = both_paths(monkeypatch, GOLDEN_SPECS[name])
    assert fast == full
    assert fast[0] == "passed"
    assert seen == {"seed_blocks": [True], "quotients_match": 0}


# -- planted faults ------------------------------------------------------------


def restricted_run(n=2):
    """(restricted morphism, labels, restricted seed matrices) of multi_branch_spec(n)."""
    spec = multi_branch_spec(n)
    result = run_pipeline(spec)
    seed_line = [m.substitute(spec.line) for m in char_morphism(result.seed).matrices]
    return result.restricted, result.filtration.labels, seed_line


def block_cell(m, labels, per):
    """(r, c) of the first nonzero of m inside a level block, and a level-mate of rho_c.

    The mate is another rho with rho_c's label, so (r, s_c * per + mate)
    is a same-level slot off the seed block's diagonal copy.
    """
    for r, c, _ in m.nonzeros():
        rho = c % per
        mates = [p for p in range(per) if p != rho and labels[p] == labels[rho]]
        if labels[r] == labels[c] and mates:
            return r, c, mates[0]
    raise AssertionError("no level block with two rho")


def leaking_cell(m, labels):
    """(r, c) of an empty slot that leaves a flag."""
    n = m.nrows
    return next(
        (r, c) for r in range(n) for c in range(n) if labels[r] > labels[c] and not m.entry(r, c)
    )


def changed_entry(m, labels, per):
    r, c, _ = block_cell(m, labels, per)
    return m + unit(m.nrows, r, c, "x")


def moved_off_diagonal(m, labels, per):
    # the count of same-level nonzeros and every value stay the seed's;
    # only rho_r != rho_c gives the move away
    r, c, mate = block_cell(m, labels, per)
    value = m.entry(r, c)
    return m - unit(m.nrows, r, c, value) + unit(m.nrows, r, c - c % per + mate, value)


def missing_nonzero(m, labels, per):
    r, c, _ = block_cell(m, labels, per)
    return m - unit(m.nrows, r, c, m.entry(r, c))


def leaking_entry(m, labels, per):
    r, c = leaking_cell(m, labels)
    return m + unit(m.nrows, r, c, "x")


def conjugated(m, labels, per):
    # D m D^-1 with D = diag(2 at one basis vector of a level block, 1
    # elsewhere): the support, so the flags, and every law are kept, but the
    # block is no longer the seed's
    _, c, _ = block_cell(m, labels, per)
    d = [1] * m.nrows
    d[c] = 2
    d_inv = [1] * m.nrows
    d_inv[c] = Fraction(1, 2)
    return PolyMatrix.diagonal(d) * m * PolyMatrix.diagonal(d_inv)


LAWS = "restricted_quotient_multiplicativity"
# name -> (change of C(z), the pipeline row it fails)
FAULTS = {
    "one changed entry inside a level block": (changed_entry, LAWS),
    "a same-level nonzero with rho_r != rho_c": (moved_off_diagonal, LAWS),
    "a missing seed nonzero": (missing_nonzero, LAWS),
    "an entry that leaves a flag": (leaking_entry, "restricted_flags_preserved"),
    "a level block conjugated by a diagonal": (conjugated, "quotients_match_seed"),
}


def tampered(cm, change, labels, per, index=1):
    """cm with change applied to C-matrix index."""
    matrices = list(cm.matrices)
    matrices[index] = change(matrices[index], labels, per)
    return CharMorphism(cm.source, matrices, cm.charpoly)


def same_report(cm, filtration, seed):
    """The report with the seed, checked equal to the forced full path's; returns it."""
    with_seed = verify_filtered_pseudo(cm, filtration, seed=seed)
    full = verify_filtered_pseudo(cm, filtration)
    assert with_seed.title == full.title
    assert [vars(c) for c in with_seed.checks] == [vars(c) for c in full.checks]
    assert {**with_seed.meta, "seed_blocks": None} == {**full.meta, "seed_blocks": None}
    return with_seed


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_planted_fault_is_refused_by_the_certificate_and_reported_alike(fault):
    cm, labels, seed = restricted_run()
    per = cm.dim // seed[0].nrows
    bad = tampered(cm, FAULTS[fault][0], labels, per)
    assert not bad.matrices[1].is_filtered_kron(seed[1], labels)
    assert same_report(bad, Filtration(labels), seed).meta["seed_blocks"] is False


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_planted_fault_raises_the_same_row_in_the_pipeline(fault, monkeypatch):
    spec = multi_branch_spec(2)
    labels, real = run_pipeline(spec).filtration.labels, pipeline.restrict_to_line

    def planted(morphism, line, **kw):
        return tampered(real(morphism, line, **kw), FAULTS[fault][0], labels, 4)

    def build():
        monkeypatch.setattr(pipeline, "restrict_to_line", planted)
        return spec

    fast, seen, full = both_paths(monkeypatch, build)
    assert fast == full
    assert fast[0].startswith(f"pipeline check failed: {FAULTS[fault][1]}")
    assert seen["seed_blocks"] == [False]


def test_labels_that_are_not_periodic_are_refused_and_reported_alike():
    cm, labels, seed = restricted_run()
    # swap the labels of two basis vectors of different levels in the last
    # seed block only: a coordinate filtration still, but not seed-major
    n, per = cm.dim, cm.dim // seed[0].nrows
    i, j = n - per, n - 1
    assert labels[i] != labels[j]
    swapped = list(labels)
    swapped[i], swapped[j] = labels[j], labels[i]
    assert not any(m.is_filtered_kron(s, swapped) for m, s in zip(cm.matrices, seed))
    assert same_report(cm, Filtration(swapped), seed).meta["seed_blocks"] is False


def test_labels_that_are_not_periodic_raise_the_same_row_in_the_pipeline(monkeypatch):
    def swapped(labels):
        labels = list(labels)
        labels[-4], labels[-1] = labels[-1], labels[-4]
        return Filtration(labels)

    def build():
        monkeypatch.setattr(pipeline, "Filtration", swapped)
        return multi_branch_spec(2)

    fast, seen, full = both_paths(monkeypatch, build)
    assert fast == full
    assert fast[0] != "passed"
    assert seen["seed_blocks"] == [False]


@pytest.mark.parametrize("broken", ["unit", "product", "both"])
def test_a_seed_whose_laws_fail_is_certified_and_reported_alike(broken):
    # the quadric's restricted morphism is its seed ⊗ I_2; a broken seed S'
    # with S' ⊗ I_2 as the morphism passes the certificate, and its laws
    # fail on the seed exactly as on every level's blocks
    result = run_pipeline(quadric_spec())
    seed = char_morphism(result.seed).matrices
    w = seed[0].nrows
    twice, zero = PolyMatrix.identity(w).scaled(2), PolyMatrix.zeros(w, w)
    changed = {
        "unit": [zero, zero],  # every product law holds, 0 = 0
        "product": [seed[0], seed[1].scaled(2)],
        "both": [twice, seed[1].scaled(2)],
    }[broken]
    eye = PolyMatrix.identity(2)
    cm = CharMorphism(
        result.restricted.source, [s.kron(eye) for s in changed], result.restricted.charpoly
    )
    report = same_report(cm, result.filtration, changed)
    assert report.meta["seed_blocks"] is True
    assert not report.ok
    bad = [c for c in report.checks if not c.ok]
    assert all("level 0" in c.detail for c in bad)
    assert {c.name for c in bad} == {
        "unit": {"quotient_unit"},
        "product": {"quotient_multiplicativity"},
        "both": {"quotient_unit", "quotient_multiplicativity"},
    }[broken]


def test_the_certificate_refuses_what_does_not_tile_or_fit():
    cm, labels, seed = restricted_run(1)
    m, s = cm.matrices[1], seed[1]
    assert m.is_filtered_kron(s, labels)
    assert not m.is_filtered_kron(s, labels[:-1])  # a label short
    assert not m.is_filtered_kron(PolyMatrix.identity(3), labels)  # 3 does not divide 8
    eye = PolyMatrix.identity(8)
    assert eye.is_filtered_kron(PolyMatrix.identity(4), (0,) * 8)
    # labels that depend on the seed index: level 0 is one basis vector,
    # no block of a 2-dimensional seed, though every nonzero lies on the
    # diagonal of I_2 ⊗ I_2 and the count is right
    assert not PolyMatrix.identity(4).is_filtered_kron(PolyMatrix.identity(2), (0, 1, 1, 1))
    assert PolyMatrix.identity(4).is_filtered_kron(PolyMatrix.identity(2), (0, 1, 0, 1))
    # a seed variable the matrix cannot hold: re-encoded into the matrix's
    # keys, w would be dropped and the entry w read as 1
    assert not eye.is_filtered_kron(PolyMatrix.diagonal(["w", 1, 1, 1]), (0,) * 8)
    # a seed exponent the matrix's fields cannot hold
    big = PolyMatrix.diagonal(["w^300"] * 4)
    assert not PolyMatrix.diagonal(["w"] * 8).is_filtered_kron(big, (0,) * 8)


# -- work ---------------------------------------------------------------------


def test_the_restricted_stage_makes_no_product_or_block_larger_than_the_seed(monkeypatch):
    spec = multi_branch_spec(5)
    stage = []  # nonempty once the morphism is restricted
    shapes, calls = [], []
    real_restrict, real_verify = pipeline.restrict_to_line, pipeline.verify_filtered_pseudo

    def restrict(*args, **kw):
        out = real_restrict(*args, **kw)
        stage.append(True)
        return out

    def verify(*args, **kw):
        calls.append(True)
        return real_verify(*args, **kw)

    for name in ("submatrix", "kron", "__mul__"):
        def spy(self, *args, _real=getattr(PolyMatrix, name), _name=name):
            out = _real(self, *args)
            if stage:
                shapes.append((_name, max(self.shape + out.shape)))
            return out

        monkeypatch.setattr(PolyMatrix, name, spy)
    monkeypatch.setattr(pipeline, "restrict_to_line", restrict)
    monkeypatch.setattr(pipeline, "verify_filtered_pseudo", verify)
    result = run_pipeline(spec)
    assert result.assembly.dim == 128 and result.seed.dim == 4
    assert len(calls) == 1
    # the seed's own C-matrices and its laws are the only products left
    assert shapes and {name for name, _ in shapes} == {"__mul__"}
    assert max(size for _, size in shapes) == result.seed.dim
