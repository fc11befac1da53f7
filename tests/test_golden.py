"""Byte-for-byte comparison with the golden corpus in tests/golden/.

The module files, CLI transcripts and reports there are written by
``tests/make_golden.py`` only; see its docstring for what each file holds
and for its one masking rule, ``timing_ms``.  A difference here
means an output changed: either the change is a fault, or it is meant, and
then the files are regenerated with that script and the change is recorded.
"""

from functools import cache

import pytest

from make_golden import (
    ALGEBRAS,
    BUILT,
    CHI_REPLACED,
    COMMANDS,
    DEMO,
    DEMO_RUNS,
    EXIT2_RUNS,
    GOLDEN,
    MULTI_BRANCH,
    NUMERIC_RUNS,
    charpoly_argv,
    exit2_argv,
    exit2_inputs,
    module_files,
    numeric_argv,
    report_files,
    run,
)

module_files = cache(module_files)
report_files = cache(report_files)

STEMS = sorted(path.name[: -len(".roby")] for path in GOLDEN.glob("*.roby"))
RUNS = [
    (stem, command, fmt)
    for stem in STEMS
    for command in COMMANDS
    for fmt in ("txt", "json")
]


def golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


EXIT2 = [(family, fmt) for family in EXIT2_RUNS for fmt in ("txt", "json")]
CHARPOLY = [(stem, fmt) for stem in ALGEBRAS for fmt in ("txt", "json")]
NUMERIC = [(stem, fmt) for stem, (_, fmts) in NUMERIC_RUNS.items() for fmt in fmts]


def test_the_corpus_holds_exactly_the_written_files():
    want = set(module_files()) | {f"{s}.{c}.{f}" for s, c, f in RUNS} | set(DEMO_RUNS)
    want |= set(report_files()) | set(exit2_inputs()) | {f"exit2_{f}.{x}" for f, x in EXIT2}
    want |= {f"{s}.algebra" for s in ALGEBRAS} | {f"{s}.charpoly.{f}" for s, f in CHARPOLY}
    want |= {f"{s}.{f}" for s, f in NUMERIC}
    assert {path.name for path in GOLDEN.iterdir()} == want
    assert set(BUILT) <= set(STEMS)
    assert set(CHI_REPLACED) <= set(STEMS)


@pytest.mark.parametrize("stem", list(CHI_REPLACED))
def test_a_replaced_target_is_refused_as_a_characteristic_polynomial(stem):
    for fmt in ("txt", "json"):
        refusal = golden(f"{stem}.charmor.{fmt}")
        assert refusal.startswith(b"[exit 2]\n[stdout]\n[stderr]\nerror: ")
        assert b"monic of degree rank" in refusal or b"not homogeneous" in refusal
        assert golden(f"{stem}.verify.{fmt}").startswith(b"[exit 1]\n")


@pytest.mark.parametrize("name", [f"{stem}.roby" for stem in STEMS])
def test_module_file_is_unchanged(name):
    assert module_files()[name].encode("utf-8") == golden(name)


@pytest.mark.parametrize("stem, command, fmt", RUNS, ids=[".".join(r) for r in RUNS])
def test_transcript_is_unchanged(monkeypatch, stem, command, fmt):
    monkeypatch.chdir(GOLDEN)
    argv = [*COMMANDS[command], f"{stem}.roby"] + (["--json"] if fmt == "json" else [])
    assert run(argv).encode("utf-8") == golden(f"{stem}.{command}.{fmt}")


@pytest.mark.parametrize("name", list(DEMO_RUNS))
def test_demo_transcript_is_unchanged(monkeypatch, name):
    monkeypatch.chdir(DEMO)
    assert run(DEMO_RUNS[name]).encode("utf-8") == golden(name)


@pytest.mark.parametrize("stem", list(ALGEBRAS))
def test_algebra_file_is_unchanged(stem):
    assert ALGEBRAS[stem].encode("utf-8") == golden(f"{stem}.algebra")


@pytest.mark.parametrize("stem, fmt", CHARPOLY, ids=[".".join(r) for r in CHARPOLY])
def test_charpoly_transcript_is_unchanged(monkeypatch, stem, fmt):
    monkeypatch.chdir(GOLDEN)
    assert run(charpoly_argv(stem, fmt)).encode("utf-8") == golden(f"{stem}.charpoly.{fmt}")


@pytest.mark.parametrize("stem, fmt", NUMERIC, ids=[".".join(r) for r in NUMERIC])
def test_numeric_transcript_is_unchanged(stem, fmt):
    assert run(numeric_argv(stem, fmt)).encode("utf-8") == golden(f"{stem}.{fmt}")


@pytest.mark.parametrize("name", sorted(report_files()))
def test_report_is_unchanged(name):
    assert report_files()[name].encode("utf-8") == golden(name)


@pytest.mark.parametrize("family, fmt", EXIT2, ids=[".".join(r) for r in EXIT2])
def test_refused_input_transcript_is_unchanged(monkeypatch, family, fmt):
    monkeypatch.chdir(GOLDEN)
    transcript = golden(f"exit2_{family}.{fmt}")
    assert transcript.startswith(b"[exit 2]\n[stdout]\n[stderr]\nerror: ")
    assert run(exit2_argv(family, fmt)).encode("utf-8") == transcript


def test_only_the_pipeline_timing_is_masked():
    masked = {path.name for path in GOLDEN.iterdir() if b"<ms>" in path.read_bytes()}
    assert masked == {name for name in DEMO_RUNS if ".pipeline." in name} | {
        f"multi_branch_{n}.report.{fmt}" for n in MULTI_BRANCH for fmt in ("txt", "json")
    }
    for name in masked:
        assert golden(name).count(b"<ms>") == 1
