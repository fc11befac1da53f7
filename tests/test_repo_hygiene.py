"""Repository hygiene: no generated file tracked in git, no stale README config,
the matrix layout known to one module only, packed keys encoded and decoded by
the matrix and kernel modules only, the T-slot read by the Roby module and the
file format only, and no identity matrix built only to be scaled or added."""

import io
import re
import shutil
import subprocess
import tokenize
from pathlib import Path

import pytest

from robyclif.specfile import parse_config

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert listed == "", f"tracked files match .gitignore:\n{listed}"


def test_readme_config_block_parses():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n(\[config\]\n.*?)```", text, re.S)
    assert len(blocks) == 1
    parse_config(blocks[0])


def test_only_matrix_module_reads_the_flat_layout():
    # other modules read matrices through entry, rows and nonzeros, so the
    # storage can change in matrix.py alone
    readers = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "robyclif").glob("*.py"))
        if path.name != "matrix.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\.data\b", line)
    ]
    assert readers == [], f"modules reading .data outside matrix.py: {readers}"


# what encoding or decoding a key takes: the kernel's codecs and packed
# loops, the byte conversions they are made of, a matrix's key context, and
# the aligned term maps of a matrix
KEY_CODEC = re.compile(
    r"\b(?:pack|unpack|repacker|_codec|to_bytes|from_bytes|mul_packed|mul_into_packed"
    r"|matmul_terms|aligned_data)\b|\. (?:width|top)\b"
)
# nonzeros() hands out packed term maps; elsewhere only the positions are read
POSITIONS_ONLY = re.compile(r"for \w+ , \w+ , _ in (?:\w+ \. )*nonzeros \( \)")


def key_codec_uses(text):
    tokens = code_tokens(text)
    found = [m.group() for m in KEY_CODEC.finditer(tokens)]
    terms_read = len(re.findall(r"\bnonzeros\b", tokens)) - len(POSITIONS_ONLY.findall(tokens))
    return found + ["nonzeros() terms"] * terms_read


def test_only_matrix_and_kernel_encode_or_decode_keys():
    # other modules read entries as Polys (entry, rows, first_nonzero) and
    # ask which variables occur (occurring_vars), so the key encoding can
    # change in matrix.py and kernel.py alone
    found = [
        f"{path.name}: {use}"
        for path in sorted((ROOT / "src" / "robyclif").glob("*.py"))
        if path.name not in ("matrix.py", "kernel.py")
        for use in key_codec_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"modules encoding or decoding keys outside matrix.py and kernel.py: {found}"


def test_the_key_codec_pattern_matches_what_it_names():
    for line in (
        "terms = kernel.pack(p.terms, 8)",
        "exp = tuple(k.to_bytes(n, 'little'))",
        "key = int.from_bytes(bytes(exp), 'little')",
        "shift = m.width * i",
        "data = m.aligned_data(vs, width=16)",
        "used = {v for _, _, terms in m.nonzeros() for exp in terms for v, e in zip(m.vars, exp)}",
        "first = next(m.nonzeros())",
    ):
        assert key_codec_uses(line), line
    for line in (
        "p = m.entry(i, j)",
        "used = m.occurring_vars()",
        "bad = [(r, c) for r, c, _ in m.nonzeros() if r > c]",
        '"""the packed keys are decoded by unpack"""  # to_bytes',
        "width = len(header)",
    ):
        assert not key_codec_uses(line), line


def test_only_roby_and_specfile_read_the_tslot():
    # the other modules reach the T-slot through named_actions or the
    # has_tslot flag, so where T sits is decided in roby.py alone
    readers = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "robyclif").glob("*.py"))
        if path.name not in ("roby.py", "specfile.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\.tslot\b", line)
    ]
    assert readers == [], f"modules reading .tslot outside roby.py and specfile.py: {readers}"


def code_tokens(text):
    """The names, operators and numbers of Python source, space-separated.

    Comments and strings are dropped, so docstrings may name what the code
    must not do.
    """
    kept = (tokenize.NAME, tokenize.OP, tokenize.NUMBER)
    return " ".join(
        t.string for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type in kept
    )


# identity(...) with at most one level of nested parentheses in its argument
IDENTITY = r"identity \( (?:[^()]+ |\( [^()]* \) )*\)"
SCALED_IDENTITY_SUMS = [
    IDENTITY + r" \. scaled \(",         # identity(n).scaled(c)
    IDENTITY + r" [+-] ",                 # identity(n) + m
    r"[+-] (?:\w+ \. )?" + IDENTITY,      # m - PolyMatrix.identity(n)
]


def scaled_identity_sums(text):
    return [m.group() for p in SCALED_IDENTITY_SUMS for m in re.finditer(p, code_tokens(text))]


def test_no_scaled_identity_is_built_to_be_added():
    # m + c * I is m.plus_scalar(c): it touches n diagonal slots, where a
    # scaled identity allocates and scales n^2
    found = [
        f"{path.name}: {match}"
        for path in sorted((ROOT / "src" / "robyclif").glob("*.py"))
        for match in scaled_identity_sums(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"identity matrices scaled or added: {found}"


def test_the_scaled_identity_patterns_match_what_they_name():
    for line in (
        "acc = acc + PolyMatrix.identity(n).scaled(cj)",
        "power - PolyMatrix.identity(module.dim).scaled(value)",
        "miss = self.element_rep(self.unit) - PolyMatrix.identity(d)",
        "m = PolyMatrix.identity(len(idx) // w) + m",
    ):
        assert scaled_identity_sums(line), line
    for line in (
        "eye = PolyMatrix.identity(len(idx) // w)",
        "a.kron(PolyMatrix.identity(w))",
        "if m != PolyMatrix.identity(n):",
        '"""m + identity(n).scaled(c)"""  # m - identity(n)',
    ):
        assert not scaled_identity_sums(line), line
