"""Repository hygiene: no generated file tracked in git, no stale README config,
the matrix layout known to one module only, packed keys encoded and decoded by
the polynomial, matrix and kernel modules only, variable contexts joined by the
polynomial module only, the T-slot read by the Roby module and the
file format only, no identity matrix built only to be scaled or added, no
public function that only forwards to a method, every exported name defined,
every exported name used by the package or the benchmark unless ``LIBRARY_ONLY``
says why not, and every committed ``BENCH_*.json`` carrying the benchmark's
end-to-end metrics."""

import ast
import importlib
import io
import json
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
    r"\b(?:pack|unpack|repacker|_recoder|_recoded|_keys_in|packed|_codec|to_bytes|from_bytes"
    r"|mul_packed|mul_into_packed|matmul_terms|aligned_data)\b|\. (?:width|top)\b"
)
# nonzeros() hands out packed term maps; elsewhere only the positions are read
POSITIONS_ONLY = re.compile(r"for \w+ , \w+ , _ in (?:\w+ \. )*nonzeros \( \)")


def key_codec_uses(text):
    tokens = code_tokens(text)
    found = [m.group() for m in KEY_CODEC.finditer(tokens)]
    terms_read = len(re.findall(r"\bnonzeros\b", tokens)) - len(POSITIONS_ONLY.findall(tokens))
    return found + ["nonzeros() terms"] * terms_read


KEY_OWNERS = ("poly.py", "matrix.py", "kernel.py")


def test_only_matrix_and_kernel_encode_or_decode_keys():
    # other modules read polynomials through terms, sorted_terms and the
    # degree queries, read entries as Polys (entry, rows, first_nonzero) and
    # ask which variables occur (occurring_vars), so the key encoding can
    # change in poly.py, matrix.py and kernel.py alone
    found = [
        f"{path.name}: {use}"
        for path in sorted((ROOT / "src" / "robyclif").glob("*.py"))
        if path.name not in KEY_OWNERS
        for use in key_codec_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"modules encoding or decoding keys outside {KEY_OWNERS}: {found}"


def test_the_key_codec_pattern_matches_what_it_names():
    for line in (
        "terms = kernel.pack(p.terms, 8)",
        "exp = tuple(k.to_bytes(n, 'little'))",
        "key = int.from_bytes(bytes(exp), 'little')",
        "shift = m.width * i",
        "data = m.aligned_data(vs, width=16)",
        "keys = p.packed",
        "terms = p._keys_in(vs, 16)",
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


def variable_unions(text):
    """Line numbers of the ``sorted(...)`` calls in Python source whose
    argument mentions ``.vars`` and unions it into a set: a set display or
    comprehension, ``.union(...)``, ``|`` or ``+``.  Comments and strings
    are not read.
    """
    kept = (tokenize.NAME, tokenize.OP)
    toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type in kept]
    found = []
    for i, tok in enumerate(toks[:-1]):
        if tok.string != "sorted" or toks[i + 1].string != "(":
            continue
        depth, j = 0, i + 1
        while True:  # j ends on the parenthesis that closes sorted(
            depth += {"(": 1, ")": -1}.get(toks[j].string, 0)
            if not depth:
                break
            j += 1
        arg = " ".join(t.string for t in toks[i + 2 : j])
        if re.search(r"\. vars\b", arg) and re.search(r"\{|\. union \(|\||\+", arg):
            found.append(tok.start[0])
    return found


def test_only_poly_module_joins_variable_contexts():
    # Polys and matrices meet in poly._context, so the rule for where
    # contexts meet can change in poly.py alone
    found = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "robyclif").glob("*.py"))
        if path.name != "poly.py"
        for number in variable_unions(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"variable contexts joined outside poly.py: {found}"


def test_the_variable_union_pattern_matches_what_it_names():
    for line in (
        "vars = tuple(sorted({v for p in polys for v in p.vars}))",
        "vs = tuple(sorted({v for p, m in terms for v in p.vars + m.vars}))",
        "vs = tuple(sorted(set().union(*(c.vars for c in column))))",
        "vs = tuple(sorted(kept.union(*(p.vars for p in vals.values()))))",
        "vs = tuple(sorted(set(a.vars) | set(b.vars)))",
        "vs = tuple(sorted(set(a.vars + b.vars)))",
        "vs = tuple(sorted(\n    {*a.vars, *b.vars}\n))",
    ):
        assert variable_unions(line) == [1], line
    for line in (
        "extra = sorted(set(relations.vars) - set(self.vars))",
        "names = sorted(self.vars)",
        "vs, width = _context([p, *column], top)",
        "order = sorted({v for v in names})",
        '"""sorted({v for p in ps for v in p.vars})"""  # sorted(set(a.vars) | set(b.vars))',
    ):
        assert variable_unions(line) == [], line


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


def forwarders(text):
    """Names of the public module-level functions of Python source whose body,
    after the docstring, is only ``return first.method(other, parameters)``.
    """
    found = []
    for node in ast.parse(text).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and params[:1] == [call.func.value.id]
            and not call.keywords
            and [a.id if isinstance(a, ast.Name) else None for a in call.args] == params[1:]
        ):
            found.append(node.name)
    return found


def test_no_public_function_only_forwards_to_a_method():
    # a second public name for one operation is one more concept to learn
    # and keep in step; callers call the method
    found = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "robyclif").glob("*.py"))
        for name in forwarders(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"public functions that only forward to a method: {found}"


def test_the_forwarder_pattern_matches_what_it_names():
    for text in (
        "def f(p, bindings):\n    return p.substitute(bindings)\n",
        'def f(m):\n    """The scalar."""\n    return m.scalar_identity_multiple()\n',
        "def f(chi: CharPoly, b) -> CharPoly:\n    return chi.substitute_base(b)\n",
    ):
        assert forwarders(text) == ["f"], text
    for text in (
        "def _f(p, b):\n    return p.substitute(b)\n",
        "def f(a, b):\n    return twisted_tensor_all([a, b])\n",
        "def f(p, b):\n    return p.substitute(b, 1)\n",
        "def f(p, b):\n    return b.substitute(p)\n",
        "def f(p, b):\n    q = p\n    return q.substitute(b)\n",
        "def f(p):\n    return p.method(key=1)\n",
        "class C:\n    def f(self, b):\n        return self.g(b)\n",
    ):
        assert forwarders(text) == [], text


@pytest.mark.parametrize(
    "module",
    ["robyclif"] + [f"robyclif.{p.stem}" for p in sorted((ROOT / "src" / "robyclif").glob("*.py"))
                    if p.stem != "__init__"],
)
def test_every_exported_name_is_defined_once(module):
    # only ``from robyclif import *`` reads __all__, so a name left behind
    # there fails nowhere else
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert sorted(n for n in set(names) if names.count(n) > 1) == []


# package.name -> why it is exported though no other line of the package and
# no benchmark script uses it; an entry goes once the name is used or gone
LIBRARY_ONLY = {
    "freealg.char_poly_of_matrix": "the Berkowitz oracle the charpoly tests compare against",
    "linegeom.hilbert_function": "read by tests/test_splitting_oracle.py",
    "linegeom.is_ulrich_on_embedded_curve": "the acceptance criterion's Ulrich test",
    "roby.zero_roby": "builds the zero factors of the tensor tests",
    "seeds.perturbed_split_algebra": "builds the test algebras",
    "specfile.spec_kind": "dispatches the fuzz test's commands",
}


def unreached_exports(root):
    """module.name for each name in the ``__all__`` of a module of
    ``src/robyclif`` (``__init__.py`` only re-exports) that no line of those
    modules outside its own def or class line and the ``__all__`` lists, and
    no ``perfbench/*.py``, mentions as a word.
    """
    exports, lines = [], []
    for path in sorted((root / "src" / "robyclif").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        first = last = 0
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                first, last = node.lineno, node.end_lineno
                exports += [(path.stem, e.value) for e in node.value.elts]
        lines += [line for n, line in enumerate(text.splitlines(), 1) if not first <= n <= last]
    bench = "\n".join(p.read_text(encoding="utf-8") for p in (root / "perfbench").glob("*.py"))
    found = []
    for module, name in exports:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(?:def|class)\s+{re.escape(name)}\b")
        if not word.search(bench) and not any(
            word.search(line) and not own.match(line) for line in lines
        ):
            found.append(f"{module}.{name}")
    return found


def test_every_exported_name_is_reached_or_listed():
    # an exported name that nothing runs is surface to read, test and keep
    # in step; it goes, or LIBRARY_ONLY says why it stays
    unreached = unreached_exports(ROOT)
    unlisted = [n for n in unreached if n not in LIBRARY_ONLY]
    assert unlisted == [], f"exported but used by nothing; delete or list them: {unlisted}"
    stale = [n for n in LIBRARY_ONLY if n not in unreached]
    assert stale == [], f"used or gone now; delete their LIBRARY_ONLY entries: {stale}"


def test_the_reach_rule_reads_what_it_names(tmp_path):
    package = tmp_path / "src" / "robyclif"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("from .a import *\nfrom .b import *\n")
    (package / "a.py").write_text(
        '__all__ = [\n    "lone",\n    "Used",\n    "benched",\n]\n\n\n'
        "def lone():\n    return 1\n\n\nclass Used:\n    pass\n\n\n"
        "def benched():\n    return lone_ish\n"
    )
    (package / "b.py").write_text('__all__ = ["told"]\n\n\ndef told():\n    return Used()\n')
    (tmp_path / "perfbench" / "jobs.py").write_text("from robyclif import benched\n")
    # lone_ish is another word; __init__.py, __all__ and def lines do not count
    assert unreached_exports(tmp_path) == ["a.lone", "b.told"]
    # a mention in a docstring counts, as any word of the package does
    (package / "b.py").write_text('__all__ = ["told"]\n\n\ndef told():\n    """Not lone."""\n')
    assert unreached_exports(tmp_path) == ["a.Used", "b.told"]


def test_every_bench_record_carries_the_end_to_end_metrics():
    # a BENCH_*.json holds the final JSON lines of untraced perfbench runs
    # of a change and of its parent, and of a traced run of the change
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json"
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        for side in ("parent", "change"):
            run = record[side]
            assert run["correct"] and run["failed"] == 0, (path.name, side)
            assert wanted <= set(run["metrics"]), (path.name, side, wanted - set(run["metrics"]))
        assert record["change_traced"]["correct"], path.name
