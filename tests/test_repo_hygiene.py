"""Repository hygiene: no generated file tracked in git, no stale README config,
and the matrix layout known to one module only."""

import re
import shutil
import subprocess
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
