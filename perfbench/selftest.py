"""The benchmark's own self-test: a corrupted reference must trip the gate.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, copies the committed references into perfbench/out/,
changes one reference output, runs the benchmark against the copy, and
requires that the run exits 1, reports the mismatch as a failed job, and
prints no metrics.  The workload's own negative control (the untwisted
xi = 1 tensor in cyclotomic_twist, which must fail power_identity) is checked
on every ordinary run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from worker import corrupted  # noqa: E402


def check(workload: str) -> list:
    refs = HERE / "out" / f"selftest-refs-{workload}"
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(HERE / "refs", refs)
    path = refs / f"{workload}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    victim = sorted(doc["jobs"])[0]
    doc["jobs"][victim] = corrupted(doc["jobs"][victim])
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "1",
         "--refs", str(refs)],
        capture_output=True, text=True, timeout=600,
    )
    shutil.rmtree(refs)
    problems = []
    last = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 1:
        problems.append(f"exit code {proc.returncode}, expected 1")
    if last.get("correct") is not False or not last.get("failed"):
        problems.append(f"the corrupted reference of {victim} was not reported as a failure")
    if last.get("metrics"):
        problems.append("metrics were reported despite a failed job")
    if f"FAILED {victim}:" not in proc.stdout:
        problems.append(f"no failure line names {victim}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args()
    failed = False
    for workload in args.workload:
        problems = check(workload)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL ' + '; '.join(problems) if problems else 'gate trips'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
