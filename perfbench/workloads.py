"""The benchmark's workloads: job lists, their inputs, and the output gate.

Each workload is a list of jobs.  A job's ``run`` does the timed work and
returns the raw result; its ``digest`` (untimed) turns that result into a
small JSON-able summary, compared for equality with the committed reference,
plus a list of problems found by closed-form oracles that do not use the code
under test.  ``build(name, tmp)`` is the set-up: it imports robyclif and builds
every input (parsed polynomials, algebras, seed factors) before the first job.

Every call into robyclif looks the function up on its module at call time
(``rc.pipeline.run_pipeline``, never a from-import), so the tracer in
``layers.py`` sees it.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"

WORKLOADS = ("pipeline_ladder", "charpoly_fat", "cyclotomic_twist")

# Rungs n of the multi-branch quadric family (assembly dim 4 * 2^n).  n = 6
# alone takes about 15 s, three times the rest of the pass, which would leave
# one or two passes in a run; the top rung is capped at 5 for that reason.
LADDER = (3, 4, 5)

# Cover algebras z^d = a_{d-1} z^{d-1} + ... + a_0.  The coefficient
# functions feed the determinant oracle and are written out by hand, apart
# from the polynomial text the code under test parses.
COVERS = {
    "sextic": (
        "z^6 - x^6 - y^6 - z2^6",
        6,
        {0: lambda x, y, w: x**6 + y**6 + w**6},
    ),
    "quintic": (
        "z^5 - x*z^3 - y^2*z - x^5 - y^5 - z2^5",
        5,
        {3: lambda x, y, w: x, 1: lambda x, y, w: y**2, 0: lambda x, y, w: x**5 + y**5 + w**5},
    ),
    "sextic_mixed": (
        "z^6 - x*z^4 - y*z^3 - x^6 - y^6 - z2^6",
        6,
        {4: lambda x, y, w: x, 3: lambda x, y, w: y, 0: lambda x, y, w: x**6 + y**6 + w**6},
    ),
}
SPLIT_DEGREES = range(2, 11)

# (e, s): the diagonal form y1^e + ... + ys^e over Q(zeta_e), dim e^s.
DIAGONAL = ((3, 4), (4, 3), (5, 3))
CYCLIC = (3, 4)  # cyclic-cover seeds of z^e - x^e - y^e


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    digest: Callable[[object, random.Random], tuple]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def poly_summary(p) -> dict:
    text = str(p)
    return {"terms": len(p.terms), "chars": len(text), "sha256": sha(text)}


# -- independent oracles --------------------------------------------------------


def eval_terms(p, point: dict) -> Fraction:
    """Value of a Poly at a rational point, from its term map alone."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        v = Fraction(c) if not hasattr(c, "as_rational") else c.as_rational()
        if v is None:
            raise ValueError("coefficient is not rational")
        for var, e in zip(p.vars, exps):
            if e:
                v *= point[var] ** e
        total += v
    return total


def det(m: list) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    m = [row[:] for row in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def cover_charpoly_value(d: int, tail: dict, base: list, gammas, t) -> Fraction:
    """det(t*I - L) for L multiplication by sum gammas[k] z^k on Q[z]/(z^d - tail)."""
    a = [tail[k](*base) if k in tail else Fraction(0) for k in range(d)]
    comp = [[Fraction(0)] * d for _ in range(d)]  # multiplication by z
    for j in range(d - 1):
        comp[j + 1][j] = Fraction(1)
    for k in range(d):
        comp[k][d - 1] = a[k]
    power = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    total = [[Fraction(0)] * d for _ in range(d)]
    for k in range(d):
        total = [[u + gammas[k] * v for u, v in zip(r1, r2)] for r1, r2 in zip(total, power)]
        power = [[sum(power[i][s] * comp[s][j] for s in range(d)) for j in range(d)] for i in range(d)]
    return det([[(t if i == j else 0) - total[i][j] for j in range(d)] for i in range(d)])


def random_point(rng: random.Random, names) -> dict:
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in names}


def check_cover_charpoly(p, d, tail, duals, tvar, rng, base=("x", "y", "z2")) -> list:
    problems = []
    for _ in range(2):
        point = random_point(rng, list(base) + list(duals) + [tvar])
        want = cover_charpoly_value(
            d, tail, [point[v] for v in base], [point[g] for g in duals], point[tvar]
        )
        if eval_terms(p, point) != want:
            problems.append(f"charpoly differs from det(t - L) at {point}")
            break
    return problems


def split_product_terms(vars: tuple, duals, tvar: str) -> dict:
    """Term map of prod (t - x_i): elementary symmetric functions."""
    d = len(duals)
    pos = {v: i for i, v in enumerate(vars)}
    out = {}
    for k in range(d + 1):
        for subset in combinations(duals, k):
            exp = [0] * len(vars)
            exp[pos[tvar]] = d - k
            for g in subset:
                exp[pos[g]] = 1
            out[tuple(exp)] = Fraction((-1) ** k)
    return out


def report_problems(report: dict, *, expect_ok=True) -> list:
    if report.get("ok") is not expect_ok:
        return [f"report verdict is {report.get('ok')}, expected {expect_ok}"]
    return []


# -- workloads -------------------------------------------------------------------


def _multi_branch(rc, n: int):
    zs = [f"z{i}" for i in range(2, 2 + n)]
    p = "z^2 - x*y - " + " - ".join(f"{v}^2" for v in zs)
    algebra = rc.freealg.monogenic_algebra(rc.poly.parse_poly(p), "z")
    return rc.pipeline.PipelineSpec(algebra, {v: 0 for v in zs}, rc.seeds.mf_seed("x", "y"))


def _ladder_job(rc, n: int) -> Job:
    spec = _multi_branch(rc, n)

    def digest(result, rng):
        report = rc.report.comparable_dict(result.report.to_dict())
        meta = report["meta"]
        problems = report_problems(report)
        if meta.get("dim") != 4 * 2**n:
            problems.append(f"assembly dim {meta.get('dim')}, closed form {4 * 2**n}")
        want = [4 * comb(n, k) for k in range(n + 1)]
        if meta.get("quotient_dims") != want:
            problems.append(f"quotient dims {meta.get('quotient_dims')}, closed form {want}")
        if meta.get("monomials") != n:
            problems.append(f"{meta.get('monomials')} deviation monomials, expected {n}")
        return report, problems

    return Job(f"ladder_n{n}", lambda: rc.pipeline.run_pipeline(spec), digest)


def _cli_json_job(rc, name: str, argv: list, tmp: Path, oracle=None) -> Job:
    """robyclif.cli.main(argv + --json --out FILE), then the parsed document."""
    out = tmp / f"{name}.json"

    def run():
        code = rc.cli.main([*argv, "--json", "--out", str(out)])
        return code, json.loads(out.read_text(encoding="utf-8"))

    def digest(result, rng):
        code, doc = result
        problems = [] if code == 0 else [f"exit code {code}"]
        if "checks" in doc:
            doc = rc.report.comparable_dict(doc)
            problems += report_problems(doc)
        if oracle is not None:
            problems += oracle(doc, rng)
        return {"exit": code, "doc": doc}, problems

    return Job(name, run, digest)


def _pipeline_ladder(rc, tmp: Path) -> list:
    jobs = [_ladder_job(rc, n) for n in LADDER]

    def quadric_oracle(doc, rng):
        meta = doc["meta"]
        if meta.get("dim") != 8 or meta.get("quotient_dims") != [4, 4]:
            return [f"quadric demo dims {meta.get('dim')} {meta.get('quotient_dims')}"]
        return []

    for stem, oracle in (("quadric", quadric_oracle), ("perturbed_split", None)):
        path = DEMO / f"{stem}.pipeline"
        jobs.append(_cli_json_job(rc, f"cli_pipeline_{stem}", ["pipeline", str(path)], tmp, oracle))
    return jobs


def _charpoly_fat(rc, tmp: Path) -> list:
    jobs = []
    for name, (text, d, tail) in COVERS.items():
        algebra = rc.freealg.monogenic_algebra(rc.poly.parse_poly(text), "z")
        with_ch = name != "sextic_mixed"

        def run(algebra=algebra, with_ch=with_ch):
            chi = rc.freealg.char_poly(algebra)
            ch = rc.freealg.cayley_hamilton_check(algebra, chi) if with_ch else None
            return chi, ch

        def digest(result, rng, d=d, tail=tail):
            chi, ch = result
            out = {"charpoly": poly_summary(chi.poly)}
            problems = check_cover_charpoly(chi.poly, d, tail, chi.dual_names, chi.tvar, rng)
            if ch is not None:
                out["cayley_hamilton"] = rc.report.comparable_dict(ch.to_dict())
                problems += report_problems(out["cayley_hamilton"])
            return out, problems

        jobs.append(Job(f"cover_{name}", run, digest))

    for d in SPLIT_DEGREES:
        algebra = rc.freealg.split_algebra(d)

        def digest(chi, rng):
            want = split_product_terms(chi.poly.vars, chi.dual_names, chi.tvar)
            ok = chi.poly.terms == want
            return poly_summary(chi.poly), [] if ok else ["split charpoly is not prod (t - x_i)"]

        jobs.append(Job(f"split_d{d}", lambda a=algebra: rc.freealg.char_poly(a), digest))

    def quadric_oracle(doc, rng):
        tail = {0: lambda x, y, w: x * y + w * w}
        p = rc.poly.parse_poly(doc["poly"])
        return check_cover_charpoly(p, 2, tail, doc["duals"], doc["tvar"], rng)

    jobs.append(_cli_json_job(
        rc, "cli_charpoly_quadric", ["charpoly", str(DEMO / "quadric.algebra")], tmp, quadric_oracle
    ))
    return jobs


def _diagonal_job(rc, e: int, s: int, xi, *, control=False) -> Job:
    HomForm = rc.poly.HomForm
    factors = [
        rc.roby.monomial_roby(HomForm(rc.poly.parse_poly(f"y{i}^{e}"), e, (f"y{i}",)))
        for i in range(1, s + 1)
    ]

    def run():
        acc = factors[0]
        for nxt in factors[1:]:
            acc = rc.roby.twisted_tensor(acc, nxt, xi, require_primitive=not control)
        return acc, rc.roby.verify_roby(acc)

    def digest(result, rng):
        module, report = result
        rep = rc.report.comparable_dict(report.to_dict())
        out = {"dim": module.dim, "target": str(module.target_poly), "report": rep}
        problems = []
        if module.dim != e**s:
            problems.append(f"dim {module.dim}, closed form {e**s}")
        want = {tuple(e * int(j == i) for j in range(s)): 1 for i in range(s)}
        target = module.target_poly
        if target.vars != tuple(f"y{i}" for i in range(1, s + 1)) or target.terms != want:
            problems.append(f"target {target} is not the diagonal form of degree {e}")
        if control:
            power = next((c for c in rep["checks"] if c["name"] == "power_identity"), None)
            if power is None or power["ok"]:
                problems.append("the untwisted tensor passed the power identity")
        else:
            problems += report_problems(rep)
        return out, problems

    name = f"untwisted_control_e{e}" if control else f"diagonal_e{e}_s{s}"
    return Job(name, run, digest)


def _cyclic_job(rc, e: int, tmp: Path) -> Job:
    path = tmp / f"cyclic{e}.roby"
    poly = f"z^{e} - x^{e} - y^{e}"
    tail = {0: lambda x, y, e=e: x**e + y**e}
    cli = rc.cli

    def run():
        codes = [cli.main(["roby", "build", "--kind", "cyclic", "--poly", poly,
                           "--cover", str(e), "--out", str(path)])]
        docs = []
        for cmd in ("roby verify", "charmor"):
            out = tmp / f"cyclic{e}-{cmd.replace(' ', '_')}.json"
            codes.append(cli.main([*cmd.split(), str(path), "--json", "--out", str(out)]))
            docs.append(json.loads(out.read_text(encoding="utf-8")))
        text = path.read_text(encoding="utf-8")
        seed = rc.specfile.parse_roby_module(text)
        cm = rc.roby.char_morphism(seed)
        stype = rc.linegeom.splitting_type(rc.linegeom.underlying_line_module(cm))
        return codes, text, docs, seed, stype

    def digest(result, rng):
        codes, text, docs, seed, stype = result
        verify, charmor = (rc.report.comparable_dict(doc) for doc in docs)
        out = {
            "exit": codes,
            "module_sha256": sha(text),
            "dim": seed.dim,
            "verify": verify,
            "charmor": charmor,
            "splitting_type": str(stype),
        }
        problems = [] if codes == [0, 0, 0] else [f"exit codes {codes}"]
        problems += report_problems(verify) + report_problems(charmor)
        if seed.dim != e * e:
            problems.append(f"dim {seed.dim}, closed form {e * e}")
        problems += check_cover_charpoly(
            seed.target_poly, e, tail, seed.target_vars, seed.tvar, rng, base=("x", "y")
        )
        return out, problems

    return Job(f"cli_cyclic_e{e}", run, digest)


def _cyclotomic_twist(rc, tmp: Path) -> list:
    jobs = [_diagonal_job(rc, e, s, rc.scalars.make_root(e)) for e, s in DIAGONAL]
    jobs.append(_diagonal_job(rc, 2, 2, 1, control=True))
    jobs += [_cyclic_job(rc, e, tmp) for e in CYCLIC]
    return jobs


JOB_LISTS = {
    "pipeline_ladder": _pipeline_ladder,
    "charpoly_fat": _charpoly_fat,
    "cyclotomic_twist": _cyclotomic_twist,
}


def import_robyclif():
    """Import the package and every submodule the jobs call through."""
    import importlib

    rc = importlib.import_module("robyclif")
    for sub in ("cli", "freealg", "kernel", "linegeom", "matrix", "pipeline", "poly",
                "report", "roby", "scalars", "seeds", "specfile"):
        importlib.import_module(f"robyclif.{sub}")
    return rc


def build(name: str, tmp: Path) -> list:
    """Set-up: import robyclif and build the workload's inputs."""
    return JOB_LISTS[name](import_robyclif(), tmp)


def temp_dir(out_dir: Path) -> tempfile.TemporaryDirectory:
    out_dir.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=out_dir)


# -- the kernel micro-workloads (formerly benchmarks/bench_kernel.py) ------------


def micro_jobs(rc) -> dict:
    parse = rc.poly.parse_poly

    def dense_product():
        return parse("x + 2*y + 3*z + 1") ** 6 * parse("x - y + z - 2") ** 6

    def matrix_power():
        rows = [["x", "y", "0", "1"], ["1", "x - y", "y^2", "0"],
                ["0", "1", "x + 1", "y"], ["y", "0", "1", "x"]]
        return rc.matrix.PolyMatrix.from_rows([[parse(c) for c in r] for r in rows]).pow(5)

    def split_charpoly():
        return rc.freealg.char_poly(rc.freealg.split_algebra(6)).poly

    def cover_charpoly():
        algebra = rc.freealg.monogenic_algebra(parse("z^4 - x^4 - y^4 - z2^4"), "z")
        return rc.freealg.char_poly(algebra).poly

    return {
        "dense_product": dense_product,
        "matrix_power": matrix_power,
        "split_charpoly": split_charpoly,
        "cover_charpoly": cover_charpoly,
    }


def micro_digest(value) -> dict:
    text = str(value)
    return {"chars": len(text), "sha256": sha(text)}
