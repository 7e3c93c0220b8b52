"""Job lists, inputs and oracles of the three benchmark workloads.

A job is one call into periodpoly: either ``periodpoly.cli.main(argv, out)``
(the console-script entry point) or a short sequence of public library
calls.  Every job carries an oracle that does not depend on the code under
test: a classical formula, an independently expanded eta product, or a
digest/reference of the output recorded at the commit the benchmark was
defined on (``expected.json``).

The seed only permutes job order and draws the eigen-sweep primes; the
program receives nothing but the generated arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("index-sweep", "hecke-spaces", "eigen-sweep")

# The five eta-product newforms of level N and weight k = 24 / (N + 1):
# eta(z)^r eta(Nz)^r with r = k.  Label "N.k".
ETA_FORMS = {1: 12, 2: 8, 3: 6, 5: 4, 11: 2}

# Cost of an eigenvalue job grows like n^2.8 (Merel's family is O(n^3)), so
# primes are drawn one per stratum of neighbouring primes: every seed then
# asks for nearly the same amount of work.
EIGEN_PRIME_STRATA = ((61, 67), (71, 73), (79, 83), (89, 97), (101, 103),
                      (107, 109), (113,), (127, 131), (137, 139), (149, 151))
QEXP_ORDER = 200


@dataclass
class Job:
    """One call into the program and the oracle its output must pass."""

    id: str
    command: str
    argv: Optional[list] = None
    library: Optional[Callable[[], str]] = None
    checks: list = field(default_factory=list)

    def execute(self) -> tuple:
        """Run the job; returns (exit code, captured output text)."""
        with contextlib.redirect_stderr(io.StringIO()):
            if self.library is not None:
                return 0, self.library()
            from periodpoly import cli
            out = io.StringIO()
            code = cli.main(list(self.argv), out=out)
            return code, out.getvalue()

    def failure(self, code: int, text: str) -> Optional[str]:
        """None when the output passes every oracle, else the reason."""
        if code != 0:
            return "exit code %d" % code
        for check in self.checks:
            reason = check(text)
            if reason:
                return reason
        return None


# ----------------------------------------------------------------------
# classical formulas (the oracles of the structure jobs)

def _factor(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _phi(n: int) -> int:
    for p in _factor(n):
        n = n // p * (p - 1)
    return n


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def gamma0_cusp_count(N: int) -> int:
    """sum over d | N of phi(gcd(d, N/d))."""
    return sum(_phi(math.gcd(d, N // d)) for d in _divisors(N))


def gamma0_genus(N: int) -> int:
    """Genus of X0(N): 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2."""
    primes = _factor(N)
    mu = N
    for p in primes:
        mu = mu * (p + 1) // p
    nu2 = 0 if N % 4 == 0 else math.prod(
        1 + (0 if p == 2 else (1 if p % 4 == 1 else -1)) for p in primes)
    nu3 = 0 if N % 9 == 0 else math.prod(
        1 + (0 if p == 3 else (1 if p % 3 == 1 else -1)) for p in primes)
    g = (1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
         - Fraction(gamma0_cusp_count(N), 2))
    return int(g)


def gamma1_cusp_dim(N: int, k: int) -> int:
    """dim S_k(Gamma1(N)) for N >= 5, where every cusp is regular."""
    mu = N * N
    for p in _factor(N):
        mu = mu * (p * p - 1) // (p * p)
    cusps = sum(_phi(d) * _phi(N // d) for d in _divisors(N)) // 2
    g = 1 + Fraction(mu, 24) - Fraction(cusps, 2)
    dim = g if k == 2 else (k - 1) * (g - 1) + Fraction(k - 2, 2) * cusps
    return int(dim)


def eta_qexp(N: int, r: int, order: int) -> list:
    """a_1..a_order of q^((N+1)r/24) prod (1-q^m)^r (1-q^(Nm))^r, by direct
    multiplication; independent of periodpoly.analytic.eta_product."""
    offset = (N + 1) * r // 24
    size = order - offset + 1
    series = [1] + [0] * (size - 1)
    for step in (1, N):
        for m in range(step, size, step):
            for _ in range(r):
                for i in range(size - 1, m - 1, -1):
                    series[i] -= series[i - m]
    return [0] * (offset - 1) + series[:order - offset + 1]


# ----------------------------------------------------------------------
# checks

def check_digest(expected: dict, job_id: str):
    def check(text):
        want = expected["digests"].get(job_id)
        if want is None:
            return "no recorded digest for %s" % job_id
        got = hashlib.sha256(text.encode()).hexdigest()
        return None if got == want else "digest %s != recorded %s" % (got[:12], want[:12])
    return check


def check_field(key: str, want, what: str):
    def check(text):
        got = json.loads(text)[key]
        return None if got == want else "%s = %r, %s gives %r" % (key, got, what, want)
    return check


def check_cusp_count(N: int):
    def check(text):
        got, want = len(json.loads(text)["cusps"]), gamma0_cusp_count(N)
        return None if got == want else "%d cusps, formula gives %d" % (got, want)
    return check


def check_floats(expected: dict, job_id: str):
    """Same structure and exact leaves as the recorded output; each float
    within the output's own reported ``err`` where it has one, else within
    1e-9 relative (1e-14 absolute, for residuals near zero)."""
    def walk(got, want, err, path):
        if isinstance(want, dict):
            if not isinstance(got, dict) or sorted(got) != sorted(want):
                return "%s: keys differ" % path
            err = got.get("err", err)
            for key in want:
                reason = walk(got[key], want[key], err, path + "." + key)
                if reason:
                    return reason
            return None
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                return "%s: lengths differ" % path
            for i, (g, w) in enumerate(zip(got, want)):
                reason = walk(g, w, err, "%s[%d]" % (path, i))
                if reason:
                    return reason
            return None
        if isinstance(want, float) and not isinstance(want, bool):
            tol = err if err is not None else 1e-9 * abs(want) + 1e-14
            if isinstance(got, (int, float)) and abs(got - want) <= tol:
                return None
            return "%s = %r, recorded %r (tol %.1e)" % (path, got, want, tol)
        return None if got == want else "%s = %r, recorded %r" % (path, got, want)

    def check(text):
        reference = expected["floats"].get(job_id)
        if reference is None:
            return "no recorded output for %s" % job_id
        return walk(json.loads(text), reference, None, "$")
    return check


# Lambda(1, f) = L(E, 1) / (2 pi) for the curve 11a, L(E, 1) = Omega / 5.
LAMBDA_11A_AT_1 = 0.2538418608559106843 / (2 * math.pi)


def check_lambda_11a(text):
    value = json.loads(text)["value"]
    tol = max(value["err"], 1e-12)
    if abs(value["re"] - LAMBDA_11A_AT_1) <= tol and abs(value["im"]) <= tol:
        return None
    return "Lambda(1, 11a) = %r, expected %r" % (value["re"], LAMBDA_11A_AT_1)


# ----------------------------------------------------------------------
# library jobs

def _scalar(x) -> object:
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "coeffs"):
        return [str(c) for c in x.coeffs]
    return str(Fraction(x))


def chi_components(N: int, k: int) -> str:
    """chi-isotypic parts of W over Gamma1(N), for every character mod N."""
    from periodpoly.cosets import GAMMA1, build_coset_space, dirichlet_characters
    from periodpoly.polyspace import build_W, chi_component
    space = build_coset_space(GAMMA1, N, k)
    W = build_W(space, k - 2)
    comps = []
    for i, ch in enumerate(dirichlet_characters(N)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # odd characters give zero
            comp = chi_component(W, ch)
        comps.append({"character": i, "order": ch.order, "dim": comp.dim,
                      "basis": [[_scalar(x) for x in row] for row in comp.basis.rows]})
    return json.dumps({"group": "gamma1", "level": N, "weight": k,
                       "components": comps}, sort_keys=True, indent=1) + "\n"


# ----------------------------------------------------------------------
# workloads

def _dims(group: str, N: int, k: int) -> list:
    return ["dims", "--group", group, "--level", str(N), "--weight", str(k)]


def _hecke(N: int, k: int, n: int, space: str, sigma: str = "delta") -> list:
    return ["hecke-matrix", "--level", str(N), "--weight", str(k), "--n", str(n),
            "--space", space, "--sigma", sigma]


def index_sweep_jobs(expected: dict) -> list:
    """Rank-only structure computations at large index, prime and highly
    composite levels side by side (composite ones have more cusps and more
    fill-in); no Hecke work."""
    jobs = []
    for N in (420, 509):
        argv = ["cusps", "--level", str(N), "--weight", "2"]
        jid = " ".join(argv)
        jobs.append(Job(jid, "cusps", argv=argv,
                        checks=[check_cusp_count(N), check_digest(expected, jid)]))
    for N in (84, 89, 96, 97, 120, 127):
        argv = _dims("gamma0", N, 2)
        jid = " ".join(argv)
        jobs.append(Job(jid, "dims", argv=argv, checks=[
            check_field("dim_S_inferred", gamma0_genus(N), "genus of X0(%d)" % N),
            check_digest(expected, jid)]))
    for N, k in ((20, 2), (13, 3)):
        argv = _dims("gamma1", N, k)
        jid = " ".join(argv)
        jobs.append(Job(jid, "dims", argv=argv, checks=[
            check_field("dim_S_inferred", gamma1_cusp_dim(N, k),
                        "dim S_%d(Gamma1(%d))" % (k, N)),
            check_digest(expected, jid)]))
    return jobs


HECKE_SPACE_JOBS = (
    # level 37 and n in {2, 11} repeat on purpose: work shared across jobs
    _hecke(37, 4, 2, "Wplus"),
    _hecke(37, 4, 11, "Wminus"),
    _hecke(37, 4, 2, "W", "delta-vee"),
    _hecke(37, 4, 37, "Wplus", "theta"),
    _hecke(12, 8, 2, "W"),
    _hecke(11, 4, 11, "W"),
    _hecke(11, 4, 23, "W"),
    _hecke(11, 4, 3, "Wtilde"),
)
# (N, k): every character of Gamma1(11) at k = 2, four of them with values
# in Q(zeta_5)
CHI_JOBS = ((11, 2),)


def hecke_space_jobs(expected: dict) -> list:
    """Full exact bases of W, W+-, Wtilde and chi-components, and Hecke
    matrices on them."""
    jobs = []
    for argv in HECKE_SPACE_JOBS:
        jid = " ".join(argv)
        jobs.append(Job(jid, "hecke-matrix", argv=list(argv),
                        checks=[check_digest(expected, jid)]))
    for N, k in CHI_JOBS:
        jid = "chi-component gamma1 %d %d" % (N, k)
        jobs.append(Job(jid, "chi-component",
                        library=lambda N=N, k=k: chi_components(N, k),
                        checks=[check_digest(expected, jid)]))
    return jobs


def eigen_primes(seed: int) -> list:
    """One prime per stratum, paired with the five forms in seeded order."""
    rng = random.Random("eigen-primes:%d" % seed)
    primes = [rng.choice(stratum) for stratum in EIGEN_PRIME_STRATA]
    levels = sorted(ETA_FORMS) * (len(primes) // len(ETA_FORMS))
    rng.shuffle(levels)
    return list(zip(levels, primes))


def eigen_sweep_jobs(expected: dict, inputs: dict, seed: int) -> list:
    """Group-ring work at small index: T~_n for ten distinct primes, plus the
    L-value layer on tiny spaces."""
    jobs = []
    for N, n in eigen_primes(seed):
        k = ETA_FORMS[N]
        coeffs = inputs["qexp"][N]
        p = 3 if N == 2 else 2
        argv = ["eigenvalue", "--level", str(N), "--weight", str(k), "--n", str(n),
                "--eigen", "%d:%d" % (p, coeffs[p - 1])]
        jobs.append(Job(" ".join(argv), "eigenvalue", argv=argv, checks=[
            check_field("eigenvalue", str(coeffs[n - 1]), "the eta product")]))
    form5, form11 = inputs["forms"][5], inputs["forms"][11]
    for argv, extra in (
            (["petersson", "--form", form5, "--eigen", "2:-4"], []),
            (["lvalue", "--form", form5, "--s", "2"], []),
            (["lvalue", "--form", form11, "--s", "1"], [check_lambda_11a]),
            (["gamma02-relations", "--weight", "8"], []),
            (["gamma06-demo"], [])):
        jid = " ".join(os.path.basename(a) if a.endswith(".json") else a for a in argv)
        jobs.append(Job(jid, argv[0], argv=argv,
                        checks=[check_floats(expected, jid)] + extra))
    return jobs


# ----------------------------------------------------------------------
# set-up: input generation

def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def generate_inputs(workload: str, seed: int, workdir: str,
                    expected: Optional[dict] = None) -> dict:
    """Everything a workload needs before its first job: eta-product
    q-expansions and newform files (eigen-sweep), oracle values and the
    job list.  Raises RuntimeError when the program's own expansion
    disagrees with the independent one."""
    if expected is None:
        expected = load_expected()
    if workload == "index-sweep":
        return {"jobs": index_sweep_jobs(expected)}
    if workload == "hecke-spaces":
        return {"jobs": hecke_space_jobs(expected)}
    if workload != "eigen-sweep":
        raise ValueError("unknown workload %r" % workload)
    from periodpoly.analytic import NewformData, eta_product
    os.makedirs(workdir, exist_ok=True)
    inputs = {"qexp": {}, "forms": {}}
    for N, k in ETA_FORMS.items():
        series = eta_product([(1, k), (N, k)], QEXP_ORDER)
        oracle = eta_qexp(N, k, QEXP_ORDER)
        if [series.coeff(m) for m in range(1, QEXP_ORDER + 1)] != oracle:
            raise RuntimeError("eta_product disagrees with the direct expansion at level %d" % N)
        inputs["qexp"][N] = oracle
        # Fricke eigenvalue of eta(z)^k eta(Nz)^k is i^-k
        form = NewformData(N, k, series, 1 if k % 4 == 0 else -1)
        path = os.path.join(workdir, "f%d.json" % N)
        with open(path, "w") as fh:
            json.dump(form.to_json(), fh)
        inputs["forms"][N] = path
    inputs["jobs"] = eigen_sweep_jobs(expected, inputs, seed)
    return inputs


def pass_order(jobs: list, seed: int, index: int) -> list:
    """The job order of pass ``index``: a seeded permutation."""
    order = list(jobs)
    random.Random("order:%d:%d" % (seed, index)).shuffle(order)
    return order
