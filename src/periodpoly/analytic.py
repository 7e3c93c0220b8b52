"""Numerical layer: q-expansions, completed L-values, periods, norms.

Exact rational q-expansions (eta products, Eisenstein series) feed a
double-precision evaluation of completed L-functions by incomplete-gamma
series split at 1/sqrt(N).  Combined with the exact eigen-polynomials this
recovers period normalizations, Petersson norms and Hecke eigenvalues
following the workflow the period-polynomial formalism makes possible:
all analytic input is reduced to identity-coset L-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import (ApproxComplex, DenseMatrix, PeriodPolyError, QQ, bernoulli,
                       check, clear_denominators, scalar_to_str, scalar_from_str,
                       solve_columns)
from .cosets import (MAT_I, MAT_S, GAMMA0, Character, CosetError, build_coset_space,
                     _euler_phi)
from .polyspace import PolyVector, pair_braces, build_W_extended
from .hecke import GroupRingElement


class AnalyticError(PeriodPolyError):
    pass


# ----------------------------------------------------------------------
# exact q-series

class QSeries:
    """Truncated exact q-expansion; coefficients beyond the order are
    undefined, not zero."""

    __slots__ = ("a0", "coeffs", "order")

    def __init__(self, a0, coeffs: Sequence, order: Optional[int] = None):
        self.a0 = Fraction(a0)
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self.order = len(self.coeffs) if order is None else order
        if self.order < 1 or len(self.coeffs) != self.order:
            raise AnalyticError("truncation order must be >= 1 and match data")

    def coeff(self, m: int) -> Fraction:
        if m == 0:
            return self.a0
        if not 1 <= m <= self.order:
            raise AnalyticError("coefficient a_%d beyond truncation order %d" % (m, self.order))
        return self.coeffs[m - 1]

    def __add__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        return QSeries(self.a0 + other.a0,
                       [self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries(c * self.a0, [c * x for x in self.coeffs])

    def dilate(self, t: int) -> "QSeries":
        """q -> q^t."""
        if t < 1:
            raise AnalyticError("dilation factor must be >= 1")
        out = [Fraction(0)] * self.order
        for m in range(1, self.order // t + 1):
            out[m * t - 1] = self.coeffs[m - 1]
        return QSeries(self.a0, out)


def eta_product(factors: Sequence[tuple], order: int) -> QSeries:
    """q^(sum t r / 24) prod_n (1 - q^(t n))^r, expanded exactly.

    The leading exponent must come out a positive integer.  By Euler's
    pentagonal number theorem prod_n (1 - q^n) = 1 + sum_(j >= 1) (-1)^j
    (q^(j(3j-1)/2) + q^(j(3j+1)/2)), so the factor for t is a sparse series
    with coefficients +-1 at t j(3j -+ 1)/2.  The unit part is one truncated
    list of ints, and each factor (t, r) is applied |r| times in place.  A
    multiplication runs from the top index down, so every entry it reads
    is still the old one; an exact division (the constant term is 1) runs
    from the bottom index up, so every entry it reads is already the
    quotient's.
    """
    if order < 1:
        raise AnalyticError("order must be >= 1")
    total = sum(Fraction(t * r, 24) for t, r in factors)
    if total.denominator != 1 or total <= 0:
        raise AnalyticError("leading exponent %s is not a positive integer" % total)
    if any(t < 1 for t, _ in factors):
        raise AnalyticError("eta multiplier must be >= 1")
    offset = int(total)
    top = order - offset
    unit = [1] + [0] * top
    for t, r in factors:
        terms, j = [], 1
        while t * j * (3 * j - 1) // 2 <= top:
            for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if t * e <= top:
                    terms.append((t * e, -1 if j % 2 else 1))
            j += 1
        steps = range(top, 0, -1) if r > 0 else range(1, top + 1)
        sign = 1 if r > 0 else -1
        for _ in range(abs(r)):
            for i in steps:
                acc = 0
                for e, s in terms:
                    if e > i:
                        break
                    acc += s * unit[i - e]
                unit[i] += sign * acc
    return QSeries(0, ([0] * (offset - 1) + unit)[:order])


def sigma_divisor(m: int, e: int) -> int:
    return sum(d ** e for d in range(1, m + 1) if m % d == 0)


def eisenstein_qexp(k: int, t: int, order: int = 64) -> QSeries:
    """E_k(z) - t^(k-1) E_k(t z), with E_k normalized so a_1 = 1.

    t = 1 returns the plain E_k, constant term -B_k/(2k); for k = 2 the
    combination has constant term -(1 - t)/24.
    """
    if k % 2 or k < 2:
        raise AnalyticError("weight must be even and >= 2")
    if t < 1:
        raise AnalyticError("t must be >= 1")
    a0 = -bernoulli(k) / (2 * k)
    coeffs = [Fraction(sigma_divisor(m, k - 1)) for m in range(1, order + 1)]
    base = QSeries(a0, coeffs)
    if t == 1:
        return base
    return base - base.dilate(t).scale(Fraction(t) ** (k - 1))


# ----------------------------------------------------------------------
# newform data

@dataclass
class NewformData:
    """A (new)form given by exact q-expansion plus its Fricke sign."""

    level: int
    weight: int
    qseries: QSeries
    fricke_sign: int = 1
    character: Optional[object] = None  # None means trivial

    def __post_init__(self):
        if self.fricke_sign not in (1, -1):
            raise AnalyticError("Fricke sign must be +-1")
        if self.level < 1 or self.weight < 2:
            raise AnalyticError("bad level or weight")

    def is_cuspidal(self) -> bool:
        return self.qseries.a0 == 0

    def to_json(self) -> dict:
        char = "trivial"
        if self.character is not None:
            if self.character.order > 2:
                raise AnalyticError("a newform file holds only real characters")
            # exponents 0 and 1 of a real character are the values 1 and -1
            char = {"modulus": self.character.N,
                    "values": [("1", "-1")[e] for e in self.character.exponents.values()]}
        return {
            "level": self.level,
            "weight": self.weight,
            "character": char,
            "fricke_sign": self.fricke_sign,
            "constant_term": scalar_to_str(self.qseries.a0),
            "coefficients": [scalar_to_str(c) for c in self.qseries.coeffs],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "NewformData":
        try:
            level, weight, sign = doc["level"], doc["weight"], doc["fricke_sign"]
            a0 = scalar_from_str(doc["constant_term"])
            coeffs = [scalar_from_str(c) for c in doc["coefficients"]]
            char = doc.get("character", "trivial")
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalyticError("malformed newform document: %s" % exc)
        for key, value in (("level", level), ("weight", weight), ("fricke_sign", sign)):
            # bool is an int subclass; a JSON true or 5.7 is not a level
            if isinstance(value, bool) or not isinstance(value, int):
                raise AnalyticError("%s must be a JSON integer, not %r" % (key, value))
        character = None
        if char != "trivial":
            character = _real_character_from_json(char, level)
        return cls(level, weight, QSeries(a0, coeffs), sign, character)


def _real_character_from_json(char, level: int):
    """The character {"modulus": level, "values": [...]} of a newform file,
    its values "1" or "-1" listed over the units mod level in increasing order."""
    if not isinstance(char, dict) or char.get("modulus") != level:
        raise AnalyticError('a character must be "trivial" or '
                            '{"modulus": %d, "values": [...]}' % level)
    values = char.get("values")
    # the count is checked before any unit is listed and, as phi(n) >= sqrt(n/2),
    # a short list before the level is factored: work bounded by the file size
    if (not isinstance(values, list) or 2 * len(values) ** 2 < level
            or len(values) != _euler_phi(level)):
        raise AnalyticError("a character mod %d needs phi(%d) values" % (level, level))
    exponents = [{"1": 0, "-1": 1}.get(str(v)) for v in values]
    if None in exponents:
        raise AnalyticError('a character value must be "1" or "-1"')
    units = (a for a in range(level) if math.gcd(a, level) == 1)
    try:
        return Character(level, max(exponents) + 1, dict(zip(units, exponents)))
    except CosetError as exc:
        raise AnalyticError("bad character table: %s" % exc)


# ----------------------------------------------------------------------
# incomplete gamma and completed L-values

def incomplete_gamma(s: int, x: float) -> float:
    """Gamma(s, x) for integer s >= 1 via the exact recurrence."""
    if s < 1:
        raise AnalyticError("incomplete gamma needs s >= 1")
    if x <= 0:
        raise AnalyticError("incomplete gamma needs x > 0")
    val = math.exp(-x)
    acc = val  # Gamma(1, x)
    xp = 1.0
    for j in range(1, s):
        xp *= x
        acc = j * acc + xp * val
    return acc


@dataclass(frozen=True)
class LValue:
    """Completed L-value with an absolute error estimate."""

    value: complex
    err: float
    s: int
    level: int
    weight: int


def _tail_bound(k: int, s: float, prefactor: float, beta: float, M: int) -> float:
    """Bound sum_{m>M} 2 m^(k/2) (2 pi m)^(-s) Gamma(s, beta m) * prefactor."""
    m = M + 1
    if beta * m <= 2 * max(s - 1, 1):
        return math.inf
    # Gamma(s, x) <= 2 x^(s-1) e^(-x) once x >= 2(s-1)
    def term(mm: float) -> float:
        return (2 * prefactor * mm ** (k / 2) * (2 * math.pi * mm) ** (-s)
                * 2 * (beta * mm) ** (s - 1) * math.exp(-beta * mm))
    t0 = term(m)
    ratio = term(m + 1) / t0 if t0 > 0 else 0.0
    if ratio >= 1:
        return math.inf
    return t0 / (1 - ratio)


def completed_lvalue(f: NewformData, s: int, terms: int = 200) -> LValue:
    """Lambda(s, f) = (2 pi)^(-s) Gamma(s) L(s, f) for a cusp form.

    Two incomplete-gamma series split at 1/sqrt(N); the functional equation
    side carries i^k * fricke_sign * N^(k/2 - s).
    """
    k, N = f.weight, f.level
    if not 0 < s < k:
        raise AnalyticError("s must lie strictly between 0 and k")
    if not f.is_cuspidal():
        raise AnalyticError("completed_lvalue expects a cusp form")
    terms = min(terms, f.qseries.order)
    beta = 2 * math.pi / math.sqrt(N)
    eps = (1j) ** k * f.fricke_sign
    direct = 0.0 + 0.0j
    dual = 0.0 + 0.0j
    absacc = 0.0
    for m in range(1, terms + 1):
        am = float(f.qseries.coeff(m))
        if am:
            t1 = am * (2 * math.pi * m) ** (-s) * incomplete_gamma(s, beta * m)
            t2 = am * (2 * math.pi * m) ** (s - k) * incomplete_gamma(k - s, beta * m)
            direct += t1
            dual += t2
            absacc += abs(t1) + abs(t2)
    value = direct + eps * N ** (k / 2 - s) * dual
    tail = (_tail_bound(k, s, 1.0, beta, terms)
            + _tail_bound(k, k - s, N ** (k / 2 - s), beta, terms))
    err = tail + 5e-16 * absacc * math.log(terms + 2)
    return LValue(value, err, s, N, k)


# ----------------------------------------------------------------------
# periods and Petersson norms

def period_and_omega(f: NewformData, terms: int = 200) -> tuple:
    """(omega_plus, omega_minus) = (r_{I,w}, -w r_{I,w-1}) as complex values.

    r_{I,n} = i^(n+1) Lambda(n+1, f); raises when the designated period is
    numerically zero, since coset expansions are not available here.
    """
    k = f.weight
    w = k - 2
    if w < 1:
        raise AnalyticError("weights below 3 need the fallback coordinates")
    lp = completed_lvalue(f, w + 1, terms)
    lm = completed_lvalue(f, w, terms)
    omega_plus = (1j) ** (w + 1) * lp.value
    omega_minus = -w * (1j) ** w * lm.value
    for name, val, err in (("omega_plus", omega_plus, lp.err),
                           ("omega_minus", omega_minus, w * lm.err)):
        if abs(val) <= 10 * max(err, 1e-15):
            raise AnalyticError("%s vanishes numerically; no fallback coordinate "
                                "is available" % name)
    return (ApproxComplex(omega_plus, lp.err),
            ApproxComplex(omega_minus, w * lm.err))


def haberland_constant(k: int) -> complex:
    """C_k = -(2i)^(k-1)."""
    return -(2j) ** (k - 1)


def petersson_product(f: NewformData, g: NewformData,
                      Pf: tuple, Pg: tuple, terms: int = 200) -> tuple:
    """(f, g) via the refined Haberland formula 3 C_k (f,g) = {rho^k1, conj rho^k2}.

    Pf, Pg are the exact (plus, minus) eigen-polynomial pairs, normalized by
    the designated coordinates.  Returns (value, per-kappa dictionary); the
    admissible kappa choices are opposite for even weight, equal for odd.
    """
    if (f.level, f.weight) != (g.level, g.weight):
        raise AnalyticError("forms must share level and weight")
    k = f.weight
    of_p, of_m = period_and_omega(f, terms)
    og_p, og_m = period_and_omega(g, terms)
    omegas_f = {"+": of_p.value, "-": of_m.value}
    omegas_g = {"+": og_p.value, "-": og_m.value}
    polys_f = {"+": Pf[0], "-": Pf[1]}
    polys_g = {"+": Pg[0], "-": Pg[1]}
    if k % 2 == 0:
        choices = (("+", "-"), ("-", "+"))
    else:
        choices = (("+", "+"), ("-", "-"))
    results = {}
    for k1, k2 in choices:
        braces = pair_braces(polys_f[k1], polys_g[k2])
        val = (omegas_f[k1] * omegas_g[k2].conjugate() * complex(braces)
               / (3 * haberland_constant(k)))
        results[(k1, k2)] = val
    vals = list(results.values())
    return sum(vals) / len(vals), results


# ----------------------------------------------------------------------
# Manin-style eigenvalue recovery

def manin_coefficient(P_plus: PolyVector, t: GroupRingElement, xy: Optional[tuple] = None):
    """Hecke eigenvalue lambda_n, n = t.n, from the even period polynomial.

    lambda_n = sum over the support, restricted to gcd(c_M, a_M, N) = 1, of
    alpha(M) P+(-c_M, a_M)|M(0), the action of T~_n through Delta_n on P+'s
    own coset space.  For weight 2 the (x, y)-translated form is used.  P+
    must carry the designated normalization.
    """
    space, w = P_plus.space, P_plus.w
    t_ints, t_den = clear_denominators(list(t.coeffs.values()))
    cleared = clear_denominators(P_plus.coords())
    if cleared is None:
        raise AnalyticError("P+ must have rational values")
    p_ints, p_den = cleared
    P = [p_ints[l * (w + 1):(l + 1) * (w + 1)] for l in range(space.size)]
    acc = 0
    if w >= 1:
        if P_plus.values[space.identity_label][0] != 1:
            raise AnalyticError("P+ is not normalized at the designated coordinate")
        for (a, b, c, d), ct in zip(t.coeffs, t_ints):
            hit = space.label_of_row(-c, a)
            if hit is None:
                continue
            l, s = hit
            # P+(-c_M, a_M)|M evaluated at 0: sum p_i b^i d^(w-i), by
            # homogeneous Horner from p_w down
            p = P[l]
            val, dpow = p[w], 1
            for pi in reversed(p[:w]):
                dpow *= d
                val = val * b + pi * dpow
            acc += (ct if s ** w == 1 else -ct) * val
        return Fraction(acc, t_den * p_den)
    # weight 2
    if xy is None:
        xy = space.labels[space.identity_label]
    x, y = xy
    pivot_hit = space.label_of_row(x, y)
    if pivot_hit is None or not P_plus.values[pivot_hit[0]][0]:
        raise AnalyticError("normalization coordinate vanishes")
    if P_plus.values[pivot_hit[0]][0] != 1:
        raise AnalyticError("P+ is not normalized at (x, y)")
    for (a, b, c, d), ct in zip(t.coeffs, t_ints):
        hit = space.label_of_row(x * d - y * c, -x * b + y * a)
        if hit is not None:
            acc += ct * P[hit[0]][0]
    return Fraction(acc, t_den * p_den)


# ----------------------------------------------------------------------
# zeta utilities for the Eisenstein demos

def zeta_numeric(s: float) -> float:
    """zeta(s) for s > 1 by Borwein's alternating-series acceleration."""
    if s <= 1:
        raise AnalyticError("zeta_numeric needs s > 1")
    n = 40
    # d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)
    d = []
    acc = 0
    for i in range(n + 1):
        acc += Fraction(math.factorial(n + i - 1) * 4 ** i,
                        math.factorial(n - i) * math.factorial(2 * i))
        d.append(n * acc)
    dn = float(d[n])
    total = 0.0
    for kk in range(n):
        total += (-1) ** kk * (float(d[kk]) - dn) / (kk + 1) ** s
    return -total / (dn * (1 - 2 ** (1 - s)))


def zeta_negative_odd(m: int) -> Fraction:
    """zeta(1 - 2m) = -B_{2m} / (2m), exact."""
    if m < 1:
        raise AnalyticError("need m >= 1")
    return -bernoulli(2 * m) / (2 * m)


def zeta_prime_negative_even(m: int) -> float:
    """zeta'(-2m) = (-1)^m (2m)! zeta(2m+1) / (2 (2 pi)^(2m))."""
    if m < 1:
        raise AnalyticError("need m >= 1")
    return ((-1) ** m * math.factorial(2 * m) * zeta_numeric(2 * m + 1)
            / (2 * (2 * math.pi) ** (2 * m)))


# ----------------------------------------------------------------------
# Eisenstein period demos

class LogSymbol:
    """Exact element of Q ln2 + Q ln3, the field the Gamma0(6) demo lives in."""

    __slots__ = ("l2", "l3")

    def __init__(self, l2=0, l3=0):
        self.l2 = Fraction(l2)
        self.l3 = Fraction(l3)

    def __add__(self, other):
        return LogSymbol(self.l2 + other.l2, self.l3 + other.l3)

    def __sub__(self, other):
        return LogSymbol(self.l2 - other.l2, self.l3 - other.l3)

    def scale(self, c):
        return LogSymbol(Fraction(c) * self.l2, Fraction(c) * self.l3)

    def __eq__(self, other):
        return self.l2 == other.l2 and self.l3 == other.l3

    def numeric(self) -> float:
        return float(self.l2) * math.log(2) + float(self.l3) * math.log(3)

    def __repr__(self):
        return "LogSymbol(%s ln2 + %s ln3)" % (self.l2, self.l3)


def log_of_rational(a: Fraction) -> LogSymbol:
    """ln(a) for a positive rational supported on primes 2 and 3."""
    a = Fraction(a)
    l2 = l3 = 0
    num, den = a.numerator, a.denominator
    for sign, v in ((1, num), (-1, den)):
        while v % 2 == 0:
            l2 += sign
            v //= 2
        while v % 3 == 0:
            l3 += sign
            v //= 3
        if v != 1:
            raise AnalyticError("demo logs must be 2-3 smooth")
    return LogSymbol(l2, l3)


def lvalue_at_one(pairs: Sequence[tuple]) -> LogSymbol:
    """Apply lim_{s->1} zeta(s) sum c_i a_i^(1-s) = -sum c_i ln a_i.

    ``pairs`` describe L(s, .) / (zeta(s) zeta(s-1)) = sum c_i a_i^(1-s);
    the result is L(1, .) / zeta(0) as an exact log combination.
    """
    total = sum(Fraction(c) for c, _ in pairs)
    if total:
        raise AnalyticError("limit rule needs coefficients summing to zero")
    out = LogSymbol()
    for c, a in pairs:
        out = out - log_of_rational(Fraction(a)).scale(Fraction(c))
    return out


def gamma06_coset_list() -> list:
    """Coset representatives S T^(-i) S {I, U^2, U} for Gamma0(6).

    The i = 3 triple is ordered {U^2, U, I}: that is the order under which
    the published permutation sigma = (3,4,1,2,7,10,5,12,11,6,9,8), the
    conjugation table tau and the cusp classes [A_9] = [A_12],
    [A_6] = [A_7] = [A_11] are all simultaneously consistent.
    """
    from .cosets import MAT_U, MAT_U2, MAT_TINV
    reps = []
    for i in range(4):
        prefix = MAT_S
        for _ in range(i):
            prefix = prefix * MAT_TINV
        prefix = prefix * MAT_S
        tails = (MAT_I, MAT_U2, MAT_U) if i < 3 else (MAT_U2, MAT_U, MAT_I)
        for tail in tails:
            reps.append(prefix * tail)
    return reps


def eisenstein_period_demo(case: str) -> dict:
    """The two worked Eisenstein checks.

    "gamma06": weight-2 demo on Gamma0(6): constants of rho^+(E_2^t) from
    L-value identities at s = 1, decomposition over the coboundary basis,
    and the additivity rho^+(E_2^6) = rho^+(E_2^2) + rho^+(E_2^3).

    "fulllevel:k": the extended period vector of E_k at level one lies in
    the computed Wtilde (numerical membership, read at Wtilde's pivot rows).
    """
    if case == "gamma06":
        return _demo_gamma06()
    if case.startswith("fulllevel"):
        k = int(case.split(":")[1]) if ":" in case else 12
        return _demo_fulllevel(k)
    raise AnalyticError("unknown demo case %r" % case)


def _demo_gamma06() -> dict:
    space = build_coset_space(GAMMA0, 6, 2)
    reps = gamma06_coset_list()
    rep_label = [space.label_of_row(A.c, A.d)[0] for A in reps]
    if sorted(rep_label) != list(range(12)):
        raise AnalyticError("representative list does not cover the cosets")
    pos = {lab: j for j, lab in enumerate(rep_label)}  # label -> 0-based rep index

    # sigma: A_j S = A_{sigma j}; tau: eps-conjugation on rep indices
    sigma = [pos[space.act(rep_label[j], MAT_S)[0]] for j in range(12)]
    tau = [pos[space.eps_conj(rep_label[j])[0]] for j in range(12)]

    # coboundary basis P_1, P_2, P_3 at the cusps of A_1, A_9, A_6
    cusps = space.cusp_classes()
    basis = []
    for anchor in (0, 8, 5):
        ci = cusps.class_of(rep_label[anchor])
        fam = [0] * 12
        for lab in cusps.classes[ci].labels:
            fam[pos[lab]] = 1
        dvec = [fam[j] - fam[sigma[j]] for j in range(12)]
        basis.append(dvec)

    # known d-constants per t, as LogSymbols (the factor C is global)
    ln2, ln3 = LogSymbol(1, 0), LogSymbol(0, 1)
    known = {}
    d1 = {}
    for t in (2, 3, 6):
        d1[t] = lvalue_at_one([(1, 1), (-1, t)])
    # E_2^2 is Gamma0(2)-invariant and E_2^3 is Gamma0(3)-invariant: the
    # e-constants agree with e_1 on representatives inside those groups.
    known[2] = {}
    for j, A in enumerate(reps):
        if A.c % 2 == 0:
            jt = tau[j]
            if reps[jt].c % 2 == 0:
                known[2][j] = d1[2]
    known[3] = {}
    for j, A in enumerate(reps):
        if A.c % 3 == 0:
            jt = tau[j]
            if reps[jt].c % 3 == 0:
                known[3][j] = d1[3]
    # E_2^6: displayed identities at A_9 and A_12 (tau-fixed indices)
    known[6] = {0: d1[6]}
    check(tau[8] == 8 and tau[11] == 11, "A_9 and A_12 must be eps-fixed")
    known[6][8] = lvalue_at_one([(1, 1), (-1, Fraction(3, 2))])
    known[6][11] = lvalue_at_one([(1, 1), (-3, 3), (1, Fraction(3, 2)), (1, 6)])

    # decompose each rho^+(E_2^t) over the basis from the known constants
    coeffs = {}
    for t in (2, 3, 6):
        coeffs[t] = _solve_log_decomposition(basis, known[t])

    recon = {t: [_log_combination(basis, coeffs[t], j) for j in range(12)]
             for t in (2, 3, 6)}
    additivity = all(recon[6][j] == recon[2][j] + recon[3][j] for j in range(12))
    C = -zeta_value_zero() / (2j * math.pi)
    report = {
        "C": C,
        "sigma": [s + 1 for s in sigma],
        "tau": [t + 1 for t in tau],
        "basis_d_vectors": basis,
        "d1": {t: d1[t] for t in (2, 3, 6)},
        "d1_numeric": {t: C * d1[t].numeric() for t in (2, 3, 6)},
        "d9": known[6][8],
        "d9_matches_ln3_minus_ln2": known[6][8] == ln3 - ln2,
        "d12": known[6][11],
        "coefficients": coeffs,
        "additivity_exact": additivity,
        "additivity_residual": max(
            abs(C * (recon[6][j] - recon[2][j] - recon[3][j]).numeric())
            for j in range(12)),
        "d1_residual": max(abs(C * d1[t].numeric() - C * math.log(t)) for t in (2, 3, 6)),
    }
    return report


def zeta_value_zero() -> float:
    return -0.5


def _solve_log_decomposition(basis: list, known: dict) -> list:
    """Exact solve of sum x_i basis_i = d on the known coordinates, whose
    solution must be unique."""
    keys = sorted(known)
    m = DenseMatrix(QQ, [[Fraction(b[j]) for b in basis] for j in keys])
    xs = solve_columns(m, [[getattr(known[j], comp) for j in keys] for comp in ("l2", "l3")])
    if xs is None:
        raise AnalyticError("inconsistent decomposition system")
    if m.rank() != m.ncols:
        raise AnalyticError("decomposition is not unique; add more constants")
    return [LogSymbol(a, b) for a, b in zip(*xs)]


def _log_combination(basis: list, coeffs: list, j: int) -> LogSymbol:
    out = LogSymbol()
    for x, b in zip(coeffs, basis):
        out = out + x.scale(b[j])
    return out


def _demo_fulllevel(k: int) -> dict:
    if k % 2 or k < 4:
        raise AnalyticError("full-level demo needs even k >= 4")
    w = k - 2
    space = build_coset_space(GAMMA0, 1, k)
    wtilde = build_W_extended(space, w)
    # L(n+1, E_k) = zeta(n+1) zeta(n+2-k); n = 0 uses the pole/zero limit
    lvals = []
    for n_ in range(0, w + 1):
        s2 = n_ + 2 - k
        if n_ == 0:
            # zeta(s) pole meets the trivial zero zeta(2-k) = 0
            lv = zeta_prime_negative_even((k - 2) // 2)
        else:
            first = zeta_numeric(n_ + 1)
            if s2 == 0:
                second = zeta_value_zero()
            elif s2 % 2 == 0:
                second = 0.0  # trivial zero at negative even
            else:
                second = float(zeta_negative_odd((1 - s2) // 2))
            lv = first * second
        lvals.append(lv)
    rho = [0j] * (w + 1)
    for n_ in range(w + 1):
        r = (-1) ** (n_ + 1) * math.factorial(n_) / (2j * math.pi) ** (n_ + 1) * lvals[n_]
        rho[w - n_] += (-1) ** (w - n_) * math.comb(w, n_) * r
    a0 = -bernoulli(k) / (2 * k)
    c = (-1) ** w * float(a0) / (w + 1)
    vec = [c * (-1) ** w] + list(rho) + [c]
    # each basis column is 1 at its own pivot row and 0 at the others, so
    # the member of Wtilde that agrees with vec at the pivot rows is B times
    # those entries: a member of Wtilde leaves exactly 0, any other vector
    # at least its least-squares distance to Wtilde
    proj = wtilde.basis.apply([vec[p] for p in wtilde.pivot_rows])
    resid = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(vec, proj)))
    return {
        "k": k,
        "dim_wtilde": wtilde.dim,
        "vector_norm": math.sqrt(sum(abs(v) ** 2 for v in vec)),
        "residual": resid,
    }
