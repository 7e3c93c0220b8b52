"""Coset spaces of congruence subgroups inside SL2(Z).

Cosets of Gamma0(N) are labelled by the projective line P^1(Z/N), cosets of
Gamma1(N) by a fixed section of E_N = {(c,d): gcd(c,d,N)=1} modulo +-1.
Lookup of a right action is always by bottom-row congruence, never by
decomposing the acting matrix into generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactalg import CyclotomicField, Cyclotomic, PeriodPolyError, check

GAMMA0 = "gamma0"
GAMMA1 = "gamma1"


class CosetError(PeriodPolyError):
    pass


class Mat2(NamedTuple):
    """2x2 integer matrix, row-major."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def vee(self) -> "Mat2":
        """The adjoint g^vee = g^(-1) det(g)."""
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inverse(self) -> "Mat2":
        if self.det() != 1:
            raise CosetError("inverse only for determinant-1 matrices")
        return self.vee()

    def canonical_pm(self) -> "Mat2":
        """Representative mod +-1: first nonzero of (c, d, a, b) positive."""
        for x in (self.c, self.d, self.a, self.b):
            if x > 0:
                return self
            if x < 0:
                return -self
        return self

    def eps_conj(self) -> "Mat2":
        """Conjugate by eps = diag(-1, 1)."""
        return Mat2(self.a, -self.b, -self.c, self.d)

    def __pow__(self, n: int) -> "Mat2":
        out = MAT_I
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out


MAT_I = Mat2(1, 0, 0, 1)
MAT_S = Mat2(0, -1, 1, 0)
MAT_T = Mat2(1, 1, 0, 1)
MAT_TINV = Mat2(1, -1, 0, 1)
MAT_U = MAT_T * MAT_S          # (1 -1; 1 0), U^3 = J
MAT_U2 = MAT_U * MAT_U
MAT_J = Mat2(-1, 0, 0, -1)
MAT_EPS = Mat2(-1, 0, 0, 1)
MAT_SINV = MAT_S.inverse()
MAT_UINV = MAT_U.inverse()
MAT_U2INV = MAT_U2.inverse()

# Right actions tabulated on every coset space, by table name.  Right
# multiplication by eps and conjugation by eps give the same bottom row.
_TABULATED = (("S", MAT_S), ("T", MAT_T), ("Tinv", MAT_TINV), ("U", MAT_U),
              ("U2", MAT_U2), ("J", MAT_J), ("eps", MAT_EPS))
# g^(-1) = h J for the table h: S^(-1) = S J, U^(-1) = U^2 J, U^(-2) = U J
_INVERSES = (("Sinv", MAT_SINV, "S"), ("Uinv", MAT_UINV, "U2"),
             ("U2inv", MAT_U2INV, "U"))


def _xgcd(a: int, b: int) -> tuple:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def p1_normalize(N: int, u: int, v: int) -> Optional[tuple]:
    """Canonical representative of (u:v) in P^1(Z/N); None if not primitive."""
    if N == 1:
        return (0, 0)
    u %= N
    v %= N
    if u == 0:
        return (0, 1) if math.gcd(v, N) == 1 else None
    g, s, _ = _xgcd(u, N)
    if math.gcd(g, v) > 1:
        return None
    s %= N
    if g != 1:
        d = N // g
        while math.gcd(s, N) != 1:
            s = (s + d) % N
    v = (s * v) % N
    # minimize v over units t = 1 mod N/g
    if g != 1:
        Ng = N // g
        vNg = (v * Ng) % N
        t = 1
        best_v = v
        for _ in range(2, g + 1):
            v = (v + vNg) % N
            t = (t + Ng) % N
            if v < best_v and math.gcd(t, N) == 1:
                best_v = v
        v = best_v
    return (g, v)


def lift_to_sl2z(c: int, d: int, N: int) -> Mat2:
    """An SL2(Z) matrix whose bottom row is congruent to (c, d) mod N."""
    c %= N
    d %= N
    if N == 1:
        return MAT_I
    if c == 0 and d == 0:
        raise CosetError("cannot lift (0,0)")
    # adjust d so gcd(c, d) = 1 (possible since gcd(c, d, N) = 1)
    if c == 0:
        c = N
    dd = d
    while math.gcd(c, dd) != 1:
        dd += N
    g, x, y = _xgcd(dd, -c)
    if g < 0:
        g, x, y = -g, -x, -y
    check(g == 1, "lifted bottom row is not coprime")
    return Mat2(x, y, c, dd)


@dataclass(frozen=True)
class CuspClass:
    labels: tuple            # coset labels in the T-orbit (merged under J)
    representative: int      # distinguished label
    width: int
    regular: bool


@dataclass(frozen=True)
class CuspSet:
    classes: tuple
    # label -> index of its class, built once from ``classes``
    _class_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_class_index", {
            l: i for i, cl in enumerate(self.classes) for l in cl.labels})

    def __len__(self):
        return len(self.classes)

    def class_of(self, label: int) -> int:
        try:
            return self._class_index[label]
        except KeyError:
            raise CosetError("label not in any cusp class") from None


class CosetSpace:
    """Enumerated cosets of Gamma0(N) or Gamma1(N) with action tables.

    Immutable after construction; the tables map a label to
    (label, sign) pairs, the sign recording a +-1 normalization for the
    Gamma1 / odd-weight bookkeeping (always +1 for Gamma0).
    """

    def __init__(self, kind: str, N: int, k: int):
        if N < 1:
            raise CosetError("level must be >= 1")
        if k < 2:
            raise CosetError("weight must be >= 2")
        if kind not in (GAMMA0, GAMMA1):
            raise CosetError("unknown group kind %r" % kind)
        self.kind = kind
        self.N = N
        self.k = k
        self.w = k - 2
        # -1 in the group forces all odd-weight spaces to vanish
        self.degenerate = (k % 2 == 1) and (kind == GAMMA0 or N <= 2)
        self._build_labels()
        self._build_tables()
        self._cusps: Optional[CuspSet] = None

    # -- construction ---------------------------------------------------

    def _build_labels(self):
        """Labels, positions, lifts and the identity label.

        For Gamma0 only rows (g, v) with g | N are normalized, d(N) N calls
        in place of N^2: a primitive (u, v) has g = gcd(u, N) dividing N and
        u = g u' with gcd(u', N/g) = 1, so a unit t = u'^(-1) mod N/g, lifted
        to a unit mod N, gives t (u, v) = (g, t v), in the same class.
        g = N stands for u = 0.
        """
        N = self.N
        labels = set()
        if self.kind == GAMMA0:
            for u in _divisors(N):
                for v in range(N):
                    p = p1_normalize(N, u, v)
                    if p is not None:
                        labels.add(p)
        else:
            for c in range(N):
                for d in range(N):
                    if math.gcd(math.gcd(c, d), N) == 1:
                        labels.add(self._e_normalize(c, d)[0])
        self.labels = tuple(sorted(labels))
        self.size = len(self.labels)
        self.index = self.size  # projectivized index [Gbar_1 : Gbar]
        self._label_pos = {lab: i for i, lab in enumerate(self.labels)}
        self.lifts = tuple(lift_to_sl2z(c, d, N) if N > 1 else MAT_I
                           for (c, d) in self.labels)
        self.identity_label = self._normalize(0, 1)[0]

    def _e_normalize(self, c: int, d: int) -> tuple:
        """Section of E_N mod +-1: lexicographically smaller of (c,d), (-c,-d)."""
        N = self.N
        c %= N
        d %= N
        neg = ((-c) % N, (-d) % N)
        if (c, d) <= neg:
            return (c, d), 1
        return neg, -1

    def _normalize(self, c: int, d: int) -> tuple:
        """Label and sign for a bottom row (c, d); raises if not primitive."""
        hit = self.label_of_row(c, d)
        if hit is None:
            raise CosetError("bottom row (%d, %d) not primitive mod %d" % (c, d, self.N))
        return hit

    def _build_tables(self):
        self.tables = {name: tuple(self.act(i, g) for i in range(self.size))
                       for name, g in _TABULATED}
        jtab = self.tables["J"]
        for name, _, h in _INVERSES:
            # J fixes every label and contributes only its sign
            self.tables[name] = tuple((l, s * jtab[l][1]) for l, s in self.tables[h])
        self._table_of = {g: self.tables[name] for name, g in _TABULATED}
        self._table_of.update((g, self.tables[name]) for name, g, _ in _INVERSES)

    def _bottom_row(self, i: int) -> tuple:
        lab = self.labels[i]
        if self.kind == GAMMA0 and self.N == 1:
            return (0, 1)
        return lab

    # -- queries ----------------------------------------------------------

    def label_str(self, i: int) -> str:
        c, d = self.labels[i]
        if self.kind == GAMMA0:
            return "(%d:%d)" % (c, d)
        return "(%d,%d)" % (c, d)

    def label_from_str(self, s: str) -> int:
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise CosetError("bad label %r" % s)
        sep = ":" if self.kind == GAMMA0 else ","
        c, d = (int(t) for t in s[1:-1].split(sep))
        return self._normalize(c, d)[0]

    def act(self, i: int, g: Mat2) -> tuple:
        """Label and sign of (lift of label i) * g for g in SL2(Z)."""
        if abs(g.det()) != 1:
            raise CosetError("action is restricted to |det| = 1")
        c, d = self._bottom_row(i)
        return self._normalize(c * g.a + d * g.c, c * g.b + d * g.d)

    def signed_act(self, i: int, g: Mat2, w: int) -> tuple:
        """Label of (lift of label i) * g and the weight sign s**w.

        A label carries its lift only up to the sign s; a polynomial vector
        of weight w reads P(-A) = (-1)^w P(A), so the value at A g is
        s**w times the value at the returned label.  The generators S, T,
        U, U^2, J, their inverses and eps are read from the tables.
        """
        table = self._table_of.get(g)
        l, s = self.act(i, g) if table is None else table[i]
        return l, s ** w

    def label_of_row(self, c: int, d: int) -> tuple:
        """Label and sign of the coset with bottom row (c, d); None if absent."""
        if self.kind == GAMMA0:
            p = p1_normalize(self.N, c, d)
            if p is None:
                return None
            return self._label_pos[p], 1
        if math.gcd(math.gcd(c % self.N, d % self.N), self.N) != 1:
            return None
        lab, sign = self._e_normalize(c, d)
        return self._label_pos[lab], sign

    def eps_conj(self, i: int) -> tuple:
        return self.tables["eps"][i]

    def cusp_classes(self) -> CuspSet:
        """Partition of the labels into cusps (T-orbits merged under J)."""
        if self._cusps is not None:
            return self._cusps
        ttab = self.tables["T"]
        jtab = self.tables["J"]
        seen = set()
        classes = []
        for start in range(self.size):
            if start in seen:
                continue
            orbit = []
            i = start
            while i not in seen:
                seen.add(i)
                orbit.append(i)
                i = ttab[i][0]
            merged = set(orbit)
            for j in orbit:
                merged.add(jtab[j][0])
            width = len(orbit)
            classes.append(CuspClass(tuple(sorted(merged)), min(merged), width,
                                     self._is_regular(start)))
        self._cusps = CuspSet(tuple(classes))
        return self._cusps

    def _is_regular(self, i: int) -> bool:
        """Whether the <T>+ double cosets of A and AJ are distinct.

        Tracked through signs: going once around the T-orbit of the label
        returns to it; the cusp is regular iff the accumulated sign is +1
        and J itself does not map the orbit to itself with a flip.
        For groups containing -1 every cusp compares equal (irregular in
        the double-coset sense used here).
        """
        if self.contains_minus_one():
            return False
        # follow A, AT, AT^2, ... until the label repeats; the sign on
        # return tells whether A T^h = gamma A (regular) or -gamma A.
        ttab = self.tables["T"]
        j, sign = ttab[i]
        while j != i:
            j2, s2 = ttab[j]
            j, sign = j2, sign * s2
        return sign == 1

    def contains_minus_one(self) -> bool:
        return self.kind == GAMMA0 or self.N <= 2

    def __repr__(self):
        return "CosetSpace(%s, N=%d, k=%d, size=%d)" % (self.kind, self.N, self.k, self.size)


def build_coset_space(kind: str, N: int, k: int) -> CosetSpace:
    """Enumerate Gamma \\ SL2(Z) with action, eps and cusp structure."""
    return CosetSpace(kind, N, k)


def act_coset(space: CosetSpace, label: int, g: Mat2) -> tuple:
    return space.act(label, g)


def cusp_classes(space: CosetSpace) -> CuspSet:
    return space.cusp_classes()


def classical_cusp_count_gamma0(N: int) -> int:
    """sum over d | N of phi(gcd(d, N/d)) — the textbook count for Gamma0(N)."""
    return sum(_euler_phi(math.gcd(d, N // d)) for d in _divisors(N))


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def coset_index(kind: str, N: int) -> int:
    """``CosetSpace(kind, N, k).size`` from the primes of N, building nothing.

    N prod_(p | N) (1 + 1/p) for Gamma0; N^2 prod_(p | N) (1 - 1/p^2) / 2
    for Gamma1 with N >= 3, whose labels are taken modulo +-1; 1 and 3 for
    Gamma1(1) and Gamma1(2), which contain -1.
    """
    if kind == GAMMA0:
        out = N
        for p in _prime_divisors(N):
            out = out // p * (p + 1)
        return out
    if N <= 2:
        return (1, 3)[N - 1]
    out = N * N
    for p in _prime_divisors(N):
        out = out // (p * p) * (p * p - 1)
    return out // 2


def _prime_divisors(n: int) -> list:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _euler_phi(n: int) -> int:
    out = n
    for p in _prime_divisors(n):
        out -= out // p
    return out


# ----------------------------------------------------------------------
# Dirichlet characters

class Character:
    """Dirichlet character mod N with values in Q(zeta_m), m = order."""

    def __init__(self, N: int, values: dict):
        self.N = N
        units = [a for a in range(1, N + 1) if math.gcd(a, N) == 1] or [1]
        if sorted(values) != sorted(a % N for a in units):
            raise CosetError("value table must cover the units mod N")
        self.order = _lcm_list([_root_of_unity_order(v) for v in values.values()])
        self.field = CyclotomicField(self.order) if self.order > 1 else None
        self.values = {a: self._embed(v) for a, v in values.items()}
        for a in values:
            for b in values:
                if self(a) * self(b) != self(a * b):
                    raise CosetError("value table is not multiplicative")

    def _embed(self, v):
        if self.field is None:
            return Fraction(v) if not isinstance(v, Cyclotomic) else v.rational_part()
        if isinstance(v, Cyclotomic):
            if v.field.conductor == self.order:
                return v
            # embed zeta_d into zeta_m via zeta_d = zeta_m^(m/d)
            m, d = self.order, v.field.conductor
            out = self.field.zero
            for j, cj in enumerate(v.coeffs):
                if cj:
                    out = out + cj * self.field.zeta_power(j * (m // d))
            return out
        return self.field.of(v)

    def __call__(self, a: int):
        a %= self.N
        if math.gcd(a, self.N) != 1:
            raise CosetError("character evaluated off the unit group")
        return self.values[a]

    def is_even_for_weight(self, k: int) -> bool:
        """chi(-1) == (-1)^k, the parity condition for weight-k spaces."""
        one = Fraction(1) if self.field is None else self.field.one
        sign = one if k % 2 == 0 else -one
        return self(self.N - 1 if self.N > 1 else 1) == sign

    def conjugate(self) -> "Character":
        vals = {a: (v.conjugate() if isinstance(v, Cyclotomic) else v)
                for a, v in self.values.items()}
        return Character(self.N, vals)

    def is_trivial(self) -> bool:
        return self.order == 1


def _lcm_list(xs) -> int:
    out = 1
    for x in xs:
        out = out * x // math.gcd(out, x)
    return out


def _root_of_unity_order(v) -> int:
    """Multiplicative order of a character value; bounded by its conductor."""
    if isinstance(v, Cyclotomic):
        bound = 2 * v.field.conductor
        one = v.field.one
    else:
        v = Fraction(v)
        bound = 2
        one = Fraction(1)
    p = v
    for m in range(1, bound + 1):
        if p == one:
            return m
        p = p * v
    raise CosetError("character value is not a root of unity")


def dirichlet_characters(N: int) -> list:
    """All Dirichlet characters mod N, built from a basis of the unit group."""
    units = [a for a in range(1, N + 1) if math.gcd(a, N) == 1] or [1]
    gens = _unit_group_generators(N)
    chars = []
    exponents = [[0] * len(gens)]
    for i, (_, order) in enumerate(gens):
        exponents = [e[:i] + [j] + e[i + 1:] for e in exponents for j in range(order)]
    log_table = {a: _unit_decompose(a, gens, N) for a in units}
    for expo in exponents:
        m = 1
        for (g, order), e in zip(gens, expo):
            d = order // math.gcd(order, e) if e else 1
            m = m * d // math.gcd(m, d)
        K = CyclotomicField(m) if m > 1 else None
        values = {}
        for a in units:
            t = Fraction(0)
            for (g, order), e, l in zip(gens, expo, log_table[a]):
                t += Fraction(e * l, order)
            t -= math.floor(t)
            if K is None:
                if t not in (0, Fraction(1, 2)):
                    raise CosetError("order bookkeeping error")
                values[a] = Fraction(1) if t == 0 else Fraction(-1)
            else:
                values[a] = K.zeta_power(int(t * m))
        chars.append(Character(N, values))
    return chars


def _unit_group_generators(N: int) -> list:
    """Generators (g, order) of (Z/N)*, via CRT over prime powers."""
    if N <= 2:
        return []
    factors = []
    m = N
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    gens = []
    for p, e in factors:
        q = p ** e
        rest = N // q
        if p == 2:
            if e == 1:
                continue
            locals_gens = [(q - 1, 2)]
            if e >= 3:
                locals_gens.append((5, 2 ** (e - 2)))
        else:
            g = _primitive_root(q)
            locals_gens = [(g, _euler_phi(q))]
        for g, order in locals_gens:
            # lift g to be 1 mod N/q
            lifted = _crt(g, q, 1, rest)
            gens.append((lifted % N, order))
    return gens


def _primitive_root(q: int) -> int:
    phi = _euler_phi(q)
    fac = set()
    m = phi
    p = 2
    while p * p <= m:
        while m % p == 0:
            fac.add(p)
            m //= p
        p += 1
    if m > 1:
        fac.add(m)
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // f, q) != 1 for f in fac):
            return g
    raise CosetError("no primitive root mod %d" % q)


def _crt(a1: int, m1: int, a2: int, m2: int) -> int:
    g, x, _ = _xgcd(m1, m2)
    check(g == 1, "CRT moduli are not coprime")
    return (a1 + (a2 - a1) * x % m2 * m1) % (m1 * m2)


def _unit_decompose(a: int, gens: list, N: int) -> list:
    """Exponents of a over the generator list (brute force, N is small)."""
    logs = _decompose_rec(a % N, gens, N)
    if logs is None:
        raise CosetError("unit decomposition failed")
    return logs


def _decompose_rec(a: int, gens: list, N: int):
    if not gens:
        return [] if a % N == 1 else None
    g, order = gens[0]
    ginv = pow(g, -1, N)
    for l in range(order):
        rest = _decompose_rec(a * pow(ginv, l, N) % N, gens[1:], N)
        if rest is not None:
            return [l] + rest
    return None
