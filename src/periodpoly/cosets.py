"""Coset spaces of congruence subgroups inside SL2(Z).

Cosets of Gamma0(N) are labelled by the projective line P^1(Z/N), cosets of
Gamma1(N) by a fixed section of E_N = {(c,d): gcd(c,d,N)=1} modulo +-1.
Lookup of a right action is always by bottom-row congruence, never by
decomposing the acting matrix into generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional

from .exactalg import CyclotomicField, PeriodPolyError, check

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
              ("U2", MAT_U2), ("J", MAT_J), ("eps", MAT_EPS), ("Sinv", MAT_SINV),
              ("Uinv", MAT_UINV), ("U2inv", MAT_U2INV))


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
    labels: tuple            # coset labels in the T-orbit
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


def _compose(first: tuple, then: tuple) -> tuple:
    """The table of g h from the table of g and the table of h: the action is
    a right action, and the signs multiply."""
    return tuple((then[l][0], s * then[l][1]) for l, s in first)


class CosetSpace:
    """Enumerated cosets of Gamma0(N) or Gamma1(N) with action tables.

    S and T generate SL2(Z), so the cosets form one orbit under their right
    action: one walk from the identity coset finds every label and the S
    and T tables, normalizing each label's row once per generator.  The
    other SL2(Z) tables are compositions of these two; only eps, outside
    SL2(Z), is normalized per label.  Immutable after construction; the
    tables map a label to (label, sign) pairs, the sign recording a +-1
    normalization for the Gamma1 / odd-weight bookkeeping (always +1 for
    Gamma0).
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
        self._build()
        self._cusps: Optional[CuspSet] = None

    # -- construction ---------------------------------------------------

    def _build(self):
        """Labels, lifts, the identity label and every table, by one walk of
        the right action of S and T from the identity coset."""
        N = self.N
        if self.kind == GAMMA0:
            def normal_form(c, d):
                return p1_normalize(N, c, d), 1
        else:
            normal_form = self._e_normalize
        start = normal_form(0, 1)[0]
        # label -> its (image, sign) under S and under T; a label is its own
        # bottom row, and (c, d) S = (d, -c), (c, d) T = (c, c + d)
        steps = {start: None}
        walk = [start]
        for c, d in walk:
            images = steps[(c, d)] = (normal_form(d, -c), normal_form(c, c + d))
            for lab, _ in images:
                if lab not in steps:
                    steps[lab] = None
                    walk.append(lab)
        self.labels = tuple(sorted(steps))
        self.size = len(self.labels)
        self.index = self.size  # projectivized index [Gbar_1 : Gbar]
        self._label_pos = pos = {lab: i for i, lab in enumerate(self.labels)}
        if self.kind == GAMMA0:
            self._index_ratios()
        self.lifts = tuple(lift_to_sl2z(c, d, N) if N > 1 else MAT_I
                           for (c, d) in self.labels)
        self.identity_label = pos[start]
        S = tuple((pos[lab], s) for (lab, s), _ in map(steps.get, self.labels))
        T = tuple((pos[lab], s) for _, (lab, s) in map(steps.get, self.labels))
        tinv = [None] * self.size
        for i, (j, s) in enumerate(T):
            tinv[j] = (i, s)
        U = _compose(T, S)
        U2 = _compose(U, U)
        J = _compose(S, S)
        eps = tuple(self.act(i, MAT_EPS) for i in range(self.size))
        # g^(-1) = h J for the table h: S^(-1) = S J, U^(-1) = U^2 J, U^(-2) = U J
        tables = (S, T, tuple(tinv), U, U2, J, eps,
                  _compose(S, J), _compose(U2, J), _compose(U, J))
        self.tables = {name: t for (name, _), t in zip(_TABULATED, tables)}
        self._table_of = {g: t for (_, g), t in zip(_TABULATED, tables)}

    def _index_ratios(self):
        """Cremona's direct lookup in P^1(Z/N): a unit d gives (c:d) = (c/d : 1).

        ``_unit_inv[d]`` is d^-1 mod N, or None when d is not a unit, and
        ``_ratio_label[x]`` is the label of (x : 1), read off the labels
        (g : v) with v a unit, x = g v^-1.  Every x mod N needs a label.
        """
        N = self.N
        self._unit_inv = inv = [pow(d, -1, N) if math.gcd(d, N) == 1 else None
                                for d in range(N)]
        ratio = [None] * N
        for i, (g, v) in enumerate(self.labels):
            if inv[v] is not None:
                ratio[g * inv[v] % N] = i
        check(None not in ratio, "a point (x : 1) of P^1(Z/%d) has no label" % N)
        self._ratio_label = ratio

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
            inv = self._unit_inv[d % self.N]
            if inv is not None:
                return self._ratio_label[c * inv % self.N], 1
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
        """Partition of the labels into cusps, the cycles of T.

        J fixes every label, so no two T-cycles meet under J.  Each cycle is
        walked once from its least label, multiplying the T signs: the cusp
        is regular when the product is +1 (A T^h = gamma A, not -gamma A)
        and the group does not contain -1.
        """
        if self._cusps is not None:
            return self._cusps
        ttab = self.tables["T"]
        minus_one = self.contains_minus_one()
        seen = [False] * self.size
        classes = []
        for start in range(self.size):
            if seen[start]:
                continue
            orbit, sign, i = [], 1, start
            while not seen[i]:
                seen[i] = True
                orbit.append(i)
                i, s = ttab[i]
                sign *= s
            classes.append(CuspClass(tuple(sorted(orbit)), start, len(orbit),
                                     sign == 1 and not minus_one))
        self._cusps = CuspSet(tuple(classes))
        return self._cusps

    def contains_minus_one(self) -> bool:
        return self.kind == GAMMA0 or self.N <= 2

    def __repr__(self):
        return "CosetSpace(%s, N=%d, k=%d, size=%d)" % (self.kind, self.N, self.k, self.size)


def build_coset_space(kind: str, N: int, k: int) -> CosetSpace:
    """Enumerate Gamma \\ SL2(Z) with action, eps and cusp structure."""
    return CosetSpace(kind, N, k)


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
        for p, _ in _factor(N):
            out = out // p * (p + 1)
        return out
    if N <= 2:
        return (1, 3)[N - 1]
    out = N * N
    for p, _ in _factor(N):
        out = out // (p * p) * (p * p - 1)
    return out // 2


def _factor(n: int) -> list:
    """The prime factorization of n >= 1 as [(p, e)], by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _euler_phi(n: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _factor(n))


# ----------------------------------------------------------------------
# Dirichlet characters

class Character:
    """Dirichlet character mod N of exact order m, held as integer exponents.

    ``exponents`` maps each unit a mod N (a residue in range(N), so 0 when
    N = 1) to e(a) mod m with chi(a) = zeta_m^e(a).  The constructor checks,
    in integers: the table covers the units, e(1) = 0, gcd(m, all e) = 1
    (m is the exact order) and e(a g) = e(a) + e(g) mod m for every unit a
    and every generator g of (Z/N)*, which gives multiplicativity.  Values
    are built only when asked for: a Fraction when m = 1, otherwise
    ``field.zeta_power(e)`` in Q(zeta_m).
    """

    def __init__(self, N: int, order: int, exponents: dict):
        if N < 1 or order < 1:
            raise CosetError("a character needs N >= 1 and order >= 1")
        if (len(exponents) != _euler_phi(N)
                or any(not 0 <= a < N or math.gcd(a, N) != 1 for a in exponents)):
            raise CosetError("exponent table must cover the units mod N")
        exps = {a: exponents[a] % order for a in sorted(exponents)}
        if exps[1 % N]:
            raise CosetError("exponent table has e(1) != 0")
        if math.gcd(order, *exps.values()) != 1:
            raise CosetError("%d is not the exact order of the character" % order)
        for g, _ in _unit_group_generators(N):
            if any(exps[a * g % N] != (e + exps[g]) % order for a, e in exps.items()):
                raise CosetError("exponent table is not multiplicative")
        self.N = N
        self.order = order
        self.field = CyclotomicField(order) if order > 1 else None
        self.exponents = MappingProxyType(exps)

    @property
    def values(self) -> MappingProxyType:
        """chi(a) for each unit a mod N, built on each access."""
        return MappingProxyType({a: self(a) for a in self.exponents})

    def __call__(self, a: int):
        a %= self.N
        if math.gcd(a, self.N) != 1:
            raise CosetError("character evaluated off the unit group")
        if self.field is None:
            return Fraction(1)
        return self.field.zeta_power(self.exponents[a])

    def is_even_for_weight(self, k: int) -> bool:
        """chi(-1) == (-1)^k, the parity condition for weight-k spaces."""
        return 2 * self.exponents[-1 % self.N] == k % 2 * self.order

    def conjugate(self) -> "Character":
        return Character(self.N, self.order, {a: -e for a, e in self.exponents.items()})

    def is_trivial(self) -> bool:
        return self.order == 1


def dirichlet_characters(N: int) -> list:
    """All Dirichlet characters mod N, from one discrete-log table.

    For generators g_i of (Z/N)* of orders o_i, one walk over the products
    prod g_i^l_i gives the logs l_i(a) of every unit a.  The exponent
    vector (e_i), enumerated with the last entry running fastest, gives the
    character of order m = lcm(o_i / gcd(o_i, e_i)) with
    e(a) = sum (e_i m / o_i) l_i(a) mod m.
    """
    gens = _unit_group_generators(N)
    logs = {1 % N: ()}
    for g, order in gens:
        walked = {}
        for a, l in logs.items():
            for j in range(order):
                walked[a] = l + (j,)
                a = a * g % N  # the next unit along g's cycle
        logs = walked
    chars = []
    for expo in itertools.product(*(range(order) for _, order in gens)):
        m = math.lcm(*(order // math.gcd(order, e) for (_, order), e in zip(gens, expo)))
        coeffs = [e * m // order for (_, order), e in zip(gens, expo)]
        chars.append(Character(N, m, {a: sum(c * x for c, x in zip(coeffs, l)) % m
                                      for a, l in logs.items()}))
    return chars


def _unit_group_generators(N: int) -> list:
    """Generators (g, order) of (Z/N)*, via CRT over prime powers."""
    gens = []
    for p, e in _factor(N):
        q = p ** e
        if p != 2:
            locals_gens = [(_primitive_root(q), q - q // p)]
        elif e == 1:
            continue
        else:
            locals_gens = [(q - 1, 2)] + ([(5, q // 4)] if e >= 3 else [])
        for g, order in locals_gens:
            # lift g to be 1 mod N/q
            gens.append((_crt(g, q, 1, N // q), order))
    return gens


def _primitive_root(q: int) -> int:
    """The least primitive root mod q, an odd prime power."""
    phi = _euler_phi(q)
    fac = [p for p, _ in _factor(phi)]
    return next(g for g in range(2, q)
                if math.gcd(g, q) == 1 and all(pow(g, phi // f, q) != 1 for f in fac))


def _crt(a1: int, m1: int, a2: int, m2: int) -> int:
    g, x, _ = _xgcd(m1, m2)
    check(g == 1, "CRT moduli are not coprime")
    return (a1 + (a2 - a1) * x % m2 * m1) % (m1 * m2)
