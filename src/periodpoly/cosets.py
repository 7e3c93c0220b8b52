"""Coset spaces of congruence subgroups inside SL2(Z).

Cosets of Gamma0(N) are labelled by the projective line P^1(Z/N), cosets of
Gamma1(N) by a fixed section of E_N = {(c,d): gcd(c,d,N)=1} modulo +-1.
Both label sets are enumerated directly (Cremona 1997, 2.2), and the label
of a bottom row is read from lookup tables in O(1).  Lookup of a right
action is always by bottom-row congruence, never by decomposing the acting
matrix into generators.
"""

from __future__ import annotations

import functools
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


def _p1_block(N: int, g: int) -> list:
    """The sorted v of the points (g : v) of P^1(Z/N), g a divisor of N.

    One point per residue r mod M = N/g prime to gcd(g, M): the units = 1
    mod M carry v to every x = r mod M prime to g, and v is the least.
    """
    M, h = N // g, math.gcd(g, N // g)
    out = []
    for r in range(M):
        if h == 1 or math.gcd(r, h) == 1:
            while math.gcd(r, g) != 1:
                r += M
            out.append(r)
    return sorted(out)


class CosetSpace:
    """Enumerated cosets of Gamma0(N) or Gamma1(N) with action tables.

    The labels are enumerated directly, in sorted order: the points (g : v)
    of P^1(Z/N), one block per divisor g of N, for Gamma0, and the rows
    (c, d) of E_N with (c, d) <= (-c, -d) for Gamma1.  Immutable after
    construction, except that the lifts are built on first read.  The
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
        """Labels, the identity label and every table, with three exact checks
        kept under -O: the label count is the index, and S^2 = -I and
        U^3 = -I fix every label with the sign of -I.  S, T and eps read the
        rows (d, -c), (c, c + d) and (-c, d) of a label (c, d) through one
        O(1) normal form each; U and U^2 compose S and T, and the inverses
        take a sign."""
        N = self.N
        if self.kind == GAMMA0:
            # g = N first: its point (0 : 1), or (0 : 0) at N = 1, is the least
            blocks = [(g, _p1_block(N, g)) for g in [N] + _divisors(N)[:-1]]
            self.labels = tuple((g % N, v) for g, vs in blocks for v in vs)
        else:
            # (c, d) <= (-c, -d): c < N/2, or c = -c mod N and d <= -d
            self.labels = tuple((c, d) for c in range(N // 2 + 1) for d in range(N)
                                if math.gcd(c, d, N) == 1 and (2 * c % N or d <= -d % N))
        self.size = self.index = len(self.labels)  # projectivized index [Gbar_1 : Gbar]
        check(self.size == (index := coset_index(self.kind, N)),
              "%s(%d) has %d labels, not its index %d" % (self.kind, N, self.size, index))
        self.identity_label = 0  # (0, 1), or (0, 0) at level 1, is the least label
        if self.kind == GAMMA0:
            S, T, eps = self._gamma0_tables(blocks)
        else:
            pos, norm = self._label_pos, self._e_normalize
            rows = zip(*[((d, -c), (c, c + d), (-c, d)) for c, d in self.labels])
            S, T, eps = (tuple((pos[lab], s) for lab, s in itertools.starmap(norm, col))
                         for col in rows)
        tinv = [None] * self.size
        for i, (j, s) in enumerate(T):
            tinv[j] = (i, s)
        U = _compose(T, S)
        U2 = _compose(U, U)
        # S^2 = U^3 = -I fix every label with the sign of -I: +1 when -1 lies
        # in the group, -1 on Gamma1(N) for N >= 3
        sign = 1 if self.kind == GAMMA0 or N <= 2 else -1
        J = tuple((l, sign) for l in range(self.size))
        check(_compose(S, S) == J, "S^2 = -I moves a label of %s(%d) or gives it a sign "
                                   "other than %+d" % (self.kind, N, sign))
        check(_compose(U2, U) == J, "U^3 = -I moves a label of %s(%d) or gives it a sign "
                                    "other than %+d" % (self.kind, N, sign))
        # g^(-1) = h J for the table h: S^(-1) = S J, U^(-1) = U^2 J, U^(-2) = U J
        Sinv, Uinv, U2inv = (h if sign == 1 else tuple((l, -s) for l, s in h)
                             for h in (S, U2, U))
        tables = (S, T, tuple(tinv), U, U2, J, eps, Sinv, Uinv, U2inv)
        self.tables = {name: t for (name, _), t in zip(_TABULATED, tables)}
        self._table_of = {g: t for (_, g), t in zip(_TABULATED, tables)}

    def _gamma0_tables(self, blocks: list) -> tuple:
        """The S, T and eps tables of Gamma0(N), and the lookup tables of
        ``label_of_row``: ``_row_class[c]`` is (g, M, (c/g)^-1 mod M, table)
        for g = gcd(c, N) and M = N/g, ``table[r]`` being the label of the
        point (g : v) with v = r mod M; ``_unit_inv[d]`` is d^-1 mod N or
        None, and ``_ratio_label[x]`` the label of (x : 1)."""
        N = self.N
        row_class, tabled, start = [None] * N, [], 0
        for g, vs in blocks:
            M = N // g
            table = [None] * M
            for i, v in enumerate(vs, start):
                table[v % M] = i
            start += len(vs)
            for u in range(M):
                if math.gcd(u, M) == 1:
                    row_class[g * u] = (g, M, pow(u, -1, M), table)
            tabled.append((g, M, table, vs))
        S, T, eps = [], [], []
        for g, M, table, vs in tabled:
            # (g : v) S = (v : -g), a point of the class of v
            S += [t[-g * inv % m] for _, m, inv, t in map(row_class.__getitem__, vs)]
            T += [table[(g + v) % M] for v in vs]
            eps += [table[-v % M] for v in vs]
        self._row_class = row_class
        self._unit_inv = [inv if g == 1 else None for g, _, inv, _ in row_class]
        self._ratio_label = [table[inv] for _, _, inv, table in row_class]
        return (tuple(zip(t, itertools.repeat(1))) for t in (S, T, eps))

    @functools.cached_property
    def _label_pos(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @functools.cached_property
    def lifts(self) -> tuple:
        """An SL2(Z) matrix in each label's coset, built on first read."""
        return tuple(lift_to_sl2z(c, d, self.N) for c, d in self.labels)

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
        c, d = self.labels[i]
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
        """Label and sign of the coset with bottom row (c, d); None if absent.

        On Gamma0 a unit d gives (c : d) = (c d^-1 : 1), one read of
        ``_ratio_label``; any other row is looked up in the table of its
        class g = gcd(c, N), as the point (g : d (c/g)^-1) when
        gcd(d, g) = 1.  On Gamma1 the row is normalized by ``_e_normalize``.
        """
        N = self.N
        if self.kind == GAMMA0:
            inv = self._unit_inv[d % N]
            if inv is not None:
                return self._ratio_label[c * inv % N], 1
            g, M, inv, table = self._row_class[c % N]
            if math.gcd(d, g) != 1:
                return None
            return table[d * inv % M], 1
        if math.gcd(c, d, N) != 1:
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
