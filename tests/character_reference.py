"""Dirichlet characters built by arithmetic in Q(zeta_m), the reference that
the exponent tables of ``cosets.Character`` are tested against.

This is the construction periodpoly used before characters were held as
integer exponents: each value's order is found by repeated cyclotomic
multiplication, multiplicativity is checked over all pairs of units in
Q(zeta_m), and discrete logs come from a brute-force recursion.  It costs
O(phi(N)^3) field products, so keep N small.  It fails at N = 1.
"""

import math
from fractions import Fraction

from periodpoly.cosets import CosetError, _crt, _euler_phi
from periodpoly.exactalg import CyclotomicField, Cyclotomic


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
            # order 1: every value is 1, a rational also as a Cyclotomic
            return Fraction(v.coeffs[0] if isinstance(v, Cyclotomic) else v)
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


def reference_dirichlet_characters(N: int) -> list:
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
