"""The normal form of P^1(Z/N) by extended gcd and a walk over units, the
reference that the coset tables of Gamma0(N) are tested against.

``p1_normalize`` is the normal form periodpoly used before it enumerated
P^1(Z/N) directly and read every label off per-divisor lookup tables.
Nothing here calls those tables.
"""

import math
from typing import Optional

from periodpoly.cosets import _xgcd


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
