"""Universal Hecke elements and double-coset actions on period polynomials.

A universal element T~_n is a rational combination of determinant-n integer
matrices (mod +-1) satisfying

    T_n^inf (1 - S) = (1 - S) T~_n + (1 - T) Y_n,

independent of weight and level.  ``verified_hecke_element`` is the
adjoint of Merel's family, which Merel (1994) proves satisfies it;
``universal_hecke_element``, the element every action uses, is at a prime
the smaller one built from Cremona's Heilbronn matrices.  Each is checked
exactly, in integers, with a telescoping witness Y; a failure raises
HeckeError.
The element acts through a double coset (Delta_n, its adjoint, Theta_n or a
diamond), each resolved by one congruence on the bottom row of a coset
representative.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .exactalg import (DenseMatrix, PeriodPolyError, check,
                       clear_denominators, eigen_columns,
                       rows_to_int_sparse)
from .cosets import CosetSpace, Mat2, MAT_I, MAT_S, MAT_T, GAMMA0, _xgcd
# slash_poly stays importable as hecke.slash_poly, the name perfbench's
# tracer rebinds and its self-tests read
from .polyspace import (PolyVector, ExtPolyVector, Subspace, slash_columns,  # noqa: F401
                        slash_poly, _pow_linear)


class HeckeError(PeriodPolyError):
    pass


class EigenspaceError(HeckeError):
    pass


# ----------------------------------------------------------------------
# the group ring Q[M_n / {+-1}]

class GroupRingElement:
    """Finite rational combination of determinant-n matrices mod +-1.

    Coefficients are ints or Fractions.  ``__init__`` and the arithmetic
    normalize to Fractions; ``from_canonical`` keeps them as given, so an
    integer element such as Merel's reaches its consumers in integers.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict):
        self.n = n
        clean = {}
        for m, c in coeffs.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if not c:
                continue
            if m.det() != n:
                raise HeckeError("support matrix with determinant %d != %d" % (m.det(), n))
            key = m.canonical_pm()
            clean[key] = clean[key] + c if key in clean else c
        self.coeffs = {m: c for m, c in clean.items() if c}

    @classmethod
    def from_canonical(cls, n: int, coeffs: dict) -> "GroupRingElement":
        """An element from pm-canonical keys and nonzero int or Fraction
        coefficients, kept as given.

        In place of the per-term normalization of ``__init__``, one integer
        check per key: determinant n and pm-canonical form.
        """
        for a, b, c, d in coeffs:
            if a * d - b * c != n or not (c > 0 or (c == 0 and d > 0)):
                raise HeckeError("support matrix (%d %d; %d %d) is not a pm-canonical "
                                 "class of determinant %d" % (a, b, c, d, n))
        el = cls.__new__(cls)
        el.n, el.coeffs = n, coeffs
        return el

    def support(self) -> list:
        return sorted(self.coeffs)

    def items(self) -> list:
        return [(m, self.coeffs[m]) for m in self.support()]

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.n != other.n:
            raise HeckeError("cannot add elements of different determinant")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return GroupRingElement(self.n, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + other.scale(-1)

    def scale(self, c) -> "GroupRingElement":
        return GroupRingElement(self.n, {m: Fraction(c) * v for m, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_json(self) -> list:
        from .exactalg import scalar_to_str
        return [{"matrix": [m.a, m.b, m.c, m.d], "coeff": scalar_to_str(c)}
                for m, c in self.items()]

    @classmethod
    def from_json(cls, n: int, doc: list) -> "GroupRingElement":
        from .exactalg import scalar_from_str
        return cls(n, {Mat2(*t["matrix"]): scalar_from_str(t["coeff"])
                       for t in doc})

    def __repr__(self):
        return "GroupRingElement(n=%d, %d terms)" % (self.n, len(self.coeffs))


def gre_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    out: dict = {}
    for mx, cx in x.coeffs.items():
        for my, cy in y.coeffs.items():
            key = (mx * my).canonical_pm()
            out[key] = out.get(key, Fraction(0)) + cx * cy
    return GroupRingElement(x.n * y.n, out)


def gre_unit(matrices: Sequence[tuple]) -> GroupRingElement:
    """Determinant-1 combination from (coefficient, matrix) pairs."""
    out: dict = {}
    for c, m in matrices:
        key = m.canonical_pm()
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return GroupRingElement(1, out)


ONE_MINUS_S = gre_unit([(1, MAT_I), (-1, MAT_S)])
ONE_MINUS_T = gre_unit([(1, MAT_I), (-1, MAT_T)])


def tn_infinity(n: int) -> GroupRingElement:
    """Sum over the sigma(n) upper-triangular coset representatives."""
    if n < 1:
        raise HeckeError("index must be >= 1")
    out = {}
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(d):
            out[Mat2(a, b, 0, d)] = Fraction(1)
    return GroupRingElement(n, out)


# ----------------------------------------------------------------------
# <+-T> orbit bookkeeping

def torbit_canonical(m: Mat2) -> Mat2:
    """Canonical representative of the left <+-T> orbit of a class mod +-1."""
    a, b, c, d = m.canonical_pm()
    # c > 0, or c = 0 and d > 0: m = T^s R with 0 <= a - s c < c, or 0 <= b - s d < d
    s = a // c if c else b // d
    return Mat2(a - s * c, b - s * d, c, d)


def hecke_identity(cand: GroupRingElement, n: int) -> tuple:
    """Exact check of the defining identity in integers, with a witness.

    Works on plain 4-tuples (a, b, c, d) over den, the lcm of the
    denominators of cand: delta = den (T_n^inf (1 - S) - (1 - S) cand) is
    summed on pm-canonical keys (c > 0, or c = 0 and d > 0) and grouped
    into left <+-T> orbits.  A key lies at T^s R, where R is the orbit
    representative with 0 <= a < c (c > 0) or 0 <= b < d (c = 0), and s is
    a // c or b // d.  Returns (False, R, den) for the least R whose orbit
    sum is nonzero.

    Otherwise the telescoping witness Y, with Y(T^t R) the sum of the
    coefficients of delta at T^j R for j <= t, is constant between
    consecutive shifts of delta: den Y is held as runs (R, j, nxt, v), den
    Y = v at T^t R for j <= t < nxt.  Each run with j < nxt contributes
    v (T^j R - T^nxt R) to (1 - T) Y, and that sum is rechecked exactly
    against delta; a run with j >= nxt stands for no finite sum, so it
    fails the recheck too.  Every support matrix T^t R has the determinant
    of R, checked once per R.  Returns (True, runs, den); ``witness_terms``
    expands the runs.
    """
    if cand.n != n:
        raise HeckeError("candidate has determinant %d, expected %d" % (cand.n, n))
    ints, den = clear_denominators(list(cand.coeffs.values()))
    delta: dict = {}
    get = delta.get
    for a, b, _, d in tn_infinity(n).coeffs:
        # T_n^inf (1 - S): +den at (a b; 0 d), -den at (a b; 0 d) S = (b -a; d 0)
        delta[a, b, 0, d] = get((a, b, 0, d), 0) + den
        delta[b, -a, d, 0] = get((b, -a, d, 0), 0) - den
    for (a, b, c, d), v in zip(cand.coeffs, ints):
        # -(1 - S) cand: -v at M, +v at S M = (-c -d; a b) up to sign
        delta[a, b, c, d] = get((a, b, c, d), 0) - v
        key = (-c, -d, a, b) if a > 0 or (a == 0 and b > 0) else (c, d, -a, -b)
        delta[key] = get(key, 0) + v
    orbits: dict = {}
    get = orbits.get
    for (a, b, c, d), v in delta.items():
        if v:
            s = a // c if c else b // d
            rep = (a - s * c, b - s * d, c, d)
            terms = get(rep)
            if terms is None:
                orbits[rep] = [(s, v)]
            else:
                terms.append((s, v))
    runs, bad = [], []
    for rep, terms in orbits.items():
        terms = sorted(terms)
        acc = 0
        for (j, v), (nxt, _) in zip(terms, terms[1:]):
            acc += v
            if acc:
                runs.append((rep, j, nxt, acc))
        if acc + terms[-1][1]:
            bad.append(rep)
        a, b, c, d = rep
        if a * d - b * c != n:
            raise HeckeError("witness matrix with determinant %d != %d" % (a * d - b * c, n))
    if bad:
        return False, min(bad), den
    # the recheck: delta - (1 - T) Y, from the ends of the runs, must vanish
    get = delta.get
    for (a, b, c, d), j, nxt, v in runs:
        if j >= nxt:
            raise HeckeError("telescoping witness failed its own recheck")
        key = (a + j * c, b + j * d, c, d)
        delta[key] = get(key, 0) - v
        key = (a + nxt * c, b + nxt * d, c, d)
        delta[key] = get(key, 0) + v
    if any(delta.values()):
        raise HeckeError("telescoping witness failed its own recheck")
    return True, runs, den


def witness_terms(runs: Sequence[tuple]) -> dict:
    """den Y term by term, {(a, b, c, d): int}, from the runs of ``hecke_identity``.

    Runs are summed where they meet, so the expansion is the element the
    recheck verified whatever the runs are; those of ``hecke_identity`` meet
    nowhere.
    """
    y: dict = {}
    get = y.get
    for (a, b, c, d), j, nxt, v in runs:
        for t in range(j, nxt):
            key = (a + t * c, b + t * d, c, d)
            y[key] = get(key, 0) + v
    return y


def verify_hecke_property(cand: GroupRingElement, n: int):
    """``hecke_identity`` with Mat2 and Fraction results.

    Returns (False, orbit representative) or (True, Y), Y the witness as a
    GroupRingElement.
    """
    ok, y, den = hecke_identity(cand, n)
    if not ok:
        return False, Mat2(*y)
    return True, GroupRingElement(n, {Mat2(*m): Fraction(v, den)
                                      for m, v in witness_terms(y).items()})


# ----------------------------------------------------------------------
# construction of universal elements

def merel_family(n: int) -> dict:
    """The adjoints of the integer matrices (a b; c d) with det n, a > b >= 0
    and d > c >= 0, as {pm-canonical adjoint: 1} in the order of the walk:
    (d -b; -c a) is (-d b; c -a) for c > 0, (d -b; 0 a) for c = 0.

    Put g = a - b >= 1.  Then a d - b c = n reads a (d - c) = n - g c, so d
    > c is g c < n, a is a divisor a >= g of m = n - g c, and d = c + m / a.
    Every (g, c) with g c < n is walked once, with the divisors of m from a
    sieve up to n.
    """
    divisors = [[] for _ in range(n + 1)]
    for a in range(1, n + 1):
        for m in range(a, n + 1, a):
            divisors[m].append(a)
    out = {}
    for g in range(1, n + 1):
        for c in range((n - 1) // g + 1):
            m = n - g * c
            divs = divisors[m]
            for a in divs[bisect.bisect_left(divs, g):]:
                b, d = a - g, c + m // a
                out[Mat2(-d, b, c, -a) if c else Mat2(d, -b, 0, a)] = 1
    return out


def verified_hecke_element(n: int) -> tuple:
    """Merel's universal element, ``merel_family(n)``, with the witness of
    its one ``hecke_identity`` check: (T~_n, runs of den Y, den).

    The members are distinct, so are their adjoints, and each has the int
    coefficient 1, so den is 1.  Merel (1994) proves the identity for this
    family, so a failed check is a bug and raises HeckeError.
    """
    cand = GroupRingElement.from_canonical(n, merel_family(n))
    ok, y, den = hecke_identity(cand, n)
    if not ok:
        raise HeckeError("Merel family failed verification at n = %d" % n)
    return cand, y, den


def universal_hecke_element(n: int) -> GroupRingElement:
    """The T~_n every Hecke action of the program uses, checked once by
    ``hecke_identity`` (a failure raises HeckeError): at a prime n >= 3 the
    adjoints of Cremona's Heilbronn matrices (Cremona 1997, 2.4), 654
    classes against Merel's 1,863 at n = 151; Merel's element
    (``verified_hecke_element``) at any other n."""
    if n < 3 or not all(n % q for q in range(2, math.isqrt(n) + 1)):
        return verified_hecke_element(n)[0]
    # (1 0; 0 n) and the convergent matrices (x1 x2; y1 y2) of r/n for
    # -n/2 < r < n/2, each quotient a/b rounded to nearest as
    # floor((2a + b) / (2b)); their classes mod +-1 are distinct, each of
    # coefficient 1, and a repeat would fail the check
    walk = [(1, 0, 0, n)]
    for r in range(-(n // 2), n // 2 + 1):
        x1, x2, y1, y2, a, b = n, -r, 0, 1, -n, r
        walk.append((x1, x2, y1, y2))
        while b:
            q = (2 * a + b) // (2 * b)
            a, b = -b, a - b * q
            x1, x2, y1, y2 = x2, q * x2 - x1, y2, q * y2 - y1
            walk.append((x1, x2, y1, y2))
    # the pm-canonical adjoint (d -b; -c a) of each (a b; c d)
    cand = GroupRingElement.from_canonical(n, {
        (Mat2(d, -b, -c, a) if c < 0 or not c and a > 0 else Mat2(-d, b, c, -a)): 1
        for a, b, c, d in walk})
    if not hecke_identity(cand, n)[0]:
        raise HeckeError("Cremona's Heilbronn matrices failed verification at n = %d" % n)
    return cand


# ----------------------------------------------------------------------
# double cosets

@dataclass(frozen=True)
class SigmaSpec:
    """Which double coset the universal element acts through."""

    variant: str          # "delta" | "delta_vee" | "theta" | "diamond"
    kind: str             # GAMMA0 | GAMMA1
    N: int
    n: int
    w_matrix: Optional[Mat2] = None
    diamond: Optional[int] = None

    def __post_init__(self):
        if self.variant not in ("delta", "delta_vee", "theta", "diamond"):
            raise HeckeError("unknown double coset variant %r" % self.variant)
        if self.variant == "delta_vee" and math.gcd(self.n, self.N) != 1:
            raise HeckeError("adjoint Hecke coset requires gcd(n, N) = 1")
        if self.variant == "theta":
            if self.N % self.n or math.gcd(self.n, self.N // self.n) != 1:
                raise HeckeError("theta requires n || N")
            if self.w_matrix is None:
                object.__setattr__(self, "w_matrix", theta_matrix(self.kind, self.N, self.n))
            wm = self.w_matrix
            if wm.det() != self.n or wm.a % self.n or wm.d % self.n or wm.c % self.N:
                raise HeckeError("w_n must have the shape (nx y; Nz nt) with det n")
        if self.variant == "diamond":
            if self.n != 1:
                raise HeckeError("diamond operators have index 1")
            if self.diamond is None or math.gcd(self.diamond, self.N) != 1:
                raise HeckeError("diamond requires a unit d mod N")


def delta_spec(kind: str, N: int, n: int) -> SigmaSpec:
    return SigmaSpec("delta", kind, N, n)


def delta_vee_spec(kind: str, N: int, n: int) -> SigmaSpec:
    return SigmaSpec("delta_vee", kind, N, n)


def theta_spec(kind: str, N: int, n: int) -> SigmaSpec:
    return SigmaSpec("theta", kind, N, n)


def diamond_spec(kind: str, N: int, d: int) -> SigmaSpec:
    return SigmaSpec("diamond", kind, N, 1, diamond=d % N)


def theta_matrix(kind: str, N: int, n: int) -> Mat2:
    """An integral w_n = (nx y; Nz nt) of determinant n."""
    np = N // n
    if kind == GAMMA0:
        g, u, v = _xgcd(n, np)
        check(g == 1, "theta needs gcd(n, N/n) = 1")
        # n*u + np*v = 1  ->  w = (n u, -v; N, n), det = n(nu + np v) = n
        return Mat2(n * u, -v, N, n)
    # Gamma1 needs y = 1 mod n as well
    y = 1
    while math.gcd(n, np * y) != 1:
        y += n
    g, alpha, beta = _xgcd(n, np * y)
    check(g == 1, "theta needs gcd(n, N/n y) = 1")
    # n alpha + np y beta = 1 -> w = (n alpha, y; -N beta, n)
    return Mat2(n * alpha, y, -N * beta, n)


def resolve_sigma_coset(space: CosetSpace, label: Optional[int], M,
                        spec: SigmaSpec) -> Optional[Sequence]:
    """(target, sign) of the coset carrying P in (P|_Sigma M)(A) at the
    label A, or None.  With label None every label is resolved in one call:
    [(label, target, sign)] over the labels that hit, or None if none does.

    Put B = A M^vee.  If g = C M A^-1 lies in Sigma with N | c_g, then
    g B = n C, so B = g^vee C and row(B) = a_g row(C) mod N for the bottom
    rows.  So C is the coset with bottom row u row(B), one ``label_of_row``
    call:
    - Delta: a_g = 1 on Gamma1 and a unit on Gamma0, whose labels are
      points of P^1, so u = 1, a coset exactly when gcd(B.c, B.d, N) = 1;
    - the adjoint coset: d_g = 1 on Gamma1 and a unit on Gamma0, so
      a_g = n d_g^-1 and u = n^-1 mod N;
    - the diamond <d>: n = 1 and d_g = d, so u = d.
    Theta_n holds the g = (n x, y; N z, n t) of determinant n; on Gamma1
    with y = y_w mod n and t = t_w mod N/n for w_n = (n x_w, y_w; N z_w,
    n t_w), hence x = x_w mod N/n, while on Gamma0 any units x, y give the
    same point of P^1.  There n divides the bottom row of B, and B = g^vee C
    gives row(C) = -y^-1 top(B) mod n and row(C) = x^-1 bottom(B) / n
    mod N/n, joined by CRT.

    B is computed in integers from the lift A and M, its top row only for
    Theta once n divides the bottom one, and read mod N (Cremona 1997, 2.4).
    """
    if spec.N != space.N or spec.kind != space.kind:
        raise HeckeError("double coset and coset space disagree")
    a, b, c, d = M
    if a * d - b * c != spec.n:
        raise HeckeError("matrix determinant %d does not match spec" % (a * d - b * c))
    lifts = enumerate(space.lifts) if label is None else ((label, space.lifts[label]),)
    row = space.label_of_row
    out = []
    if spec.variant == "theta":
        n, np, wm = spec.n, space.N // spec.n, spec.w_matrix
        # r = -y^-1 mod n and 0 mod N/n; s bottom(B) = x^-1 bottom(B) / n
        # mod N/n and 0 mod n, as n x_w is a unit mod N/n
        r = -np * pow(np * wm.b, -1, n)
        s = pow(wm.a, -1, np)
        for l, (p, q, x, y) in lifts:
            # the bottom row of B = A M^vee, with M^vee = (d, -b; -c, a)
            bc, bd = x * d - y * c, y * a - x * b
            if bc % n or bd % n:
                continue
            hit = row(r * (p * d - q * c) + s * bc, r * (q * a - p * b) + s * bd)
            if hit is not None:
                out.append((l,) + hit)
    else:
        u = (1 if spec.variant == "delta" else
             pow(spec.n, -1, space.N) if spec.variant == "delta_vee" else spec.diamond)
        for l, (_, _, x, y) in lifts:
            hit = row(u * (x * d - y * c), u * (y * a - x * b))
            if hit is not None:
                out.append((l,) + hit)
    return (out or None) if label is None else (out[0][1:] if out else None)


# ----------------------------------------------------------------------
# actions

class HeckeOperator:
    """P |_Sigma t on the PolyVectors or ExtPolyVectors of one space, compiled once.

    The support of t is grouped by M mod N, all ``resolve_sigma_coset``
    reads; each class is resolved once against every label, and at each
    hit s**w times its sum of coeff (X^j | M) joins one integer block per
    (target label, source label) pair: (w+1) x (w+1) on degree <= w
    polynomials, (w+3) x (w+3) on the X^(-1), ..., X^(w+1) coordinates of
    the extended space, over the common denominator ``den`` of t and the
    partial fractions.  An image is a sum of block x slice products.

    On the extended space X^-1 | M = (cX+d)^(w+1) / (aX+b) and
    X^(w+1) | M = (aX+b)^(w+1) / (cX+d) are split into a polynomial part
    and a residue (see ``_over_linear``).  A residue at 0 is an X^(-1)
    coordinate.  The residues at a pole x0 != 0 are summed per (target
    label, x0) into one row of linear forms on the input coordinates, held
    in ``poles``.  The image lies in the extended model iff every such row
    vanishes, since the partial fraction decomposition is unique; ``apply``
    raises HeckeError otherwise.

    ``norm`` is the largest absolute row sum of the integer map ``apply``
    computes, the pole rows included: no entry of an image, and no pole
    residual, exceeds norm times the largest |entry| of the input.
    """

    __slots__ = ("space", "w", "extended", "den", "blocks", "poles", "norm")

    def __init__(self, space: CosetSpace, w: int, t: GroupRingElement,
                 spec: SigmaSpec, extended: bool = False):
        self.space, self.w, self.extended = space, w, extended
        ints, den = clear_denominators(list(t.coeffs.values()))
        n = w + 3 if extended else w + 1
        # target -> {source: block}, each block held flat, row by row
        folded = [{} for _ in range(space.size)]
        # (target, pole) -> {source coordinate: residue}
        residues = {}
        for members in _support_classes(t.coeffs, ints, spec.n, space.N).values():
            hits = resolve_sigma_coset(space, None, members[0][0], spec)
            if hits is None:
                continue
            cols, poles = _fold_class(members, w, extended)
            flat = [v for row in zip(*cols) for v in row]
            for l, l2, s in hits:
                f = 1 if s ** w == 1 else -1
                for (j, x0), res in poles.items():
                    row = residues.setdefault((l, x0), {})
                    row[l2 * n + j] = row.get(l2 * n + j, 0) + f * res
                folded[l][l2] = list(map(operator.add if f == 1 else operator.sub,
                                         folded[l].get(l2) or [0] * (n * n), flat))
        if extended:
            scale = math.lcm(*(v.denominator for d in folded for b in d.values() for v in b))
            folded = [{l2: [int(v * scale) for v in block] for l2, block in d.items()}
                      for d in folded]
            den *= scale
        self.den = den
        self.blocks = [[(l2, list(zip(*[iter(block)] * n)))
                        for l2, block in sorted(d.items()) if any(block)]
                       for d in folded]
        self.poles = [row for row in rows_to_int_sparse(residues.values()) if row]
        # row i of a target: row i of each of its blocks
        rows = (sum(sum(map(abs, block[i * n:(i + 1) * n])) for block in d.values())
                for d in folded for i in range(n))
        self.norm = max(chain(rows, (sum(map(abs, row.values())) for row in self.poles)),
                        default=0)

    def apply(self, coords: Sequence) -> list:
        """den times the image of a coordinate vector, as coordinates."""
        n = self.w + 3 if self.extended else self.w + 1
        if len(coords) != self.space.size * n:
            raise HeckeError("coordinate vector does not match the operator's space")
        for row in self.poles:
            if sum(v * coords[i] for i, v in row.items()):
                raise HeckeError("Hecke image leaves the extended polynomial model")
        slices = [coords[l * n:(l + 1) * n] for l in range(self.space.size)]
        live = [any(x) for x in slices]
        out = []
        for pairs in self.blocks:
            acc = [0] * n
            for l2, block in pairs:
                if not live[l2]:
                    continue
                x = slices[l2]
                for i, row in enumerate(block):
                    acc[i] += sum(map(operator.mul, row, x))
            out.extend(acc)
        return out

    def image(self, P):
        """P |_Sigma t, applied in integers when P is rational."""
        if (P.space is not self.space or P.w != self.w
                or isinstance(P, ExtPolyVector) != self.extended):
            raise HeckeError("vector does not live on the operator's space")
        coords = P.tilde_coords() if self.extended else P.coords()
        values, den = clear_denominators(coords) or (coords, 1)
        inv = Fraction(1, den * self.den)
        image = [v * inv for v in self.apply(values)]
        if self.extended:
            return ExtPolyVector.from_tilde_coords(self.space, self.w, image)
        return PolyVector.from_coords(self.space, self.w, image)


def _support_classes(matrices, coeffs: Sequence, n: int, N: int) -> dict:
    """{M mod N: [(M, c), ...]}, each determinant checked to be n."""
    classes = {}
    for M, coef in zip(matrices, coeffs):
        a, b, c, d = M
        if a * d - b * c != n:
            raise HeckeError("matrix determinant %d does not match spec" % (a * d - b * c))
        classes.setdefault((a % N, b % N, c % N, d % N), []).append((M, coef))
    return classes


def _fold_class(members: Sequence[tuple], w: int, extended: bool) -> tuple:
    """(the columns of sum c (X^j | M) over the (M, c) of a class, {(column,
    x0): sum c residue}), the end columns and poles of Wtilde M by M."""
    cols, poles = slash_columns(members, w), {}
    if not extended:
        return cols, poles
    ends = [[0] * (w + 3) for _ in range(2)]
    for (a, b, c, d), coef in members:
        # X^-1 | M = (cX+d)^(w+1) / (aX+b), X^(w+1) | M = (aX+b)^(w+1) / (cX+d)
        for e, (col, pole) in enumerate((_over_linear(_pow_linear(c, d, w + 1), a, b, w),
                                         _over_linear(_pow_linear(a, b, w + 1), c, d, w))):
            ends[e] = [u + coef * v for u, v in zip(ends[e], col)]
            if pole:
                poles[e * (w + 2), pole[0]] = poles.get((e * (w + 2), pole[0]), 0) + coef * pole[1]
    return [ends[0]] + [[0] + col + [0] for col in cols] + [ends[1]], poles


def _over_linear(p: Sequence, a: int, b: int, w: int) -> tuple:
    """p / (aX + b) for deg p <= w + 1, as (coordinates, pole).

    The coordinates run over X^(-1), ..., X^(w+1).  With a = 0 they are
    those of the polynomial p / b.  Otherwise synthetic division gives
    p = (X - x0) q + R with x0 = -b/a, so p / (aX + b) is q / a plus the
    residue R / a at x0.  At x0 = 0 the residue is the X^(-1) coordinate
    and pole is None; at any other x0, pole is (x0, R / a).
    """
    col = [Fraction(0)] * (w + 3)
    if a == 0:
        for i, v in enumerate(p):
            col[i + 1] = Fraction(v, b)
        return col, None
    x0 = Fraction(-b, a)
    q = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        # q_(i-1) = p_i + x0 q_i is the coefficient of X^(i-1)
        q = p[i] + x0 * q
        col[i] = q / a
    res = (p[0] + x0 * q) / a
    if x0:
        return col, (x0, res)
    col[0] = res
    return col, None


def hecke_action(P, t: GroupRingElement, spec: SigmaSpec):
    """P |_Sigma t for a PolyVector or ExtPolyVector."""
    return HeckeOperator(P.space, P.w, t, spec,
                         isinstance(P, ExtPolyVector)).image(P)


def hecke_matrix(sub: Subspace, t: GroupRingElement, spec: SigmaSpec) -> DenseMatrix:
    """Exact matrix of the action in the basis of a stable subspace.

    The operator is compiled once and applied in integers to all basis
    columns at once, packed into one vector (one per zeta^t coordinate over
    Q(zeta_m)); the packed image goes straight to the membership test, see
    ``Subspace.restricted_matrix``.
    """
    op = HeckeOperator(sub.space, sub.w, t, spec, sub.extended)
    return sub.restricted_matrix(op.apply, op.den, op.norm)


def common_eigen_polynomial(sub: Subspace, eigendata: Sequence[tuple],
                            parity: Optional[str] = None,
                            element_for: Optional[callable] = None):
    """Generator of the joint eigenspace cut out by (p, lambda_p) pairs.

    Each T~_p acts through Delta_p on the subspace's own group;
    ``element_for(p)`` supplies the universal element (defaults to
    ``universal_hecke_element``).
    Each operator acts on the columns of the running intersection only,
    which is then cut down to its lambda_p-eigenspace.
    Fails loudly when the intersection is empty or not one dimensional.
    The generator is scaled so the designated coordinate is 1: the constant
    coefficient at the identity coset for even ('+') parts, the linear one
    for odd ('-') parts, with fallback to the first nonzero coordinate.
    """
    if sub.dim == 0:
        raise EigenspaceError("empty subspace has no eigenvectors")
    if element_for is None:
        element_for = universal_hecke_element
    cur, kind, N = sub, sub.space.kind, sub.space.N
    for p, lam in eigendata:
        ker = eigen_columns([(hecke_matrix(cur, element_for(p), delta_spec(kind, N, p)), lam)])
        if not ker:
            raise EigenspaceError(
                "empty intersection: %s is not an eigenvalue of T~_%d here" % (lam, p))
        cur = cur.times(ker)
    if cur.dim != 1:
        raise EigenspaceError(
            "eigenspace is %d-dimensional; supply more primes" % cur.dim)
    return normalize_eigen_polynomial(cur.vector(0), parity)


def normalize_eigen_polynomial(vec: PolyVector, parity: Optional[str]):
    """Scale so the designated coordinate equals 1, in exact arithmetic."""
    space, w = vec.space, vec.w
    idl = space.identity_label
    pivot = None
    if parity == "+":
        pivot = vec.values[idl][0]
    elif parity == "-" and w >= 1:
        pivot = vec.values[idl][1]
    if not pivot:
        pivot = next((c for p in vec.values for c in p if c), None)
    if not pivot:
        raise EigenspaceError("zero vector cannot be normalized")
    return vec.scale(Fraction(1) / pivot)
