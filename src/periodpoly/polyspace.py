"""Spaces of period polynomials and the pairings on them.

A PolyVector assigns one degree <= w polynomial to every coset label of a
CosetSpace; an ExtPolyVector adds one cusp constant per label, encoding the
X^(w+1) / X^(-1) tails of period polynomials of noncuspidal forms.  The
period polynomial space W, the coboundary space C, the tail space D and the
extended space Wtilde are all cut out by exact linear algebra over Q.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactalg import (DenseMatrix, ExactAlgebraError, PeriodPolyError, QQ, check,
                       clear_denominators, column_entries, eigen_columns, kernel_columns,
                       mult_columns, poly_mul, reduced_column_basis,
                       scalar_coords, scalar_from_str, scalar_to_str,
                       sparse_int_rank, _normalize_int_row)
from .cosets import (CosetSpace, Mat2, MAT_EPS, MAT_SINV, MAT_T, MAT_TINV, MAT_U,
                     MAT_U2, GAMMA0, build_coset_space, _unit_group_generators)


class PolySpaceError(PeriodPolyError):
    pass


# ----------------------------------------------------------------------
# single-polynomial operations

def slash_poly(p: Sequence, g: Mat2, w: int):
    """p |_{-w} g: the exact expansion of p(gX) (cX+d)^w.

    g may be any integral matrix with nonzero determinant; no determinant
    normalization is applied.
    """
    if g.det() == 0:
        raise PolySpaceError("slash by a singular matrix")
    if len(p) != w + 1:
        raise PolySpaceError("polynomial has wrong length for weight")
    out = [0] * (w + 1)
    for j, coeff in enumerate(p):
        if not coeff:
            continue
        term = poly_mul(_pow_linear(g.a, g.b, j), _pow_linear(g.c, g.d, w - j))
        for i, t in enumerate(term):
            if t:
                out[i] = out[i] + coeff * t
    return tuple(out)


def _pow_linear(a: int, b: int, e: int) -> list:
    """Integer coefficients of (a X + b)^e, ascending."""
    return [math.comb(e, i) * a ** i * b ** (e - i) for i in range(e + 1)]


def slash_columns(terms: Iterable[tuple], w: int) -> list:
    """The columns j = 0, ..., w of sum c (X^j | g) over the (g, c) of terms:
    the monomials of ``_slash_plan`` are summed over the terms first."""
    mono, plan = _slash_plan(w)
    sums = [0] * len(mono)
    for (a, b, c, d), coef in terms:
        pa = [coef * a ** i for i in range(w + 1)]
        pb, pc, pd = [[x ** i for i in range(w + 1)] for x in (b, c, d)]
        sums = [v + pa[i] * pb[j] * pc[k] * pd[l] for v, (i, j, k, l) in zip(sums, mono)]
    flat = [0] * (w + 1) ** 2
    for e, binom, x in plan:
        flat[e] += binom * sums[x]
    return [flat[j * (w + 1):(j + 1) * (w + 1)] for j in range(w + 1)]


@functools.lru_cache(maxsize=None)
def _slash_plan(w: int) -> tuple:
    """The degree-w monomials a^i b^j c^k d^l as (i, j, k, l), and the terms
    (entry, binomial, monomial) summing to the coefficient of X^i in X^j | g
    = (aX+b)^j (cX+d)^(w-j), entry i + (w+1) j."""
    mono = [(i, j, k, w - i - j - k) for i in range(w + 1) for j in range(w + 1 - i)
            for k in range(w + 1 - i - j)]
    pos = {e: x for x, e in enumerate(mono)}
    return mono, [(j * (w + 1) + k + l, math.comb(j, k) * math.comb(w - j, l),
                   pos[k, j - k, l, w - j - l])
                  for j in range(w + 1) for k in range(j + 1) for l in range(w - j + 1)]


def pair_vw(p: Sequence, q: Sequence, w: int):
    """<p, q> = sum (-1)^(w-n) C(w,n)^(-1) p_n q_(w-n)."""
    if len(p) != w + 1 or len(q) != w + 1:
        raise PolySpaceError("degree bound mismatch in pairing")
    acc = 0
    for n in range(w + 1):
        a, b = p[n], q[w - n]
        if a and b:
            c = Fraction((-1) ** (w - n), math.comb(w, n))
            acc = acc + c * a * b
    return acc


# ----------------------------------------------------------------------
# coset-indexed polynomial vectors

class PolyVector:
    """Element of V_w^Gamma: one degree <= w polynomial per coset label."""

    __slots__ = ("space", "w", "values")

    def __init__(self, space: CosetSpace, w: int, values: Sequence[Sequence]):
        if len(values) != space.size:
            raise PolySpaceError("one polynomial per coset label required")
        self.space = space
        self.w = w
        self.values = tuple(tuple(v) for v in values)
        for v in self.values:
            if len(v) != w + 1:
                raise PolySpaceError("polynomial of wrong degree bound")

    @classmethod
    def zero(cls, space: CosetSpace, w: int) -> "PolyVector":
        return cls(space, w, [(0,) * (w + 1)] * space.size)

    @classmethod
    def from_coords(cls, space: CosetSpace, w: int, coords: Sequence) -> "PolyVector":
        n = w + 1
        return cls(space, w, [tuple(coords[l * n:(l + 1) * n]) for l in range(space.size)])

    def coords(self) -> tuple:
        return tuple(c for v in self.values for c in v)

    def _check_same(self, other: "PolyVector"):
        if self.space is not other.space or self.w != other.w:
            raise PolySpaceError("mismatched spaces")

    def __add__(self, other: "PolyVector") -> "PolyVector":
        self._check_same(other)
        return PolyVector(self.space, self.w,
                          [tuple(a + b for a, b in zip(p, q))
                           for p, q in zip(self.values, other.values)])

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        self._check_same(other)
        return PolyVector(self.space, self.w,
                          [tuple(a - b for a, b in zip(p, q))
                           for p, q in zip(self.values, other.values)])

    def scale(self, c) -> "PolyVector":
        return PolyVector(self.space, self.w,
                          [tuple(c * a for a in p) for p in self.values])

    def is_zero(self) -> bool:
        return all(not a for p in self.values for a in p)

    def slash(self, g: Mat2) -> "PolyVector":
        """Right action (P|g)(A) = P(A g^(-1)) |_{-w} g, g in SL2(Z)."""
        ginv = g.inverse()
        vals = []
        for l in range(self.space.size):
            l2, s = self.space.signed_act(l, ginv, self.w)
            p = self.values[l2]
            if s == -1:
                p = tuple(-a for a in p)
            vals.append(slash_poly(p, g, self.w))
        return PolyVector(self.space, self.w, vals)

    def eps(self) -> "PolyVector":
        """(P|eps)(A) = P(eps A eps)(-X)."""
        c = self.coords()
        return PolyVector.from_coords(self.space, self.w, [
            s * c[k] for k, s in eps_coordinates(self.space, self.w, False)])

    def to_json(self) -> dict:
        space = self.space
        return {
            "group": space.kind,
            "level": space.N,
            "weight": space.k,
            "values": {space.label_str(l): [scalar_to_str(c) for c in self.values[l]]
                       for l in range(space.size)},
        }

    @classmethod
    def from_json(cls, space: CosetSpace, doc: dict) -> "PolyVector":
        if (doc.get("group"), doc.get("level"), doc.get("weight")) != \
                (space.kind, space.N, space.k):
            raise PolySpaceError("document does not match the coset space")
        w = space.k - 2
        vals = [None] * space.size
        for label, coeffs in doc["values"].items():
            vals[space.label_from_str(label)] = tuple(scalar_from_str(c)
                                                      for c in coeffs)
        if any(v is None for v in vals):
            raise PolySpaceError("document is missing coset labels")
        return cls(space, w, vals)

    def __repr__(self):
        return "PolyVector(%r, w=%d)" % (self.space, self.w)


class ExtPolyVector:
    """PolyVector plus per-label cusp constants for the X^(w+1) tails.

    The element represented is P + P0|(1-S) with P0(A) = c_A X^(w+1); the
    stored constant is exactly the coefficient of X^(w+1).
    """

    __slots__ = ("space", "w", "poly", "tails")

    def __init__(self, space: CosetSpace, w: int, poly: PolyVector,
                 tails: Sequence, check: bool = True):
        if poly.space is not space or poly.w != w:
            raise PolySpaceError("mismatched polynomial part")
        if len(tails) != space.size:
            raise PolySpaceError("one cusp constant per label required")
        self.space = space
        self.w = w
        self.poly = poly
        self.tails = tuple(tails)
        if check:
            _check_ties(space, w, self.tilde_coords())

    @classmethod
    def from_poly(cls, P: PolyVector) -> "ExtPolyVector":
        return cls(P.space, P.w, P, (0,) * P.space.size, check=False)

    @classmethod
    def zero(cls, space: CosetSpace, w: int) -> "ExtPolyVector":
        return cls(space, w, PolyVector.zero(space, w), (0,) * space.size, check=False)

    def __add__(self, other: "ExtPolyVector") -> "ExtPolyVector":
        return ExtPolyVector(self.space, self.w, self.poly + other.poly,
                             [a + b for a, b in zip(self.tails, other.tails)],
                             check=False)

    def __sub__(self, other: "ExtPolyVector") -> "ExtPolyVector":
        return self + other.scale(-1)

    def scale(self, c) -> "ExtPolyVector":
        return ExtPolyVector(self.space, self.w, self.poly.scale(c),
                             [c * a for a in self.tails], check=False)

    def is_zero(self) -> bool:
        return self.poly.is_zero() and all(not a for a in self.tails)

    def eps(self) -> "ExtPolyVector":
        c = self.tilde_coords()
        return ExtPolyVector.from_tilde_coords(self.space, self.w, [
            s * c[k] for k, s in eps_coordinates(self.space, self.w, True)], check=False)

    def tilde_coords(self) -> tuple:
        """Coordinates over X^(-1), X^0, ..., X^(w+1) per label; the X^(-1)
        coordinates are read off the tails by their ties (``_tilde_ties``)."""
        out = [x for p, c in zip(self.poly.values, self.tails) for x in (0, *p, c)]
        for kind, i, j, s in _tilde_ties(self.space, self.w):
            if kind:
                out[i] = s * out[j]
        return tuple(out)

    @classmethod
    def from_tilde_coords(cls, space: CosetSpace, w: int, coords: Sequence,
                          check: bool = True) -> "ExtPolyVector":
        n = w + 3
        if len(coords) != space.size * n:
            raise PolySpaceError("one block of w + 3 coordinates per label required")
        if check:
            _check_ties(space, w, coords)
        vals = [coords[l * n + 1:(l + 1) * n - 1] for l in range(space.size)]
        return cls(space, w, PolyVector(space, w, vals), coords[n - 1::n], check=False)

    def to_json(self) -> dict:
        doc = self.poly.to_json()
        doc["cusp_constants"] = {self.space.label_str(l): scalar_to_str(self.tails[l])
                                 for l in range(self.space.size)}
        return doc

    @classmethod
    def from_json(cls, space: CosetSpace, doc: dict) -> "ExtPolyVector":
        poly = PolyVector.from_json(space, doc)
        tails = [None] * space.size
        for label, c in doc["cusp_constants"].items():
            tails[space.label_from_str(label)] = scalar_from_str(c)
        if any(t is None for t in tails):
            raise PolySpaceError("document is missing cusp constants")
        return cls(space, space.k - 2, poly, tails)

    def __repr__(self):
        return "ExtPolyVector(%r, w=%d)" % (self.space, self.w)


def eps_coordinates(space: CosetSpace, w: int, extended: bool) -> list:
    """eps as a signed permutation of the coordinates: the m-th pair (k, s)
    says (P|eps)[m] = s P[k].  (P|eps)(A) = P(eps A eps)(-X), so the block
    of label l is the block of l.eps times its label sign, with X^i times
    (-1)^i; the extended blocks run over X^(-1), ..., X^(w+1)."""
    n, low = (w + 3, -1) if extended else (w + 1, 0)
    out = []
    for l in range(space.size):
        l2, s = space.signed_act(l, MAT_EPS, w)
        out.extend((l2 * n + j, -s if (j + low) % 2 else s) for j in range(n))
    return out


# what a broken tie of each kind of ``_tilde_ties`` reports
_TIE_ERRORS = ("cusp constants not constant on T-orbits",
               "X^(-1) coefficients inconsistent with tails")


def _tilde_ties(space: CosetSpace, w: int) -> list:
    """The ties of the extended model's coordinates (``tilde_coords``) as
    (kind, i, j, s), coordinate i = s coordinate j, kind 0 first: c_l =
    s c_(l.T) (c_A = c_(AT)), and X^(-1) at l is (-1)^w s1 c_(l.S^(-1))."""
    n = w + 3
    ties = []
    for l in range(space.size):
        lt, s = space.signed_act(l, MAT_T, w)
        ties.append((0, l * n + n - 1, lt * n + n - 1, s))
    for l in range(space.size):
        l1, s1 = space.signed_act(l, MAT_SINV, w)
        ties.append((1, l * n, l1 * n + n - 1, (-1) ** w * s1))
    return ties


def _check_ties(space: CosetSpace, w: int, coords: Sequence) -> None:
    for kind, i, j, s in _tilde_ties(space, w):
        if coords[i] != s * coords[j]:
            raise PolySpaceError(_TIE_ERRORS[kind])


def _check_tilde_columns(sub: "Subspace") -> None:
    """The checks of ``ExtPolyVector.from_tilde_coords`` on the integer
    columns of an extended subspace, on each zeta^t slice.  A tie between
    two coordinates is checked where a column meets it."""
    d = sub.field.degree
    ties: dict = {}  # coordinate -> the ties that hold it
    for tie in _tilde_ties(sub.space, sub.w):
        ties.setdefault(tie[1], []).append(tie)
        ties.setdefault(tie[2], []).append(tie)
    for _, vec in sub.columns:
        for kind, i, j, s in sorted({tie for k in vec for tie in ties.get(k // d, ())}):
            if any(vec.get(i * d + t, 0) != s * vec.get(j * d + t, 0) for t in range(d)):
                raise PolySpaceError(_TIE_ERRORS[kind])


def as_extended(P) -> ExtPolyVector:
    if isinstance(P, ExtPolyVector):
        return P
    return ExtPolyVector.from_poly(P)


# ----------------------------------------------------------------------
# pairings

def pair_induced(P: PolyVector, Q: PolyVector):
    """(1/[G1:G]) sum_A <P(A), Q(A)> over the fixed coset section."""
    if P.space is not Q.space or P.w != Q.w:
        raise PolySpaceError("mismatched spaces")
    acc = 0
    for p, q in zip(P.values, Q.values):
        acc = acc + pair_vw(p, q, P.w)
    return Fraction(1, P.space.index) * acc


def _tail_tpoly(vec: ExtPolyVector, reverse: bool = False) -> PolyVector:
    """P0|(T - T^(-1)) as a PolyVector (degree drops to w)."""
    w = vec.w
    plus = _pow_linear(1, 1, w + 1)
    minus = _pow_linear(1, -1, w + 1)
    diff = [a - b for a, b in zip(plus, minus)][:w + 1]  # X^(w+1) terms cancel
    if reverse:
        diff = [-a for a in diff]
    vals = [tuple(c * d for d in diff) for c in vec.tails]
    return PolyVector(vec.space, w, vals)


def pair_braces(P, Q):
    """The Haberland pairing {P, Q}; plain and extended vectors both accepted.

    On V_w x V_w this is <<P|(T - T^(-1)), Q>>; tails contribute the extra
    terms of the extended pairing, including the odd-weight correction.
    """
    Pe, Qe = as_extended(P), as_extended(Q)
    if Pe.space is not Qe.space or Pe.w != Qe.w:
        raise PolySpaceError("mismatched spaces")
    space, w, k = Pe.space, Pe.w, Pe.w + 2
    main = pair_induced(Pe.poly.slash(MAT_T) - Pe.poly.slash(MAT_TINV), Qe.poly)
    acc = main
    if any(Pe.tails):
        acc = acc + 2 * pair_induced(_tail_tpoly(Pe), Qe.poly)
    if any(Qe.tails):
        acc = acc + 2 * pair_induced(Pe.poly, _tail_tpoly(Qe, reverse=True))
    if k % 2 == 1 and any(Pe.tails) and any(Qe.tails):
        tail_sum = 0
        for a, b in zip(Pe.tails, Qe.tails):
            tail_sum = tail_sum + a * b
        acc = acc + Fraction(6 * (k - 1), k * space.index) * tail_sum
    return acc


# ----------------------------------------------------------------------
# subspaces

class Subspace:
    """Exact span of coordinatized PolyVectors or ExtPolyVectors.

    The basis is held in reduced column echelon form as cleared sparse
    integer columns (den, vec), see ``exactalg.kernel_columns``: over
    Q(zeta_m) of degree d, vec[i * d + t] / den is the zeta^t coordinate of
    entry i.  The form is canonical and makes membership a read-off at the
    pivot rows plus an integer residual; the constructor checks it, also
    under -O.  If K is such a basis in B-coordinates, B K is one too, so
    the eps and chi parts and eigenspaces need no second elimination
    (``times``).  ``basis`` is a DenseMatrix view, built on first read.
    """

    def __init__(self, space: CosetSpace, w: int, extended: bool,
                 columns: Sequence, field=QQ):
        self.space, self.w, self.extended, self.field = space, w, extended, field
        self.columns = list(columns)
        self.ambient = space.size * ((w + 3) if extended else (w + 1))
        d = field.degree
        self.pivot_rows = []
        for j, (den, vec) in enumerate(self.columns):
            check(vec and all(vec.values()) and 0 <= min(vec) and max(vec) < self.ambient * d,
                  "basis column %d is zero or leaves the ambient space" % j)
            p = min(vec)
            check(p % d == 0 and vec[p] == den > 0 and math.gcd(*vec.values()) == 1,
                  "basis column %d is not 1 at its pivot in lowest terms" % j)
            self.pivot_rows.append(p // d)
        check(all(p < q for p, q in zip(self.pivot_rows, self.pivot_rows[1:])),
              "basis pivot rows do not strictly increase")
        pivots = set(self.pivot_rows)
        for p, (_, vec) in zip(self.pivot_rows, self.columns):
            check(all(k == p * d or k // d not in pivots for k in vec),
                  "basis column with pivot row %d meets another pivot row" % p)
        self.lcm = math.lcm(1, *(den for den, _ in self.columns))
        self._basis = None

    @classmethod
    def from_vectors(cls, space: CosetSpace, w: int, extended: bool,
                     vectors: Sequence, field=QQ) -> "Subspace":
        """The span of rational vectors, dicts or dense (``reduced_column_basis``)."""
        ambient = space.size * ((w + 3) if extended else (w + 1))
        for vec in vectors:
            if not isinstance(vec, dict) and len(vec) != ambient:
                raise PolySpaceError("vector of length %d in an ambient space of "
                                     "dimension %d" % (len(vec), ambient))
        try:
            columns = reduced_column_basis(field, [vec if isinstance(vec, dict) else dict(
                (c, v) for c, v in enumerate(vec) if v) for vec in vectors], ambient)
        except ExactAlgebraError as exc:
            raise PolySpaceError(str(exc)) from None
        return cls(space, w, extended, columns, field)

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def basis(self) -> DenseMatrix:
        if self._basis is None:
            self._basis = DenseMatrix.from_int_columns(self.field, self.columns, self.ambient)
        return self._basis

    def coordinates_of(self, coords: Sequence) -> Optional[tuple]:
        """Coordinates in the basis of a vector of field scalars, or None
        outside the span."""
        if len(coords) != self.ambient:
            raise PolySpaceError("vector of length %d in an ambient space of "
                                 "dimension %d" % (len(coords), self.ambient))
        field = self.field
        cleared = clear_denominators(coords if field is QQ else
                                     [c for x in coords for c in scalar_coords(field, x)])
        if cleared is None:
            raise PolySpaceError("vector entries outside the field of the subspace")
        return self._int_coordinates_of(*cleared)

    def _int_coordinates_of(self, c: Sequence, D: int) -> Optional[tuple]:
        """Coordinates of c / D, c integer at the real indices i * d + t."""
        d = self.field.degree
        if len(c) != self.ambient * d:
            raise PolySpaceError("image of length %d in an ambient space of "
                                 "dimension %d" % (len(c) // d, self.ambient))
        if any(self._residual(c)):
            return None
        pivots = {j * d + t: c[p * d + t] for j, p in enumerate(self.pivot_rows)
                  for t in range(d) if c[p * d + t]}
        return tuple(column_entries(self.field, D, pivots, self.dim))

    def _residual(self, c: Sequence) -> list:
        """L c - sum_j (L / d_j) c[pivot_j] n_j for the columns n_j / d_j and
        L = ``lcm`` of the d_j, in integers over the stored nonzeros (field
        products: ``mult_columns``).  Each column is 1 at its own pivot row
        and 0 at the others, so c is in the span iff this is zero.  It is
        linear in c over Z.
        """
        field, d, L = self.field, self.field.degree, self.lcm
        r = [L * v for v in c]
        for p, (dj, nj) in zip(self.pivot_rows, self.columns):
            a = c[p * d:(p + 1) * d]
            if not any(a):
                continue
            if d == 1:
                f = a[0] * (L // dj)
                for k, v in nj.items():
                    r[k] -= f * v
                continue
            cols = mult_columns(field, [x * (L // dj) for x in a])
            for k, v in nj.items():
                base = k - k % d
                for s, m in enumerate(cols[k % d]):
                    r[base + s] -= v * m
        return r

    def contains(self, vec) -> bool:
        return self.coordinates_of(_coords_of(vec)) is not None

    def vector(self, j: int):
        den, vec = self.columns[j]
        return self.vector_from_coords(column_entries(self.field, den, vec, self.ambient))

    def vector_from_coords(self, coords: Sequence):
        if self.extended:
            return ExtPolyVector.from_tilde_coords(self.space, self.w, coords)
        return PolyVector.from_coords(self.space, self.w, coords)

    def vectors(self) -> list:
        return [self.vector(j) for j in range(self.dim)]

    def restricted_matrix(self, apply, den: int, norm: int) -> DenseMatrix:
        """Matrix on the basis of a rational linear map of the ambient space.

        ``apply`` takes a list of ``ambient`` integer coordinates to den
        times its image: an integer matrix A whose rows, and the rows of any
        linear check ``apply`` makes (the pole rows of a HeckeOperator), have
        absolute sums at most ``norm``.  The map is rational, so over
        Q(zeta_m) it acts on each zeta^t coordinate of a column separately.

        One apply per zeta^t (Kronecker substitution): the integer columns
        n_j are packed into sum_j X^j n_j, so the image is sum_j X^j A n_j and
        its residual (``_residual``, linear) is sum_j X^j r_j, r_j that of
        A n_j.  X = 2^b is above the bound R of the digits: let m be the
        largest |entry| of the n_j, q the largest sum of (L / d_j)
        |n_j[i d + s]| over j and s at one row i, and kappa the largest sum
        over t of |coordinate r of zeta^(t + s)| over all s, r < d (1 over
        Q).  An entry of A n_j, or a check of ``apply`` on n_j, is at most
        I = norm m.  An entry of r_j is L (A n_j)[k] minus, over i, L / d_i
        times the field product of A n_j at pivot i (coordinates at most I)
        with n_i at k, so it is at most R = norm m (L + kappa q), and
        R >= 2 I as L, kappa, q >= 1 (q counts L at a pivot row).  Hence:
        - a sum_j X^j a_j with all |a_j| <= R < X is zero iff every a_j is,
          and otherwise X^v exactly divides it, v the least j with a_j != 0:
          the packed residual checks every image exactly and names the least
          failing column, and a check of ``apply`` holds on the packed
          vector iff it holds on every column;
        - at a pivot row the digits of the packed image in [-X/2, X/2) are
          the (A n_j)[p_i], since 2 I <= R < X: the entries, over d_j den.
        An image that leaves the extended model makes ``apply`` raise before
        any residual is read.
        """
        field, d, n, dim = self.field, self.field.degree, self.ambient, self.dim
        if not dim:
            return DenseMatrix.from_columns(field, [], nrows=0)
        b = _radix_bits(self._digit_bound(norm))
        packed = [[0] * n for _ in range(d)]
        for j, (_, vec) in enumerate(self.columns):
            for k, v in vec.items():
                packed[k % d][k // d] += v << (b * j)
        image = [0] * (n * d)
        for t, values in enumerate(packed):
            image[t::d] = apply(values)
        # 2-adic valuations of the nonzero entries; // b gives the X-adic ones
        fails = [(r & -r).bit_length() - 1 for r in self._residual(image) if r]
        if fails:
            raise PolySpaceError("image of basis vector %d leaves the subspace"
                                 % (min(fails) // b))
        offsets: dict = {}
        low = _digit_offset(b, dim, offsets)
        high = (1 << (b * dim)) - low  # [-low, high): at most dim digits
        pivots = [{} for _ in range(dim)]  # column j -> {i * d + t: (A n_j)[p_i d + t]}
        for i, p in enumerate(self.pivot_rows):
            for t in range(d):
                v = image[p * d + t]
                check(-low <= v < high,
                      "packed image at pivot row %d has more digits than "
                      "columns: norm is below the map's" % p)
                digits: dict = {}
                _balanced_digits(v, b, dim, 0, digits, offsets)
                for j, a in digits.items():
                    pivots[j][i * d + t] = a
        return DenseMatrix.from_columns(
            field, [column_entries(field, cden * den, pivots[j], dim)
                    for j, (cden, _) in enumerate(self.columns)], nrows=dim)

    def _digit_bound(self, norm: int) -> int:
        """R = norm m (L + kappa q) of ``restricted_matrix``."""
        d, L = self.field.degree, self.lcm
        row_sums = [0] * self.ambient
        for den, vec in self.columns:
            f = L // den
            for k, v in vec.items():
                row_sums[k // d] += f * abs(v)
        m = max(max(map(abs, vec.values())) for _, vec in self.columns)
        return norm * m * (L + _zeta_spread(self.field) * max(row_sums))

    def times(self, kernel: Sequence, field=None) -> "Subspace":
        """The subspace B K, for K the cleared columns (``kernel_columns``) of
        a basis in B-coordinates over field, by default the field of B.  B
        is rational or over that same field."""
        field = self.field if field is None else field
        if self.field is not QQ and self.field is not field:
            raise PolySpaceError("B K needs K over the field of B")
        dB, d, L = self.field.degree, field.degree, self.lcm
        # zeta[t][s]: coordinates of zeta^t zeta^s
        zeta = [mult_columns(field, [int(s == t) for s in range(d)]) for t in range(d)]
        out = []
        for kden, kvec in kernel:
            acc: dict = {}
            for jt, x in kvec.items():
                j, t = divmod(jt, d)
                den, vec = self.columns[j]
                f = x * (L // den)
                if dB == 1:
                    for k, v in vec.items():
                        acc[k * d + t] = acc.get(k * d + t, 0) + f * v
                    continue
                for ks, v in vec.items():
                    base = ks - ks % d
                    for r, m in enumerate(zeta[t][ks % d]):
                        if m:
                            acc[base + r] = acc.get(base + r, 0) + f * v * m
            vec = {k: v for k, v in acc.items() if v}
            g = math.gcd(L * kden, *vec.values())
            out.append((L * kden // g, {k: v // g for k, v in vec.items()}))
        return Subspace(self.space, self.w, self.extended, out, field)

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d%s)" % (
            self.dim, self.ambient, ", extended" if self.extended else "")


def _coords_of(vec) -> tuple:
    if isinstance(vec, ExtPolyVector):
        return vec.tilde_coords()
    if isinstance(vec, PolyVector):
        return vec.coords()
    return tuple(vec)


def _radix_bits(bound: int) -> int:
    """The least b >= 1 with 2^b > bound: the packing radix of
    ``Subspace.restricted_matrix``."""
    return max(1, bound.bit_length())


def _digit_offset(b: int, n: int, offsets: dict) -> int:
    """c_n = sum_(j < n) 2^(b - 1) 2^(b j), the n-digit number whose base-2^b
    digits are all 2^(b - 1), memoized in offsets."""
    if n not in offsets:
        offsets[n] = ((1 << (b * n)) - 1) // ((1 << b) - 1) << (b - 1)
    return offsets[n]


def _balanced_digits(v: int, b: int, n: int, at: int, out: dict, offsets: dict) -> None:
    """Write the nonzero digits a_j in [-2^(b - 1), 2^(b - 1)) of
    v = sum_(j < n) a_j 2^(b j) to out[at + j], by halving.  The low h digits
    of v sum to the one lo = v mod 2^(b h) in [-c_h, 2^(b h) - c_h)
    (``_digit_offset``), and (v - lo) / 2^(b h) has the other n - h.  v must
    lie in [-c_n, 2^(b n) - c_n), the numbers of at most n digits."""
    if not v:
        return
    if n == 1:
        out[at] = v
        return
    h = n >> 1
    c = _digit_offset(b, h, offsets)
    lo = ((v + c) & ((1 << (b * h)) - 1)) - c
    _balanced_digits(lo, b, h, at, out, offsets)
    _balanced_digits((v - lo) >> (b * h), b, n - h, at + h, out, offsets)


def _zeta_spread(field) -> int:
    """kappa = max over s, r < d of sum_t |coordinate r of zeta^(t + s)|:
    a coordinate of a y is at most kappa max|a_t| sum_s |y_s|.  1 over Q."""
    d = field.degree
    zeta = [mult_columns(field, [int(s == t) for s in range(d)]) for t in range(d)]
    return max(sum(abs(zeta[t][s][r]) for t in range(d)) for s in range(d) for r in range(d))


# ----------------------------------------------------------------------
# relation systems

def _cleared_u(w: int, t: int, j: int) -> list:
    """X^j, X^j|U or X^j|U^2 (t = 0, 2, 3) cleared by X(X-1), the only
    denominators the U-action produces, j = -1, ..., w+1: X^j X(X-1),
    (X-1)^(j+1) X^(w-j+1) and (-1)^j X (X-1)^(w-j+1), of degree <= w+3."""
    if t == 0:
        return [0] * (j + 1) + [-1, 1]
    if t == 2:
        return poly_mul(_pow_linear(1, -1, j + 1), _pow_linear(1, 0, w - j + 1))
    return poly_mul([0, (-1) ** (j % 2)], _pow_linear(1, -1, w - j + 1))


def _u_table(w: int, extended: bool) -> list:
    """The U rows of ``_label_rows`` as tables of terms (t, j, v): for W the
    matrices of U and U^2, row i the coefficient of X^i in P|(1+U+U^2); for
    Wtilde that relation cleared by X(X-1) (``_cleared_u``), row d its
    degree d = 0, ..., w+3, j counted from X^(-1)."""
    if not extended:
        units = [tuple(int(i == j) for i in range(w + 1)) for j in range(w + 1)]
        um = [(t, [slash_poly(e, g, w) for e in units]) for t, g in ((2, MAT_U), (3, MAT_U2))]
        return [[(0, i, 1)] + [(t, j, col[i]) for t, cols in um for j, col in enumerate(cols)
                               if col[i]] for i in range(w + 1)]
    table = [[] for _ in range(w + 4)]
    for t in (0, 2, 3):
        for j in range(-1, w + 2):
            for deg, v in enumerate(_cleared_u(w, t, j)):
                if v:
                    table[deg].append((t, j + 1, v))
    return table


def _write_rows(table, at, out: list) -> None:
    """Append the nonzero rows of a table of terms (t, j, v), each v s x at
    column base + j for the t-th target (base, s) of at; the terms of a row
    are summed only where two targets meet, at a label that S or U fixes."""
    for terms in table:
        row = {at[t][0] + j: v * at[t][1] for t, j, v in terms}
        if len(row) < len(terms):
            row = {}
            for t, j, v in terms:
                base, s = at[t]
                row[base + j] = row.get(base + j, 0) + v * s
            row = {c: v for c, v in row.items() if v}
        if row:
            out.append(row)


def _label_rows(space: CosetSpace, w: int, extended: bool):
    """Per label l, in label order: whether l is the least label of its
    U-orbit, then the nonempty S rows and U rows of W, or of Wtilde when
    ``extended``, at l: the whole system at every label, the certificate
    of ``verify`` and the tests.  A row is read off a table of terms
    (t, j, v), each v s P[l'][j] for the t-th of the targets (l', s) = l,
    l S^(-1), l U^(-1), l U^(-2), j counted from X^0, or from X^(-1) for
    Wtilde.  The S rows read X^i|S = (-1)^(w-i) X^(w-i), the U rows
    ``_u_table``."""
    low, n = (-1, w + 3) if extended else (0, w + 1)
    s_table = [[(0, i - low, 1), (1, w - i - low, (-1) ** ((w - i) % 2))]
               for i in range(low, w + 1 - low)]
    u_table = _u_table(w, extended)
    for l in range(space.size):
        acts = [space.tables[g][l] for g in ("Sinv", "Uinv", "U2inv")]
        at = [(l * n, 1)] + [(l2 * n, s ** w) for l2, s in acts]
        rows = ([], [])
        _write_rows(s_table, at, rows[0])
        _write_rows(u_table, at, rows[1])
        yield l <= min(acts[1][0], acts[2][0]), rows[0], rows[1]


def _orbit_rows(space: CosetSpace, w: int, extended: bool) -> list:
    """The U rows of W, or of Wtilde, at the least label of each U-orbit:
    Q = P|(1+U+U^2) has Q|U = Q, so the rows at one label of an orbit span
    those at the other two (Stein 2007, ch. 8).  For W they are the rows of
    ``_u_table``.  Wtilde's are W's rows plus its cusp tails: on the
    interior columns its cleared identity X(X-1) Q + T = 0 is X(X-1) times
    W's relation Q, and T comes from the columns X^(-1) and X^(w+1).  Its
    degrees 0 and w+3 are ties (``_presentations``).  Its degrees
    d = 1, ..., w+2, Q_(d-2) - Q_(d-1) + T_d = 0, have the partial sums
    T_1 + ... + T_(i+1) - Q_i: they span the rows Q_i + sum_(k=i+2)^(w+2)
    T_k = 0, i = 0, ..., w, Q_i row i of W's table with j moved to j + 1,
    written here, and the tail-only row sum_(k=1)^(w+2) T_k = 0, the
    identity at X = 1 less its degrees 0 and w+3: a sum of U-end ties,
    which the classes hold as the label signs of U compose (U^3 = -I,
    checked in ``CosetSpace._build``)."""
    n, table = w + 1, _u_table(w, False)
    if extended:
        n = w + 3
        tails = [(t, j + 1, _cleared_u(w, t, j)) for t in (0, 2, 3) for j in (-1, w + 1)]
        table = [[term for term in [(t, j + 1, v) for t, j, v in q]
                  + [(t, j, sum(p[i + 2:w + 3])) for t, j, p in tails] if term[2]]
                 for i, q in enumerate(table)]
    uinv, u2inv = space.tables["Uinv"], space.tables["U2inv"]
    rows: list = []
    for l in range(space.size):
        (l2, s2), (l3, s3) = uinv[l], u2inv[l]
        if l <= l2 and l <= l3:
            _write_rows(table, ((l * n, 1), None, (l2 * n, s2 ** w), (l3 * n, s3 ** w)), rows)
    return rows


def _tie_edges(rows) -> dict:
    """x -> [(y, g)] for rows of one or two nonzeros: u x_a + v x_b = 0 as
    x_b = -u/v x_a and x_a = -v/u x_b, u x_a = 0 as x_a = -x_a."""
    edges: dict = {}
    for row in rows:
        pair = [*row.items()] * 2
        for (a, u), (b, v) in zip(pair, pair[1:3]):
            edges.setdefault(a, []).append((b, Fraction(-u, v) if u % v else -u // v))
    return edges


def _tie_classes(columns, edges) -> tuple:
    """(image, roots): image c -> (root, f), x_c = f x_root, for the classes
    of the ties x_y = g x_x of (y, g) in edges(x), each walked once from its
    least column, the root, over increasing columns; f = 0 where ties
    disagree, as x_x = 0 x_x does.  roots is the set of roots of the
    nonzero classes."""
    image: dict = {}
    roots = set()
    for c in columns:
        if c in image:
            continue
        f, todo, ok = {c: 1}, [c], True
        while todo:
            x = todo.pop()
            for y, g in edges(x):
                if y not in f:
                    f[y] = f[x] * g
                    todo.append(y)
                elif f[y] != f[x] * g:
                    ok = False
        if ok:
            roots.add(c)
        for y, g in f.items():
            image[y] = (c, g if ok else 0)
    return image, roots


def _over_roots(rows, image: dict) -> list:
    """The distinct nonzero rows over the roots of a class map, primitive."""
    out: dict = {}
    for row in rows:
        new, fractional = {}, False
        for c, v in row.items():
            r, f = image[c]
            if f:
                v *= f
                fractional = fractional or type(v) is not int
                new[r] = new.get(r, 0) + v
        if fractional:
            D = math.lcm(*(x.denominator for x in new.values()))
            new = {c: int(x * D) for c, x in new.items()}
        new = _normalize_int_row({c: x for c, x in new.items() if x})
        if new:
            out.setdefault(frozenset(new.items()), new)
    return list(out.values())


def _presentations(space: CosetSpace, w: int, extended: bool, signs=(0,)):
    """Per sign, (roots, image, merged, rows): the period system of W, W+
    or W- (sign 0, 1, -1), or of Wtilde, its two-term relations folded and
    its longer rows over the roots of their classes, each row once (Stein
    2007, ch. 8).  image is the class map c -> (root, f), x_c = f x_root,
    of the two-term classes, merged None or, for W+-, the class map of
    their roots over the eps ties, roots the set of roots of the nonzero
    classes.  The rows lie over the roots only (checked here, under -O
    too), so the rank of the system is ncols - len(roots) plus the rank of
    the rows; its kernel is ``_presented_kernel``.

    The long U rows are written at the least label of each U-orbit
    (``_orbit_rows``); for Wtilde they are W's U rows plus its cusp tails.
    Where U fixes the label a row can shrink to one or two nonzeros, a tie.
    The other ties x_y = g x_x go from (l, j) to (l S^(-1), m - j), m the
    last coordinate; for Wtilde from X^(-1) at l to X^(w+1) at l U^(-1) and
    from X^(w+1) at l to X^(-1) at l U^(-2), so that tails chain along a
    cusp's T-cycle.  For W+- the tie x_k = sign t^w (-1)^j x_c of
    P|eps = sign P, c = (l, j), k = (eps(l), j), t the label sign, is read
    at every c between the roots of c and k, and the roots are walked
    again: the classes of W are walked once."""
    n, par = (w + 3, 1) if extended else (w + 1, -1)
    m = n - 1
    sinv, uinv, u2inv, eps = (space.tables[g] for g in ("Sinv", "Uinv", "U2inv", "eps"))
    rows = _orbit_rows(space, w, extended)
    ties = _tie_edges(row for row in rows if len(row) <= 2)

    def edges(x):
        l, j = divmod(x, n)
        l1, s = sinv[l]
        # the S row at (l, j) is x + e s x' = 0, e = -par (-1)^(w - j)
        out = [(l1 * n + m - j, par * (-1) ** ((w - j) % 2) * s ** w)] + ties.get(x, [])
        if extended and j in (0, m):  # the U rows in degrees 0 and w+3
            l1, s = (uinv if j == 0 else u2inv)[l]
            out.append((l1 * n + m - j, (-1) ** (w * (j == 0)) * s ** w))
        return out

    image, roots = _tie_classes(range(space.size * n), edges)
    rows = _over_roots((row for row in rows if len(row) > 2), image)
    eps_ties: dict = {}  # root -> [(root', h)]: x_root' = h x_root where P|eps = P
    for c in range(space.size * n) if any(signs) else ():
        (l2, t), j = eps[c // n], c % n
        (r, f), (rk, fk) = image[c], image[l2 * n + j]
        u = (-1) ** j * t ** w * f
        # a class tied to a zero class is zero: x_r = 0 x_r disagrees with x_r = x_r
        eps_ties.setdefault(r, []).append(
            (rk, Fraction(u, fk) if u % fk else u // fk) if u and fk else (r, 0))
    for sign in signs:
        merged, out_roots, out_rows = None, roots, rows
        if sign:
            merged, out_roots = _tie_classes(
                sorted(eps_ties), lambda r: [(y, sign * h) for y, h in eps_ties[r]])
            out_rows = _over_roots(rows, merged)
        check(all(out_roots.issuperset(row) for row in out_rows),
              "a presented row holds a folded column, not only roots")
        yield out_roots, image, merged, out_rows


def _presented_kernel(roots, image: dict, merged, rows) -> list:
    """The kernel columns (``kernel_columns``) of a presented system
    (``_presentations``) over all its columns: the kernel of the rows over
    the roots, numbered in increasing order to keep last-column pivots and
    so the unique reduced form, unfolded by x_c = f x_root at every column
    c of a nonzero class (through ``merged`` where given), over the least
    denominator.  A class lies above its root, where f = 1: the pivot."""
    index = {r: i for i, r in enumerate(sorted(roots))}
    members: dict = {}  # root index -> [(c, f)]
    for c, (r, f) in image.items():
        if merged is not None:
            r, g = merged[r]
            f *= g
        if f:
            members.setdefault(index[r], []).append((c, f))
    out = []
    for den, vec in kernel_columns([{index[c]: v for c, v in row.items()} for row in rows],
                                   len(index)):
        full = {c: f * v for i, v in vec.items() for c, f in members[i]}
        if any(type(x) is not int for x in full.values()):
            full = {c: Fraction(x) / den for c, x in full.items()}
            den = math.lcm(*(x.denominator for x in full.values()))
            full = {c: int(x * den) for c, x in full.items()}
        out.append((den, full))
    return out


def _check_weight(space: CosetSpace, w: int) -> None:
    """Every builder takes w = k - 2 of the coset space's weight k."""
    if w != space.k - 2:
        raise PolySpaceError("weight mismatch with coset space")


def build_W(space: CosetSpace, w: int, sign: int = 0) -> Subspace:
    """The period polynomial space W_w^Gamma as an exact subspace; for sign
    +1 or -1 its part W+ or W- where P|eps = sign P, from one elimination of
    the period rows and the eps rows (Stein 2007, ch. 8).  The reduced
    column echelon basis is unique, so it is the one ``eps_split`` gives."""
    _check_weight(space, w)
    if type(sign) is not int or sign not in (-1, 0, 1):
        raise PolySpaceError("sign must be -1, 0 or 1, got %r" % (sign,))
    if space.degenerate:
        return Subspace.from_vectors(space, w, False, [])
    presentation, = _presentations(space, w, False, (sign,))
    return Subspace(space, w, False, _presented_kernel(*presentation))


def w_dimensions(space: CosetSpace, w: int) -> tuple:
    """(dim W, dim W+, dim W-) by rank computations only, for large levels:
    each is the number of roots of its presentation, ncols less the columns
    it folds, less the rank of its long rows (``_presentations``).  No
    kernel basis and no pivot row of a folded column is built.
    """
    _check_weight(space, w)
    if space.degenerate:
        return (0, 0, 0)
    dim_w, dim_plus, dim_minus = (len(roots) - sparse_int_rank(rows) for roots, _, _, rows
                                  in _presentations(space, w, False, (0, 1, -1)))
    if dim_plus + dim_minus != dim_w:
        raise PolySpaceError("eps eigenspace dimensions do not add up")
    return (dim_w, dim_plus, dim_minus)


def _tail_families(space: CosetSpace, w: int) -> list:
    """Per-cusp constant families {l: c_l} with c_A = c_(AT), c_(AJ) = (-1)^w c_A.

    A family is walked once around its cusp's signed T-cycle from the
    representative.  For even w every cusp carries one; for odd w only the
    regular cusps do, where the signs around the cycle multiply to +1 and
    -1 is not in the group.
    """
    families = []
    for cl in space.cusp_classes().classes:
        if w % 2 and not cl.regular:
            continue
        fam, l, c = {}, cl.representative, 1
        while l not in fam:
            fam[l] = c
            l, s = space.signed_act(l, MAT_T, w)
            c *= s
        families.append(fam)
    return families


def _coboundary_and_D_vectors(space: CosetSpace, w: int) -> tuple:
    """Spanning vectors {coordinate: value} of C and of D, one pair per tail
    family c.  At label l1 = l S^(-1), up to the sign s1, the C vector is
    c_l1 at X^0 and -s1 c_l1 at X^w of l, the D vector c_l1 at the tail of
    l1 and (-1)^w s1 c_l1 at X^(-1) of l (``_tilde_ties``): only the labels
    of c's cusp and their S-images."""
    n, nt = w + 1, w + 3
    cvecs, dvecs = [], []
    for fam in _tail_families(space, w):
        cvec, dvec = {}, {}
        for l1, c in fam.items():
            l = space.tables["S"][l1][0]
            s = space.signed_act(l, MAT_SINV, w)[1] * c
            cvec[l1 * n] = cvec.get(l1 * n, 0) + c
            cvec[l * n + w] = cvec.get(l * n + w, 0) - s
            dvec[l1 * nt + w + 2], dvec[l * nt] = c, (-1) ** w * s
        cvecs.append(cvec)
        dvecs.append(dvec)
    return cvecs, dvecs


def build_coboundary_and_D(space: CosetSpace, w: int) -> tuple:
    """(C, D): the coboundary space and the X^(w+1)-tail space."""
    _check_weight(space, w)
    return tuple(Subspace.from_vectors(space, w, extended, vecs)
                 for extended, vecs in zip((False, True), _coboundary_and_D_vectors(space, w)))


def coboundary_and_D_dimensions(space: CosetSpace, w: int) -> tuple:
    """(dim C, dim D): the ranks of the families of ``build_coboundary_and_D``."""
    _check_weight(space, w)
    return tuple(sparse_int_rank([{c: v for c, v in vec.items() if v} for vec in vecs])
                 for vecs in _coboundary_and_D_vectors(space, w))


def build_W_extended(space: CosetSpace, w: int) -> Subspace:
    """The space Wtilde of period polynomials of all modular forms.

    For k = 2 the constraint sum_A c_A = 0 is not imposed; it must emerge
    from the kernel and is asserted after the fact.
    """
    _check_weight(space, w)
    if space.degenerate:
        return Subspace.from_vectors(space, w, True, [])
    presentation, = _presentations(space, w, True)
    sub = Subspace(space, w, True, _presented_kernel(*presentation))
    _check_tilde_columns(sub)
    if w == 0 and any(sum(v for k, v in vec.items() if k % (w + 3) == w + 2)
                      for _, vec in sub.columns):
        raise PolySpaceError("weight-2 tail constants do not sum to zero")
    return sub


def wtilde_dimension(space: CosetSpace, w: int) -> int:
    """dim Wtilde by a rank computation only, for large indices: the
    number of roots of its presentation, W's U rows plus the cusp tails,
    less the rank of its long rows (``w_dimensions``)."""
    _check_weight(space, w)
    if space.degenerate:
        return 0
    (roots, _, _, rows), = _presentations(space, w, True)
    return len(roots) - sparse_int_rank(rows)


# ----------------------------------------------------------------------
# eps splitting and chi components

def eps_split(obj):
    """Split into +1 / -1 eigencomponents of the eps involution: on a
    subspace B, B ker(E -+ 1) for the matrix E of eps on B.  For the parts
    of C, Wtilde and chi components; W+ and W- come from ``build_W`` with a
    sign in one elimination each."""
    if isinstance(obj, (PolyVector, ExtPolyVector)):
        e = obj.eps()
        half = Fraction(1, 2)
        return (obj + e).scale(half), (obj - e).scale(half)
    if not isinstance(obj, Subspace):
        raise PolySpaceError("cannot eps-split %r" % obj)
    sub = obj
    if sub.extended:
        _check_tilde_columns(sub)
    eps = eps_coordinates(sub.space, sub.w, sub.extended)
    emat = sub.restricted_matrix(lambda values: [s * values[k] for k, s in eps], 1, 1)
    return sub.times(eigen_columns([(emat, 1)])), sub.times(eigen_columns([(emat, -1)]))


def cminus_trivial(N: int) -> bool:
    """Whether (C_w^{Gamma0(N)})^- = 0, computed from the built space."""
    space = build_coset_space(GAMMA0, N, 4)
    C, _ = build_coboundary_and_D(space, 2)
    _, minus = eps_split(C)
    return minus.dim == 0


def chi_component(sub: Subspace, chi) -> Subspace:
    """The chi-isotypic part of a subspace over the Gamma1(N) coset space.

    When chi(-1) != (-1)^k the component is zero (warning case); otherwise
    it is B times the joint kernel of the M_u - chi(u) I over the
    generators u of (Z/N)*, M_u the matrix of the diamond operator
    (P|<u>)(l) = s^w P(l u) on B, (l u, s) the label and sign of the row
    u (c, d) of l (Stein 2007), realified over the cyclotomic field
    of chi.  B is rational or over that field and must be mapped into
    itself by every <u>, as W, Wtilde, C, D and their eps, chi and Hecke
    parts are; otherwise ``Subspace.restricted_matrix`` refuses it ("image
    of basis vector ... leaves the subspace"), also under -O.
    """
    space = sub.space
    if space.kind == GAMMA0:
        raise PolySpaceError("chi components live over Gamma1(N)")
    if chi.N != space.N:
        raise PolySpaceError("character modulus does not match the level")
    field = chi.field if chi.field is not None else QQ
    if sub.field is not QQ:
        if field is not QQ and field is not sub.field:
            raise PolySpaceError("character values outside the field of the subspace")
        field = sub.field
    if not chi.is_even_for_weight(space.k):
        warnings.warn("chi(-1) != (-1)^k: the chi-component is zero",
                      stacklevel=2)
        return Subspace(space, sub.w, sub.extended, [], field)
    n = sub.w + 3 if sub.extended else sub.w + 1
    pairs = []
    # (Z/N)* is trivial for N <= 2: <1> is the identity and chi(1) = 1
    for u, _ in _unit_group_generators(space.N) or [(1, 1)]:
        signed = [space.label_of_row(u * c, u * d) for c, d in space.labels]
        perm = [(lu * n + i, s ** sub.w) for lu, s in signed for i in range(n)]
        diamond = sub.restricted_matrix(
            lambda values, perm=perm: [s * values[k] for k, s in perm], 1, 1)
        pairs.append((diamond, chi(u)))
    return sub.times(eigen_columns(pairs, field), field)
