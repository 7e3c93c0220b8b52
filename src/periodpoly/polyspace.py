"""Spaces of period polynomials and the pairings on them.

A PolyVector assigns one degree <= w polynomial to every coset label of a
CosetSpace; an ExtPolyVector adds one cusp constant per label, encoding the
X^(w+1) / X^(-1) tails of period polynomials of noncuspidal forms.  The
period polynomial space W, the coboundary space C, the tail space D and the
extended space Wtilde are all cut out by exact linear algebra over Q.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Optional, Sequence

# reduced_column_basis is unused here but stays importable by this name,
# which perfbench's tracer rebinds and its tests check.
from .exactalg import (DenseMatrix, PeriodPolyError, QQ, check, clear_denominators,
                       eigen_kernel, kernel_basis, poly_mul, reduced_column_basis,
                       scalar_from_str, scalar_to_str, sparse_int_kernel,
                       sparse_int_pivots, sparse_int_rank)
from .cosets import (CosetSpace, Mat2, MAT_EPS, MAT_S, MAT_SINV, MAT_T,
                     MAT_TINV, MAT_U, MAT_U2, MAT_U2INV, MAT_UINV, GAMMA0,
                     build_coset_space)


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


def slash_matrix(g: Mat2, w: int) -> list:
    """Matrix M with (X^j | g) = sum_i M[i][j] X^i, integer entries."""
    cols = [slash_poly(tuple(1 if t == j else 0 for t in range(w + 1)), g, w)
            for j in range(w + 1)]
    return [[cols[j][i] for j in range(w + 1)] for i in range(w + 1)]


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
        vals = []
        for l in range(self.space.size):
            l2, s = self.space.signed_act(l, MAT_EPS, self.w)
            vals.append(tuple(s * (-1) ** i * a for i, a in enumerate(self.values[l2])))
        return PolyVector(self.space, self.w, vals)

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
            self._check_tails()

    def _check_tails(self):
        # c_A = c_(AT), i.e. c_l = s^w c_(l.T) in the label model
        for l in range(self.space.size):
            lt, s = self.space.signed_act(l, MAT_T, self.w)
            if self.tails[l] != s * self.tails[lt]:
                raise PolySpaceError("cusp constants not constant on T-orbits")

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
        tails = []
        for l in range(self.space.size):
            l2, s = self.space.signed_act(l, MAT_EPS, self.w)
            tails.append((-1) ** (self.w + 1) * s * self.tails[l2])
        return ExtPolyVector(self.space, self.w, self.poly.eps(), tails, check=False)

    def tilde_coords(self) -> tuple:
        """Coordinates over X^(-1), X^0, ..., X^(w+1) per label."""
        out = []
        w = self.w
        for l in range(self.space.size):
            l1, s1 = self.space.signed_act(l, MAT_SINV, w)
            out.append((-1) ** w * s1 * self.tails[l1])
            out.extend(self.poly.values[l])
            out.append(self.tails[l])
        return tuple(out)

    @classmethod
    def from_tilde_coords(cls, space: CosetSpace, w: int, coords: Sequence,
                          check: bool = True) -> "ExtPolyVector":
        n = w + 3
        vals, tails = [], []
        for l in range(space.size):
            block = coords[l * n:(l + 1) * n]
            vals.append(tuple(block[1:w + 2]))
            tails.append(block[w + 2])
        vec = cls(space, w, PolyVector(space, w, vals), tails, check=check)
        if check and tuple(coords) != vec.tilde_coords():
            raise PolySpaceError("X^(-1) coefficients inconsistent with tails")
        return vec

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

    The basis is kept in reduced column echelon form, which makes both the
    representation canonical and membership tests a cheap read-off of the
    pivot coordinates followed by an exact residual.  The constructor checks
    that form.  If B is such a basis and K one in B-coordinates, then B K is
    one too, its pivot rows being B's at K's pivots: the eps and chi parts
    are built that way, without a second elimination.
    """

    def __init__(self, space: CosetSpace, w: int, extended: bool,
                 basis: DenseMatrix, field=QQ):
        self.space = space
        self.w = w
        self.extended = extended
        self.basis = basis
        self.field = field
        self.ambient = basis.nrows
        self.pivot_rows = [next((i for i, x in enumerate(col) if x), None)
                           for col in basis.columns()]
        check(all(p is not None for p in self.pivot_rows), "zero basis column")
        check(all(p < q for p, q in zip(self.pivot_rows, self.pivot_rows[1:])),
              "basis pivot rows do not strictly increase")
        for j, p in enumerate(self.pivot_rows):
            row = basis.rows[p]
            check(row[j] == 1 and not any(row[:j]) and not any(row[j + 1:]),
                  "basis pivot row %d is not a unit row" % p)
        self._column_data = None

    @classmethod
    def from_vectors(cls, space: CosetSpace, w: int, extended: bool,
                     vectors: Sequence[Sequence], field=QQ) -> "Subspace":
        """The span of rational vectors; over other fields only the zero span.

        The reduced column echelon basis of a span is the fully reduced row
        echelon form of its vectors, pivots taken at first columns.  The
        sparse eliminator pivots at last columns, so each vector goes in
        cleared of denominators with column c read as ambient - 1 - c; each
        pivot row, mapped back and divided by its pivot entry, is a column
        of that unique basis, in order of increasing pivot row.
        """
        ambient = space.size * ((w + 3) if extended else (w + 1))
        rows = []
        for vec in vectors:
            if len(vec) != ambient:
                raise PolySpaceError("vector of length %d in an ambient space of "
                                     "dimension %d" % (len(vec), ambient))
            entries = {ambient - 1 - c: v for c, v in enumerate(vec) if v}
            cleared = clear_denominators(list(entries.values())) if field is QQ else None
            if cleared is None:
                if entries:
                    raise PolySpaceError("only spans of rational vectors are "
                                         "built from vectors")
                continue
            rows.append(dict(zip(entries, cleared[0])))
        cols = []
        for pc, row in reversed(sparse_int_pivots(rows, reduce_fully=True)):
            col = [QQ.zero] * ambient
            pv = row[pc]
            for c, v in row.items():
                col[ambient - 1 - c] = Fraction(v, pv)
            cols.append(col)
        basis = DenseMatrix.from_columns(field, cols, nrows=ambient)
        return cls(space, w, extended, basis, field)

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def _columns(self) -> tuple:
        """(cleared columns, L, support), built on first use.

        Column j is values_j / d_j, with integer values over QQ and the
        field's own entries with d_j = 1 otherwise; L = lcm(d_j), and the
        support lists (pivot_j, nonzeros of values_j, L / d_j).
        """
        if self._column_data is None:
            cols = []
            for col in self.basis.columns():
                c = clear_denominators(col) if self.field is QQ else None
                cols.append(c if c is not None else (col, 1))
            L = 1
            for _, den in cols:
                L = math.lcm(L, den)
            support = [(piv, [(i, v) for i, v in enumerate(col) if v], L // den)
                       for piv, (col, den) in zip(self.pivot_rows, cols)]
            self._column_data = (cols, L, support)
        return self._column_data

    def cleared_columns(self) -> list:
        """(values, den) per basis column, the column being values / den."""
        return self._columns()[0]

    def coordinates_of(self, coords: Sequence) -> Optional[tuple]:
        """Coordinates in the basis, or None when coords lies outside the span.

        With coords cleared to c / D and column j held as n_j / d_j, the
        vector is a member iff L c - sum_j c[pivot_j] (L / d_j) n_j = 0 for
        L = lcm(d_j); the residual runs over the stored nonzeros of each
        column, in integers over QQ.
        """
        if len(coords) != self.ambient:
            raise PolySpaceError("vector of length %d in an ambient space of "
                                 "dimension %d" % (len(coords), self.ambient))
        _, L, support = self._columns()
        cleared = clear_denominators(coords)
        c = cleared[0] if cleared is not None else coords
        r = [L * v for v in c] if L != 1 else list(c)
        for piv, nonzeros, scale in support:
            f = c[piv]
            if not f:
                continue
            if scale != 1:
                f = f * scale
            for i, v in nonzeros:
                r[i] -= f * v
        if any(r):
            return None
        return tuple(coords[i] for i in self.pivot_rows)

    def contains(self, vec) -> bool:
        return self.coordinates_of(_coords_of(vec)) is not None

    def vector(self, j: int):
        return self.vector_from_coords(self.basis.column(j))

    def vector_from_coords(self, coords: Sequence):
        if self.extended:
            return ExtPolyVector.from_tilde_coords(self.space, self.w, coords)
        return PolyVector.from_coords(self.space, self.w, coords)

    def vectors(self) -> list:
        return [self.vector(j) for j in range(self.dim)]

    def restricted_matrix(self, images: Sequence) -> DenseMatrix:
        """Matrix of a linear map given by the images of the basis vectors.

        Raises with the offending column index if an image leaves the span.
        """
        cols = []
        for j, img in enumerate(images):
            x = self.coordinates_of(_coords_of(img))
            if x is None:
                raise PolySpaceError("image of basis vector %d leaves the subspace" % j)
            cols.append(x)
        return DenseMatrix.from_columns(self.field, cols, nrows=self.dim)

    def ambient_vector_from_internal(self, x: Sequence):
        return self.vector_from_coords(self.basis.apply(x))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d%s)" % (
            self.dim, self.ambient, ", extended" if self.extended else "")


def _coords_of(vec) -> tuple:
    if isinstance(vec, ExtPolyVector):
        return vec.tilde_coords()
    if isinstance(vec, PolyVector):
        return vec.coords()
    return tuple(vec)


# ----------------------------------------------------------------------
# relation systems

def _w_relation_rows(space: CosetSpace, w: int) -> list:
    """Sparse rows of the period relations P|(1+S) = P|(1+U+U^2) = 0."""
    n = w + 1
    sm = {g: slash_matrix(m, w) for g, m in (("S", MAT_S), ("U", MAT_U), ("U2", MAT_U2))}
    rows = []
    for l in range(space.size):
        lS, sS = space.signed_act(l, MAT_SINV, w)
        lU, sU = space.signed_act(l, MAT_UINV, w)
        lU2, sU2 = space.signed_act(l, MAT_U2INV, w)
        for i in range(n):
            row: dict = {l * n + i: 1}
            for j in range(n):
                c = sm["S"][i][j] * sS
                if c:
                    row[lS * n + j] = row.get(lS * n + j, 0) + c
            rows.append({c: v for c, v in row.items() if v})
            row = {l * n + i: 1}
            for j in range(n):
                c = sm["U"][i][j] * sU
                if c:
                    row[lU * n + j] = row.get(lU * n + j, 0) + c
                c = sm["U2"][i][j] * sU2
                if c:
                    row[lU2 * n + j] = row.get(lU2 * n + j, 0) + c
            rows.append({c: v for c, v in row.items() if v})
    return rows


def build_W(space: CosetSpace, w: int) -> Subspace:
    """The period polynomial space W_w^Gamma as an exact subspace."""
    if w != space.k - 2:
        raise PolySpaceError("weight mismatch with coset space")
    if space.degenerate:
        return Subspace.from_vectors(space, w, False, [])
    rows = _w_relation_rows(space, w)
    ambient = space.size * (w + 1)
    vecs = sparse_int_kernel(rows, ambient)
    return Subspace(space, w, False, DenseMatrix.from_columns(QQ, vecs, nrows=ambient))


def w_dimensions(space: CosetSpace, w: int) -> tuple:
    """(dim W, dim W+, dim W-) by rank computations only.

    Avoids materializing kernel bases; intended for large levels.
    """
    if space.degenerate:
        return (0, 0, 0)
    n = w + 1
    ncols = space.size * n
    rows = _w_relation_rows(space, w)
    dim_w = ncols - sparse_int_rank(rows)
    dims = []
    for target in (1, -1):
        extra = []
        for l in range(space.size):
            l2, sgn = space.signed_act(l, MAT_EPS, w)
            for i in range(n):
                row = {l * n + i: -target}
                c = sgn * (-1) ** i
                row[l2 * n + i] = row.get(l2 * n + i, 0) + c
                extra.append({cc: v for cc, v in row.items() if v})
        dims.append(ncols - sparse_int_rank(rows + extra))
    dim_plus, dim_minus = dims
    if dim_plus + dim_minus != dim_w:
        raise PolySpaceError("eps eigenspace dimensions do not add up")
    return (dim_w, dim_plus, dim_minus)


def _tail_families(space: CosetSpace, w: int) -> list:
    """Per-cusp constant families with c_A = c_(AT), c_(AJ) = (-1)^w c_A.

    For odd w only regular cusps carry a nonzero family.
    """
    families = []
    for cl in space.cusp_classes().classes:
        c = {cl.representative: 1}
        ok = True
        frontier = [cl.representative]
        while frontier:
            l = frontier.pop()
            for g in (MAT_T, MAT_TINV):
                l2, s = space.signed_act(l, g, w)
                val = c[l] * s
                if l2 in c:
                    if c[l2] != val:
                        ok = False
                else:
                    c[l2] = val
                    frontier.append(l2)
        if not ok:
            continue
        families.append(tuple(c.get(l, 0) for l in range(space.size)))
    return families


def _coboundary_and_D_vectors(space: CosetSpace, w: int) -> tuple:
    """Spanning vectors of C and of D, one pair per tail family c.

    At label l, with l S^(-1) = l1 up to the sign s1, the C vector is
    c_l - s1 c_l1 X^w and the D vector has tail c_l and X^(-1) coefficient
    (-1)^w s1 c_l1; only the labels of c's cusp and their S-images are
    nonzero.
    """
    n, nt = w + 1, w + 3
    preimage = {}
    for l in range(space.size):
        l1, s1 = space.signed_act(l, MAT_SINV, w)
        preimage[l1] = (l, s1)
    cvecs = []
    dvecs = []
    for fam in _tail_families(space, w):
        cvec = [0] * (space.size * n)
        dvec = [0] * (space.size * nt)
        for l1, c in enumerate(fam):
            if c:
                cvec[l1 * n] += c
                dvec[l1 * nt + w + 2] = c
                l, s1 = preimage[l1]
                cvec[l * n + w] -= s1 * c
                dvec[l * nt] = (-1) ** w * s1 * c
        cvecs.append(cvec)
        dvecs.append(dvec)
    return cvecs, dvecs


def build_coboundary_and_D(space: CosetSpace, w: int) -> tuple:
    """(C, D): the coboundary space and the X^(w+1)-tail space."""
    if space.degenerate:
        return (Subspace.from_vectors(space, w, False, []),
                Subspace.from_vectors(space, w, True, []))
    cvecs, dvecs = _coboundary_and_D_vectors(space, w)
    C = Subspace.from_vectors(space, w, False, cvecs)
    D = Subspace.from_vectors(space, w, True, dvecs)
    return C, D


def _wtilde_relation_rows(space: CosetSpace, w: int) -> list:
    """Relation rows for Wtilde over the X^(-1)..X^(w+1) coordinates.

    The S relation stays inside the monomial range.  The 1+U+U^2 relation
    is cleared by X(X-1), the only denominators the U-action produces, and
    read off as a polynomial identity of degree w+3.
    """
    n = w + 3
    # images of X^j under S inside the tilde range: X^j|S = +-X^(w-j)
    rows = []
    # cleared images under U, U2 and the identity, as deg <= w+3 coefficient lists
    clear_id = {}
    clear_u = {}
    clear_u2 = {}
    for j in range(-1, w + 2):
        # X^j * X(X-1) = X^(j+2) - X^(j+1)
        p = [0] * (w + 4)
        p[j + 2] += 1
        p[j + 1] -= 1
        clear_id[j] = p
        # X^j|U * X(X-1) = (X-1)^(j+1) X^(w-j+1)
        q = [0] * (w + 4)
        t = poly_mul(_pow_linear(1, -1, j + 1), _pow_linear(1, 0, w - j + 1))
        for i, v in enumerate(t):
            q[i] += v
        clear_u[j] = q
        # X^j|U2 * X(X-1) = (-1)^j X (X-1)^(w-j+1)
        r = [0] * (w + 4)
        t = poly_mul([0, 1], _pow_linear(1, -1, w - j + 1))
        sj = -1 if j % 2 else 1
        for i, v in enumerate(t):
            r[i] += sj * v
        clear_u2[j] = r

    for l in range(space.size):
        lS, sS = space.signed_act(l, MAT_SINV, w)
        lU, sU = space.signed_act(l, MAT_UINV, w)
        lU2, sU2 = space.signed_act(l, MAT_U2INV, w)
        # P~|(1+S) = 0, coefficientwise over the tilde range
        for i in range(-1, w + 2):
            row = {l * n + (i + 1): 1}
            j = w - i
            sj = -1 if j % 2 else 1
            col = lS * n + (j + 1)
            row[col] = row.get(col, 0) + sj * sS
            rows.append({c: v for c, v in row.items() if v})
        # P~|(1+U+U^2) = 0, cleared by X(X-1): degrees 0..w+3
        for deg in range(w + 4):
            row: dict = {}
            for j in range(-1, w + 2):
                v = clear_id[j][deg]
                if v:
                    row[l * n + (j + 1)] = row.get(l * n + (j + 1), 0) + v
                v = clear_u[j][deg] * sU
                if v:
                    row[lU * n + (j + 1)] = row.get(lU * n + (j + 1), 0) + v
                v = clear_u2[j][deg] * sU2
                if v:
                    row[lU2 * n + (j + 1)] = row.get(lU2 * n + (j + 1), 0) + v
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def build_W_extended(space: CosetSpace, w: int) -> Subspace:
    """The space Wtilde of period polynomials of all modular forms.

    For k = 2 the constraint sum_A c_A = 0 is not imposed; it must emerge
    from the kernel and is asserted after the fact.
    """
    if w != space.k - 2:
        raise PolySpaceError("weight mismatch with coset space")
    if space.degenerate:
        return Subspace.from_vectors(space, w, True, [])
    rows = _wtilde_relation_rows(space, w)
    ambient = space.size * (w + 3)
    vecs = sparse_int_kernel(rows, ambient)
    sub = Subspace(space, w, True, DenseMatrix.from_columns(QQ, vecs, nrows=ambient))
    for j in range(sub.dim):
        vec = sub.vector(j)  # validates tails and X^(-1) consistency
        if w == 0:
            total = sum(vec.tails)
            if total:
                raise PolySpaceError("weight-2 tail constants do not sum to zero")
    return sub


def wtilde_dimension(space: CosetSpace, w: int) -> int:
    """dim Wtilde by a rank computation only (for large indices)."""
    if space.degenerate:
        return 0
    rows = _wtilde_relation_rows(space, w)
    return space.size * (w + 3) - sparse_int_rank(rows)


def check_extended_relations(vec: ExtPolyVector) -> bool:
    """P~|(1+S) = P~|(1+U+U^2) = 0 in the cleared rational-function model."""
    rows = _wtilde_relation_rows(vec.space, vec.w)
    coords = vec.tilde_coords()
    return all(sum(c * coords[i] for i, c in row.items()) == 0 for row in rows)


def decompose_extended(vec: ExtPolyVector, wtilde: Optional[Subspace] = None) -> tuple:
    """Split P~ in Wtilde as P + P0|(1-S); reconstruction is exact."""
    if wtilde is not None and not wtilde.contains(vec):
        raise PolySpaceError("vector outside the extended period space")
    tail = ExtPolyVector(vec.space, vec.w, PolyVector.zero(vec.space, vec.w),
                         vec.tails, check=False)
    return vec.poly, tail


# ----------------------------------------------------------------------
# eps splitting and chi components

def eps_split(obj):
    """Split into +1 / -1 eigencomponents of the eps involution."""
    if isinstance(obj, (PolyVector, ExtPolyVector)):
        e = obj.eps()
        half = Fraction(1, 2)
        return (obj + e).scale(half), (obj - e).scale(half)
    if isinstance(obj, Subspace):
        sub = obj
        images = [(v.eps()) for v in sub.vectors()]
        emat = sub.restricted_matrix(images)
        out = []
        for target in (1, -1):
            ker = eigen_kernel(emat, sub.field.of(target))
            out.append(Subspace(sub.space, sub.w, sub.extended, sub.basis * ker,
                                sub.field))
        return tuple(out)
    raise PolySpaceError("cannot eps-split %r" % type(obj))


def cminus_trivial(N: int) -> bool:
    """Whether (C_w^{Gamma0(N)})^- = 0, computed from the built space."""
    space = build_coset_space(GAMMA0, N, 4)
    C, _ = build_coboundary_and_D(space, 2)
    _, minus = eps_split(C)
    return minus.dim == 0


def chi_component(sub: Subspace, chi) -> Subspace:
    """The chi-isotypic part of a subspace over the Gamma1(N) coset space.

    When chi(-1) != (-1)^k the component is zero (warning case); otherwise
    a basis over the cyclotomic field of chi is returned.
    """
    space = sub.space
    if space.kind == GAMMA0:
        raise PolySpaceError("chi components live over Gamma1(N)")
    if chi.N != space.N:
        raise PolySpaceError("character modulus does not match the level")
    k = space.k
    field = chi.field if chi.field is not None else QQ
    if not chi.is_even_for_weight(k):
        warnings.warn("chi(-1) != (-1)^k: the chi-component is zero",
                      stacklevel=2)
        return Subspace.from_vectors(space, sub.w, sub.extended, [], field=field)
    units = _unit_generators_for(space.N)
    n = sub.w + 1 if not sub.extended else sub.w + 3
    basis = DenseMatrix(field, sub.basis.rows, ncols=sub.dim)
    cols = basis.columns()
    rows = []
    for u in units:
        chi_u = chi(u)
        for l in range(space.size):
            c, d = space.labels[l]
            lu, s = space.label_of_row(u * c, u * d)
            sgn = field.of(s ** sub.w)
            for i in range(n):
                row = [sgn * col[lu * n + i] - chi_u * col[l * n + i] for col in cols]
                if any(row):
                    rows.append(row)
    ker = kernel_basis(DenseMatrix(field, rows, ncols=sub.dim))
    return Subspace(space, sub.w, sub.extended, basis * ker, field)


def _unit_generators_for(N: int) -> list:
    from .cosets import _unit_group_generators
    gens = [g for g, _ in _unit_group_generators(N)]
    return gens if gens else [1]
