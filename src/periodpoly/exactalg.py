"""Exact scalar arithmetic and dense linear algebra.

Matrix scalars come in two flavours, tagged at run time by the field object
that owns them: arbitrary-precision rationals (``fractions.Fraction``) and
elements of a cyclotomic field Q(zeta_m) reduced modulo the m-th cyclotomic
polynomial.  Double-precision complex numbers carrying an absolute error
bound (``ApproxComplex``) serve the numerical layer only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


class PeriodPolyError(ValueError):
    """Base of every error the library raises on bad input or failed checks."""


class ExactAlgebraError(PeriodPolyError):
    pass


class CheckFailed(PeriodPolyError):
    """An internal invariant or a verification check does not hold."""


def check(cond, msg: str) -> None:
    """Raise CheckFailed(msg) unless cond holds; unlike assert, kept under -O."""
    if not cond:
        raise CheckFailed(msg)


# ----------------------------------------------------------------------
# rationals

def scalar_to_str(x) -> str:
    """Serialize a rational as "p/q", omitting the denominator when 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def scalar_from_str(s: str) -> Fraction:
    return Fraction(s)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number, convention B_1 = -1/2.

    Computed by the defining recurrence sum_{j<=n} C(n+1,j) B_j = 0.
    """
    if n < 0:
        raise ExactAlgebraError("bernoulli: n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


# ----------------------------------------------------------------------
# cyclotomic fields

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients (ascending) of the m-th cyclotomic polynomial, as ints."""
    if m < 1:
        raise ExactAlgebraError("conductor must be >= 1")
    # x^m - 1 divided by the product of Phi_d for proper divisors d of m
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _poly_exact_div_int(num, list(cyclotomic_polynomial(d)))
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


def _poly_exact_div_int(num: list, den: list) -> list:
    num = num[:]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ExactAlgebraError("non-exact polynomial division")
        q[i] = c // den[-1]
        for j, dj in enumerate(den):
            num[i + j] -= q[i] * dj
    if any(num):
        raise ExactAlgebraError("non-exact polynomial division")
    return q


# ----------------------------------------------------------------------
# dense polynomials over Q, as ascending coefficient lists

def poly_trim(p) -> list:
    """p without trailing zero coefficients; the zero polynomial is [0]."""
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def poly_mul(p, q) -> list:
    """Product; integer inputs give integer coefficients."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                if y:
                    out[i + j] += x * y
    return out


def poly_sub(p, q) -> list:
    n = max(len(p), len(q))
    p = list(p) + [0] * (n - len(p))
    q = list(q) + [0] * (n - len(q))
    return [x - y for x, y in zip(p, q)]


def poly_divmod(num, den) -> tuple:
    """(quotient, remainder), both trimmed, with Fraction coefficients.

    Division is exact over Q even for integer inputs, never float.
    """
    num = [Fraction(c) for c in poly_trim(num)]
    den = poly_trim(den)
    if len(num) < len(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q, poly_trim(num)


class Cyclotomic:
    """Element of Q(zeta_m): a vector of phi(m) rationals mod Phi_m."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "CyclotomicField", coeffs: Sequence[Fraction]):
        if len(coeffs) != field.degree:
            raise ExactAlgebraError("coefficient vector has wrong length")
        self.field = field
        self.coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        other = self.field.coerce(other)
        return other is not None and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.conductor, self.coeffs))

    def __add__(self, other):
        other = self.field.coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self.field.coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self.field.coerce(other)
        if other is None:
            return NotImplemented
        prod = [Fraction(0)] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        return Cyclotomic(self.field, self.field.reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        # extended Euclid against Phi_m in Q[x]
        r0, r1 = self.field.modulus, poly_trim(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        inv = 1 / r1[0]
        return Cyclotomic(self.field, self.field.reduce([c * inv for c in s1]))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(-1)."""
        m = self.field.conductor
        out = self.field.zero
        for j, a in enumerate(self.coeffs):
            if a:
                out = out + a * self.field.zeta_power((m - j) % m)
        return out

    def rational_part(self) -> Fraction:
        """The element as a rational; raises if it is not one."""
        if any(self.coeffs[1:]):
            raise ExactAlgebraError("cyclotomic element is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.field.conductor, list(self.coeffs))


class CyclotomicField:
    """Q(zeta_m), elements stored as length-phi(m) rational vectors."""

    _cache: dict = {}

    def __new__(cls, m: int):
        if m in cls._cache:
            return cls._cache[m]
        self = super().__new__(cls)
        self.conductor = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        cls._cache[m] = self
        return self

    @property
    def zero(self) -> Cyclotomic:
        return Cyclotomic(self, [Fraction(0)] * self.degree)

    @property
    def one(self) -> Cyclotomic:
        return self.of(1)

    def of(self, x) -> Cyclotomic:
        c = [Fraction(0)] * self.degree
        c[0] = Fraction(x)
        return Cyclotomic(self, c)

    def coerce(self, x):
        if isinstance(x, Cyclotomic):
            return x if x.field is self else None
        if isinstance(x, (int, Fraction)):
            return self.of(x)
        return None

    def reduce(self, coeffs: Sequence[Fraction]) -> list:
        """Reduce a coefficient list modulo Phi_m."""
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        n = self.degree
        for i in range(len(c) - 1, n - 1, -1):
            top = c[i]
            if top:
                for j in range(n + 1):
                    c[i - n + j] -= top * self.modulus[j]
        del c[n:]
        c += [Fraction(0)] * (n - len(c))
        return c

    def zeta_power(self, j: int) -> Cyclotomic:
        j %= self.conductor
        c = [Fraction(0)] * (j + 1)
        c[j] = Fraction(1)
        return Cyclotomic(self, self.reduce(c))

    @property
    def zeta(self) -> Cyclotomic:
        return self.zeta_power(1)

    def __repr__(self):
        return "CyclotomicField(%d)" % self.conductor


class RationalField:
    """Field tag for Fraction scalars."""

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class ApproxComplex:
    """Complex float with an absolute error bound, propagated monotonically."""

    value: complex
    err: float = 0.0

    def __post_init__(self):
        if self.err < 0 or math.isnan(self.err):
            raise ExactAlgebraError("error bound must be non-negative")

    def __add__(self, other):
        other = _approx(other)
        return ApproxComplex(self.value + other.value, self.err + other.err)

    __radd__ = __add__

    def __sub__(self, other):
        other = _approx(other)
        return ApproxComplex(self.value - other.value, self.err + other.err)

    def __rsub__(self, other):
        return _approx(other) - self

    def __mul__(self, other):
        other = _approx(other)
        err = (abs(self.value) * other.err + abs(other.value) * self.err
               + self.err * other.err)
        return ApproxComplex(self.value * other.value, err)

    __rmul__ = __mul__

    def __neg__(self):
        return ApproxComplex(-self.value, self.err)

    def conjugate(self):
        return ApproxComplex(self.value.conjugate(), self.err)

    def to_json(self) -> dict:
        return {"re": self.value.real, "im": self.value.imag, "err": self.err}


def _approx(x) -> ApproxComplex:
    if isinstance(x, ApproxComplex):
        return x
    return ApproxComplex(complex(x), 0.0)


# ----------------------------------------------------------------------
# dense matrices

class DenseMatrix:
    """Immutable dense matrix over a single scalar field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Iterable[Iterable], ncols: int | None = None):
        self.field = field
        rows = tuple(tuple(field.of(x) if isinstance(x, (int, Fraction)) else x
                           for x in row) for row in rows)
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ExactAlgebraError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ExactAlgebraError("inconsistent dimensions")
        else:
            if ncols is None:
                raise ExactAlgebraError("empty matrix needs an explicit ncols")
            self.ncols = ncols

    @classmethod
    def identity(cls, field, n: int) -> "DenseMatrix":
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)], ncols=n)

    @classmethod
    def from_columns(cls, field, cols: Sequence[Sequence], nrows: int | None = None) -> "DenseMatrix":
        if not cols:
            if nrows is None:
                raise ExactAlgebraError("empty column list needs nrows")
            return cls(field, [[] for _ in range(nrows)], ncols=0)
        return cls(field, list(map(list, zip(*cols))))

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.rows == other.rows
                and self.ncols == other.ncols)

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ncols != other.nrows:
            raise ExactAlgebraError("dimension mismatch in product")
        out = []
        for row in self.rows:
            acc = [self.field.zero] * other.ncols
            for a, orow in zip(row, other.rows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return DenseMatrix(self.field, out, ncols=other.ncols)

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ExactAlgebraError("dimension mismatch in sum")
        return DenseMatrix(self.field,
                           [[a + b for a, b in zip(r, s)]
                            for r, s in zip(self.rows, other.rows)],
                           ncols=self.ncols)

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self + other.scaled(-1)

    def scaled(self, c) -> "DenseMatrix":
        c = self.field.of(c) if isinstance(c, (int, Fraction)) else c
        return DenseMatrix(self.field, [[c * a for a in r] for r in self.rows],
                           ncols=self.ncols)

    def trace(self):
        if self.nrows != self.ncols:
            raise ExactAlgebraError("trace of a non-square matrix")
        acc = self.field.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ExactAlgebraError("vector length mismatch")
        z = self.field.zero
        out = []
        for row in self.rows:
            acc = z
            for a, x in zip(row, vec):
                if a:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def rref(self) -> tuple["DenseMatrix", list]:
        rows, pivots = _rref_rows([list(r) for r in self.rows], self.field)
        return DenseMatrix(self.field, rows, ncols=self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self):
        return "DenseMatrix(%s, %dx%d)" % (self.field, self.nrows, self.ncols)


def _rref_rows(rows: list, field) -> tuple[list, list]:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def reduced_column_basis(field, vectors: Sequence[Sequence], ambient: int) -> "DenseMatrix":
    """Canonical basis (reduced column echelon form) of the span of vectors."""
    vecs = [list(v) for v in vectors if any(v)]
    if not vecs:
        return DenseMatrix(field, [[] for _ in range(ambient)], ncols=0)
    rows, pivots = _rref_rows(vecs, field)
    cols = [tuple(rows[i]) for i in range(len(pivots))]
    return DenseMatrix.from_columns(field, cols, nrows=ambient)


def kernel_basis(m: DenseMatrix) -> DenseMatrix:
    """Basis of the right null space, in reduced column-echelon form.

    Deterministic: identical inputs give identical bases.
    """
    field = m.field
    if m.nrows == 0:
        return DenseMatrix.identity(field, m.ncols)
    rows, pivots = _rref_rows([list(r) for r in m.rows], field)
    free = [c for c in range(m.ncols) if c not in pivots]
    vecs = []
    for f in free:
        v = [field.zero] * m.ncols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        vecs.append(v)
    return reduced_column_basis(field, vecs, m.ncols)


def eigen_kernel(m: DenseMatrix, lam) -> DenseMatrix:
    """Basis of ker(m - lam*I); empty when lam is not an eigenvalue."""
    if m.nrows != m.ncols:
        raise ExactAlgebraError("eigen_kernel needs a square matrix")
    lam = m.field.of(lam) if isinstance(lam, (int, Fraction)) else lam
    shifted = m - DenseMatrix.identity(m.field, m.nrows).scaled(lam)
    return kernel_basis(shifted)


def solve_columns(basis: DenseMatrix, targets: Sequence[Sequence]) -> list | None:
    """Solve basis * x = t for each target t; None if any t is outside the span."""
    field = basis.field
    aug = [list(basis.rows[i]) + [field.of(t[i]) if isinstance(t[i], (int, Fraction)) else t[i]
                                  for t in targets]
           for i in range(basis.nrows)]
    rows, pivots = _rref_rows(aug, field)
    r = len(pivots)
    n = basis.ncols
    if any(p >= n for p in pivots):
        return None
    sols = []
    for j in range(len(targets)):
        x = [field.zero] * n
        for i, p in enumerate(pivots):
            x[p] = rows[i][n + j]
        sols.append(tuple(x))
    # residual check guards against inconsistent systems
    for j, t in enumerate(targets):
        res = basis.apply(sols[j])
        if any(a != (field.of(b) if isinstance(b, (int, Fraction)) else b)
               for a, b in zip(res, t)):
            return None
    return sols


# ----------------------------------------------------------------------
# sparse integer elimination (internal engine for the large space builds)

def _normalize_int_row(row: dict) -> dict:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g not in (0, 1):
        return {c: v // g for c, v in row.items()}
    return row


def sparse_int_pivots(rows: Iterable[dict], reduce_fully: bool = False) -> list:
    """Gauss elimination on sparse integer rows (dict col -> coeff).

    Returns the pivot rows as (pivot_col, row_dict) sorted by pivot column.
    With ``reduce_fully`` each pivot column is cleared from every other
    pivot row, which makes kernel extraction a single back-substitution.

    The pivot of a row is its last column, so clearing it from another row
    only changes smaller columns and every pivot stays the last column of
    its row.  The kernel vector of a free column f is then 1 at f and zero
    above f and at the other free columns: the kernel vectors already are
    the reduced column echelon basis that ``reduced_column_basis`` gives.

    The next pivot row is the remaining row with the fewest nonzeros, ties
    going to the smallest index (its position among the nonzero input
    rows).  It is taken from a lazy heap of (len(row), index): a row is
    pushed again each time it changes, and a popped entry is stale, and
    skipped, when its row is done or no longer has that length.  The
    smallest live entry is then the minimum of (len, index) over the
    remaining rows, so the choice is the one a full scan would make.
    """
    active = [_normalize_int_row(dict(r)) for r in rows if r]
    col_index: dict = {}
    for i, row in enumerate(active):
        for c in row:
            col_index.setdefault(c, set()).add(i)
    done: list = []
    remaining = set(range(len(active)))
    heap = [(len(row), i) for i, row in enumerate(active)]
    heapq.heapify(heap)
    while heap:
        size, best = heapq.heappop(heap)
        if best not in remaining or size != len(active[best]):
            continue
        row = active[best]
        remaining.discard(best)
        if not row:
            continue
        pc = max(row)
        pv = row[pc]
        for other in list(col_index.get(pc, ())):
            if other == best or other not in remaining:
                continue
            orow = active[other]
            f = orow[pc]
            # orow <- orow * pv - row * f, gcd-normalized
            new = {}
            for c, v in orow.items():
                new[c] = v * pv
            for c, v in row.items():
                w = new.get(c, 0) - v * f
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            new = _normalize_int_row(new)
            for c in orow:
                col_index[c].discard(other)
            for c in new:
                col_index.setdefault(c, set()).add(other)
            active[other] = new
            heapq.heappush(heap, (len(new), other))
        done.append((pc, row))
    done.sort()
    if reduce_fully:
        # descending Gauss-Jordan: clearing column pc from every other row
        # cannot be undone by later (smaller) pivots
        by_col = {pc: dict(row) for pc, row in done}
        for pc in sorted(by_col, reverse=True):
            prow = by_col[pc]
            pv = prow[pc]
            for qc, qrow in by_col.items():
                if qc == pc or pc not in qrow:
                    continue
                f = qrow[pc]
                new = {c: v * pv for c, v in qrow.items()}
                for c, v in prow.items():
                    u = new.get(c, 0) - v * f
                    if u:
                        new[c] = u
                    elif c in new:
                        del new[c]
                by_col[qc] = _normalize_int_row(new)
        done = sorted(by_col.items())
    return done


def sparse_int_rank(rows: Iterable[dict]) -> int:
    return len(sparse_int_pivots(rows))


def sparse_int_kernel(rows: Iterable[dict], ncols: int) -> list:
    """Reduced column echelon basis of the kernel of a sparse integer
    matrix, as Fraction vectors (tuples); see ``sparse_int_pivots``."""
    pivots = sparse_int_pivots(rows, reduce_fully=True)
    pivot_cols = {pc for pc, _ in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    vecs = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for pc, row in pivots:
            if f in row:
                v[pc] = Fraction(-row[f], row[pc])
        vecs.append(tuple(v))
    return vecs


def clear_denominators(values: Sequence):
    """(integers, D) with values = integers / D; None unless all rational."""
    D = 1
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return None
        D = math.lcm(D, v.denominator)
    return [v.numerator * (D // v.denominator) for v in values], D


def rows_to_int_sparse(rows: Iterable[dict]) -> list:
    """Clear denominators row by row (entries may be Fractions or ints)."""
    out = []
    for row in rows:
        ints, _ = clear_denominators(list(row.values()))
        out.append({c: v for c, v in zip(row, ints) if v})
    return out
