"""Exact scalar arithmetic, dense matrices and the one exact eliminator.

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
    if type(x) is int:
        return str(x)
    if not isinstance(x, Fraction):
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
            num, r = poly_divmod(num, cyclotomic_polynomial(d))
            if any(r):
                raise ExactAlgebraError("non-exact polynomial division")
    return tuple(num)


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
    """(quotient, remainder), both trimmed: exact over Q, never float, in
    integers for integer inputs whose divisor leads with +-1, else with
    Fraction coefficients."""
    num, den = poly_trim(num), poly_trim(den)
    ints = den[-1] in (1, -1) and all(type(c) is int for c in num + den)
    num, inv = (num, den[-1]) if ints else ([Fraction(c) for c in num], 1 / Fraction(den[-1]))
    if len(num) < len(den):
        return [num[0] * 0], num
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] * inv
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
        self._zeta_powers = {}
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
        """zeta^j, reduced once per exponent and kept: elements are immutable."""
        j %= self.conductor
        if j not in self._zeta_powers:
            c = [Fraction(0)] * (j + 1)
            c[j] = Fraction(1)
            self._zeta_powers[j] = Cyclotomic(self, self.reduce(c))
        return self._zeta_powers[j]

    @property
    def zeta(self) -> Cyclotomic:
        return self.zeta_power(1)

    def __repr__(self):
        return "CyclotomicField(%d)" % self.conductor


class RationalField:
    """Field tag for Fraction scalars."""

    zero = Fraction(0)
    one = Fraction(1)
    degree = 1

    def of(self, x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class ApproxComplex:
    """Complex float with an absolute error bound."""

    value: complex
    err: float = 0.0

    def __post_init__(self):
        if self.err < 0 or math.isnan(self.err):
            raise ExactAlgebraError("error bound must be non-negative")


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

    def rank(self) -> int:
        return sparse_int_rank(self.int_rows()) // self.field.degree

    def int_rows(self) -> list:
        """The rows in integers over the real unknowns (``realified_rows``)."""
        return realified_rows(self.field, [{j: scalar_coords(self.field, x) for j, x in
                                            enumerate(r) if x} for r in self.rows])

    @classmethod
    def from_int_columns(cls, field, cols: Sequence, nrows: int) -> "DenseMatrix":
        """The matrix of cleared columns (den, vec), see ``kernel_columns``."""
        return cls.from_columns(field, [column_entries(field, den, vec, nrows)
                                        for den, vec in cols], nrows=nrows)

    def __repr__(self):
        return "DenseMatrix(%s, %dx%d)" % (self.field, self.nrows, self.ncols)


def kernel_basis(m: DenseMatrix) -> DenseMatrix:
    """Basis of the right null space, in reduced column echelon form: one
    run of the eliminator on the integer rows of m (``kernel_columns``)."""
    return DenseMatrix.from_int_columns(
        m.field, kernel_columns(m.int_rows(), m.ncols, m.field), m.ncols)


def eigen_columns(pairs: Sequence[tuple], field=None) -> list:
    """The cleared columns (``kernel_columns``) of the joint kernel of the
    m - lam*I over the (m, lam) in pairs, over field, by default the field
    of the first m.  The m are square of one size, over Q or field."""
    n, f = pairs[0][0].ncols, pairs[0][0].field if field is None else field
    rows = []
    for m, lam in pairs:
        if m.nrows != m.ncols or m.ncols != n:
            raise ExactAlgebraError("eigen_columns needs square matrices of one size")
        lam = scalar_coords(f, lam)
        block = [{j: scalar_coords(f, x) for j, x in enumerate(r) if x} for r in m.rows]
        for i, row in enumerate(block):
            row[i] = [a - b for a, b in zip(row.get(i, [0] * f.degree), lam)]
        rows.extend(block)
    return kernel_columns(realified_rows(f, rows), n, f)


def solve_columns(basis: DenseMatrix, targets: Sequence[Sequence]) -> list | None:
    """Solve basis * x = t for each target t; None if any t is outside the span.
    In the kernel of (-t_1 ... -t_T basis), every t_j is in the span iff every
    coefficient y_j is free, the column free at y_j holding a solution x."""
    T, field = len(targets), basis.field
    aug = DenseMatrix(field, [[-t[i] for t in targets] + list(row)
                              for i, row in enumerate(basis.rows)], ncols=T + basis.ncols)
    cols = kernel_columns(aug.int_rows(), aug.ncols, field)[:T]
    if [min(vec) for _, vec in cols] != [j * field.degree for j in range(T)]:
        return None
    return [tuple(column_entries(field, den, vec, aug.ncols)[T:]) for den, vec in cols]


# ----------------------------------------------------------------------
# the exact eliminator: sparse integer rows, behind every kernel and span

def _normalize_int_row(row: dict) -> dict:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            break
    if row[min(row)] < 0:
        g = -g
    if g not in (0, 1):
        return {c: v // g for c, v in row.items()}
    return row


def sparse_int_pivots(rows: Iterable[dict]) -> list:
    """Gauss-Jordan elimination on sparse integer rows (dict col -> coeff):
    the reduced echelon form of their row space, as the pivot rows
    (pivot_col, row_dict) sorted by pivot column.  The pivot of a row is
    its last column, so clearing it from another row only changes smaller
    columns, and every pivot stays the last column of its row.  The rows
    go through the loop (``_eliminate``) as they are, each copied and made
    primitive (``_normalize_int_row``); the caller's rows never change.

    The loop takes the next pivot row from a heap: the remaining row with
    the fewest nonzeros, ties going to the smallest index (its position
    among the rows).  The heap holds (len(row), index) lazily: a row
    is pushed again each time it changes, and a popped entry is stale, and
    skipped, when its row is done or no longer has that length.  The
    smallest live entry is the minimum of (len, index) over the remaining
    rows, so the choice is the one a full scan would make.

    The pivot row, entry pv at pc, then clears pc in place from each other
    row that holds it, chosen or remaining: entry f at pc, the row becomes
    a * row - q * (pivot row), a / q = pv / f in lowest terms with a > 0,
    so a = 1 where pv divides f; then primitive again
    (``_normalize_int_row`` keeps the keys).  Only the pivot row's columns
    are visited, and only they enter or leave ``col_index`` (column ->
    rows holding it): where a zero becomes nonzero or an entry cancels, pc
    always.  A pivot row holds no earlier pivot column, so no clearing
    brings one back: at the end each pivot column is nonzero in its own row
    only.  That, with pivots at last columns and every row primitive with
    its least entry positive, is the row space's reduced echelon form,
    which is unique, whatever the order of elimination.  The kernel vector
    of a free column f is then 1 at f and zero above f and at the other
    free columns: the kernel vectors already are the reduced column echelon
    basis of the kernel (``kernel_columns``).
    """
    return sorted((max(row), row) for row in _eliminate(rows, True))


def _eliminate(rows: Iterable[dict], jordan: bool) -> list:
    """The pivot rows of the loop of ``sparse_int_pivots``.  A pivot clears
    its column from the remaining rows, and with ``jordan`` from the rows
    already chosen too; a rank needs only the first."""
    # the loop updates rows in place, so it works on copies
    active = [_normalize_int_row(dict(r)) for r in rows if r]
    remaining = set(range(len(active)))
    heap = [(len(row), i) for i, row in enumerate(active)]
    heapq.heapify(heap)
    col_index: dict = {}
    for i, row in enumerate(active):
        for c in row:
            col_index.setdefault(c, set()).add(i)
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
        for other in list(col_index[pc]):
            if other == best or not (jordan or other in remaining):
                continue
            orow = active[other]
            f = orow[pc]
            # orow <- a * orow - q * row, a / q = pv / f in lowest terms, a > 0
            g = math.gcd(pv, f)
            a, q = (pv // g, f // g) if pv > 0 else (-pv // g, -f // g)
            if a != 1:
                for c in orow:
                    orow[c] *= a
            for c, v in row.items():
                w = orow.get(c)
                if w is None:
                    orow[c] = -q * v
                    col_index[c].add(other)
                    continue
                w -= q * v
                if w:
                    orow[c] = w
                else:
                    del orow[c]
                    col_index[c].discard(other)
            orow = active[other] = _normalize_int_row(orow)
            heapq.heappush(heap, (len(orow), other))
    return [row for row in active if row]


def sparse_int_rank(rows: Iterable[dict]) -> int:
    """The rank of sparse integer rows: the number of pivot rows of
    ``sparse_int_pivots``, from its loop alone, each pivot clearing the
    remaining rows only, with no pivot row sorted."""
    return len(_eliminate(rows, False))


def kernel_columns(rows: Iterable[dict], ncols: int, field=QQ) -> list:
    """Reduced column echelon basis of the kernel of integer rows over the
    ncols * d real unknowns of ``realified_rows``, as columns (den, vec):
    vec / den, vec an int dict over the real indices i * d + t, den least.

    With last-column pivots the kernel vector of a free real column f is 1
    at f and 0 at the other free columns and before f: the real kernel's
    echelon basis, {zeta^t b} over the field's echelon basis b.  The b are
    the vectors free at a zeta^0 coordinate f = j * d."""
    d, pivot_cols, rows_with = field.degree, set(), {}
    for pc, row in sparse_int_pivots(rows):
        pivot_cols.add(pc)
        for c in row:
            if c != pc:
                rows_with.setdefault(c, []).append((pc, row))
    out = []
    for f in range(0, ncols * d, d):
        if f in pivot_cols:
            continue
        hits = rows_with.get(f, ())
        den = math.lcm(1, *(row[pc] // math.gcd(row[pc], row[f]) for pc, row in hits))
        vec = {f: den}
        for pc, row in hits:
            vec[pc] = -row[f] * den // row[pc]
        out.append((den, vec))
    return out


def reduced_column_basis(field, vectors: Sequence[dict], ambient: int) -> list:
    """Canonical basis (reduced column echelon form) of the span of rational
    vectors {coordinate: value}, as (den, vec) columns (``kernel_columns``).

    It is the reduced row echelon form of the vectors, pivots at first
    columns; the eliminator pivots at last ones, so column c goes in as
    ambient - 1 - c, and each pivot row comes back as a column.
    """
    rows = []
    for vec in vectors:
        if vec and not (0 <= min(vec) and max(vec) < ambient):
            raise ExactAlgebraError("vector with a coordinate outside %d..%d"
                                    % (0, ambient - 1))
        entries = {ambient - 1 - c: v for c, v in vec.items() if v}
        cleared = clear_denominators(list(entries.values()))
        if cleared is None:
            raise ExactAlgebraError("only spans of rational vectors are built")
        rows.append(dict(zip(entries, cleared[0])))
    d = field.degree
    cols = []
    for pc, row in reversed(sparse_int_pivots(rows)):
        sign = 1 if row[pc] > 0 else -1
        cols.append((sign * row[pc], {(ambient - 1 - c) * d: sign * v for c, v in row.items()}))
    return cols


def scalar_coords(field, x) -> list:
    """Power-basis coordinates of a scalar of field; a rational is [x, 0, ...]."""
    if isinstance(x, Cyclotomic):
        return list(x.coeffs)
    return [x] + [0] * (field.degree - 1)


def mult_columns(field, a: Sequence) -> list:
    """Columns of y -> a y on power-basis coordinates: a zeta^t mod Phi_m."""
    cols = [list(a)]
    for _ in range(1, field.degree):
        top = cols[-1][-1]
        nxt = [0] + cols[-1][:-1]
        cols.append([x - top * c for x, c in zip(nxt, field.modulus)] if top else nxt)
    return cols


def realified_rows(field, rows: Iterable[dict]) -> list:
    """Integer rows of a system over field whose rows map unknowns j to the
    power-basis coordinates of their coefficients.  Over degree d, unknown j
    becomes the real unknowns j * d + t and each row d cleared rows."""
    d, out = field.degree, []
    for row in rows:
        real = [{} for _ in range(d)]
        for j, a in row.items():
            if not any(a[1:]):
                # a rational a = [a0, 0, ...] only scales the identity
                for t in range(d) if a[0] else ():
                    real[t][j * d + t] = a[0]
                continue
            for t, col in enumerate(mult_columns(field, a)):
                for s, v in enumerate(col):
                    if v:
                        real[s][j * d + t] = v
        out.extend(rows_to_int_sparse(real))
    return out


def column_entries(field, den: int, vec: dict, n: int) -> list:
    """The n scalars of a cleared column (den, vec) of ``kernel_columns``."""
    d = field.degree
    coeffs = [[QQ.zero] * d for _ in range(n)]
    for k, v in vec.items():
        coeffs[k // d][k % d] = Fraction(v, den)
    return [c[0] for c in coeffs] if field is QQ else [Cyclotomic(field, c) for c in coeffs]


def clear_denominators(values: Sequence):
    """(integers, D) with values = integers / D; None unless all rational.
    Values that are all ints come back as they are, over D = 1."""
    if all(type(v) is int for v in values):
        return list(values), 1
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
