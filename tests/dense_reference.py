"""Dense Gauss-Jordan over Q and Q(zeta_m), the reference that the exact
sparse eliminator is tested against.

``reference_rref_rows`` is the elimination periodpoly used before every
kernel and span went through ``exactalg.sparse_int_pivots``.  Nothing here
calls that eliminator.

``reference_w_relation_rows`` and ``reference_wtilde_relation_rows`` are the
relation rows of W and Wtilde written out at every label, both S and U
rows, as periodpoly built them before it kept the long U rows at one label
of each U-orbit only.  ``reference_w_label_rows`` and
``reference_wtilde_label_rows`` are the two per-label emitters periodpoly
had before one table-driven emitter, ``polyspace._label_rows``, served both.

``reference_orbit_rows``, ``reference_relation_rows`` and
``reference_eps_rows`` are the relation rows periodpoly handed the
eliminator before it presented the period systems over their two-term
classes (``polyspace._presentations``): every S row, the U rows kept at
the least label of each U-orbit and the short ones at every label, and
one eps row per pair {m, eps(m)}.  ``reference_two_term_pass`` is the
signed union-find that folded them, the two-term pass of the eliminator
before one class walk (``exactalg._tie_classes``) served it and
``polyspace._presentations``, which now reads that presentation off the
coset tables.

``reference_resolve_sigma_coset`` is the double-coset resolver as
periodpoly wrote it before it read B = A M^vee entry by entry in integers:
one ``Mat2`` product and one adjoint per call.  Its Theta branch on Gamma1
reads the bottom row mod N/n without the factor x^-1 of
(n x, y; N z, n t) in Theta_n, so it is right there only when
n = 1 mod N/n; everywhere else it is the reference for the integer engine.

``reference_operator`` is the compile of ``hecke.HeckeOperator`` as
periodpoly wrote it before it grouped the support of T~_n by M mod N and
resolved each class against every label at once: one resolution per
(label, M) pair and one ``slash_poly`` call per unit vector.

``reference_restricted_matrix`` is ``Subspace.restricted_matrix`` as
periodpoly wrote it before it packed the basis columns into one vector:
one apply and one residual check per column.
"""

import math
from fractions import Fraction
from itertools import chain
from typing import Optional

from periodpoly.cosets import (GAMMA1, CosetSpace, Mat2, MAT_S, MAT_SINV, MAT_U, MAT_U2,
                               MAT_U2INV, MAT_UINV, _crt)
from periodpoly.exactalg import (DenseMatrix, _normalize_int_row, clear_denominators, poly_mul,
                                 rows_to_int_sparse)
from periodpoly.hecke import HeckeError, SigmaSpec, _over_linear
from periodpoly.polyspace import (PolySpaceError, _label_rows, _pow_linear, eps_coordinates,
                                  slash_poly)


def reference_rref_rows(rows: list, field) -> tuple[list, list]:
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


def reference_column_basis(field, vectors, ambient: int) -> DenseMatrix:
    """Canonical basis (reduced column echelon form) of the span of vectors."""
    vecs = [list(v) for v in vectors if any(v)]
    if not vecs:
        return DenseMatrix(field, [[] for _ in range(ambient)], ncols=0)
    rows, pivots = reference_rref_rows(vecs, field)
    cols = [tuple(rows[i]) for i in range(len(pivots))]
    return DenseMatrix.from_columns(field, cols, nrows=ambient)


def reference_kernel_basis(m: DenseMatrix) -> DenseMatrix:
    """Basis of the right null space, in reduced column echelon form."""
    field = m.field
    if m.nrows == 0:
        return DenseMatrix.identity(field, m.ncols)
    rows, pivots = reference_rref_rows([list(r) for r in m.rows], field)
    free = [c for c in range(m.ncols) if c not in pivots]
    vecs = []
    for f in free:
        v = [field.zero] * m.ncols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        vecs.append(v)
    return reference_column_basis(field, vecs, m.ncols)


def slash_matrix(g: Mat2, w: int) -> list:
    """Matrix M with (X^j | g) = sum_i M[i][j] X^i, one ``slash_poly`` call
    per unit vector."""
    cols = [slash_poly(tuple(int(i == j) for i in range(w + 1)), g, w) for j in range(w + 1)]
    return [[cols[j][i] for j in range(w + 1)] for i in range(w + 1)]


def reference_w_relation_rows(space: CosetSpace, w: int) -> list:
    """Sparse rows of the period relations P|(1+S) = P|(1+U+U^2) = 0."""
    n = w + 1
    # row i of the matrix of |g, as its nonzero (j, entry) pairs
    sm = [[[(j, v) for j, v in enumerate(r) if v] for r in slash_matrix(g, w)]
          for g in (MAT_S, MAT_U, MAT_U2)]
    rows = []
    for l in range(space.size):
        acts = [space.signed_act(l, g, w) for g in (MAT_SINV, MAT_UINV, MAT_U2INV)]
        for i in range(n):
            for gs in ((0,), (1, 2)):  # the S row, then the U + U^2 row
                row: dict = {l * n + i: 1}
                for g in gs:
                    l2, s = acts[g]
                    for j, v in sm[g][i]:
                        row[l2 * n + j] = row.get(l2 * n + j, 0) + v * s
                rows.append({c: v for c, v in row.items() if v})
    return rows


def reference_wtilde_relation_rows(space: CosetSpace, w: int) -> list:
    """Relation rows for Wtilde over the X^(-1)..X^(w+1) coordinates.

    The S relation stays inside the monomial range.  The 1+U+U^2 relation
    is cleared by X(X-1), the only denominators the U-action produces, and
    read off as a polynomial identity of degree w+3.
    """
    n = w + 3
    # per degree, the (j + 1, coefficient) terms of X^j, X^j|U =
    # (X-1)^(j+1) X^(w-j+1) / (X(X-1)) and X^j|U2 = (-1)^j X (X-1)^(w-j+1) /
    # (X(X-1)), each cleared by X(X-1)
    cleared = [[[] for _ in range(3)] for _ in range(w + 4)]
    for j in range(-1, w + 2):
        u = poly_mul(_pow_linear(1, -1, j + 1), _pow_linear(1, 0, w - j + 1))
        u2 = poly_mul([0, 1], _pow_linear(1, -1, w - j + 1))
        for g, p in enumerate(([0] * (j + 1) + [-1, 1], u, [(-1) ** (j % 2) * v for v in u2])):
            for deg, v in enumerate(p):
                if v:
                    cleared[deg][g].append((j + 1, v))
    rows = []
    for l in range(space.size):
        lS, sS = space.signed_act(l, MAT_SINV, w)
        targets = ((l, 1), space.signed_act(l, MAT_UINV, w), space.signed_act(l, MAT_U2INV, w))
        # P~|(1+S) = 0, coefficientwise over the tilde range: X^i|S = +-X^(w-i)
        for i in range(-1, w + 2):
            row = {l * n + (i + 1): 1}
            col = lS * n + (w - i + 1)
            row[col] = row.get(col, 0) + (-1) ** ((w - i) % 2) * sS
            rows.append({c: v for c, v in row.items() if v})
        # P~|(1+U+U^2) = 0, cleared by X(X-1): degrees 0..w+3
        for deg in range(w + 4):
            row: dict = {}
            for (l2, s), terms in zip(targets, cleared[deg]):
                for j1, v in terms:
                    row[l2 * n + j1] = row.get(l2 * n + j1, 0) + v * s
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def reference_w_label_rows(space: CosetSpace, w: int):
    """Per label l, in label order: whether l is the least label of its
    U-orbit, the rows of P|(1+S) = 0 at l and those of P|(1+U+U^2) = 0 at
    l, one per coefficient."""
    n = w + 1
    # row i of the matrix of |g, as its nonzero (j, entry) pairs
    sm = [[[(j, v) for j, v in enumerate(r) if v] for r in slash_matrix(g, w)]
          for g in (MAT_S, MAT_U, MAT_U2)]
    for l in range(space.size):
        acts = [space.signed_act(l, g, w) for g in (MAT_SINV, MAT_UINV, MAT_U2INV)]
        s_rows, u_rows = [], []
        for i in range(n):
            for gs, out in (((0,), s_rows), ((1, 2), u_rows)):
                row: dict = {l * n + i: 1}
                for g in gs:
                    l2, s = acts[g]
                    for j, v in sm[g][i]:
                        row[l2 * n + j] = row.get(l2 * n + j, 0) + v * s
                out.append({c: v for c, v in row.items() if v})
        yield l <= min(acts[1][0], acts[2][0]), s_rows, u_rows

def reference_wtilde_label_rows(space: CosetSpace, w: int):
    """Per label l, in label order: whether l is the least label of its
    U-orbit, then the S rows and the U rows of Wtilde at l, over the
    X^(-1)..X^(w+1) coordinates.

    The S relation stays inside the monomial range.  The 1+U+U^2 relation
    is cleared by X(X-1), the only denominators the U-action produces, and
    read off as a polynomial identity of degree w+3.
    """
    n = w + 3
    # per degree, the (j + 1, coefficient) terms of X^j, X^j|U =
    # (X-1)^(j+1) X^(w-j+1) / (X(X-1)) and X^j|U2 = (-1)^j X (X-1)^(w-j+1) /
    # (X(X-1)), each cleared by X(X-1)
    cleared = [[[] for _ in range(3)] for _ in range(w + 4)]
    for j in range(-1, w + 2):
        u = poly_mul(_pow_linear(1, -1, j + 1), _pow_linear(1, 0, w - j + 1))
        u2 = poly_mul([0, 1], _pow_linear(1, -1, w - j + 1))
        for g, p in enumerate(([0] * (j + 1) + [-1, 1], u, [(-1) ** (j % 2) * v for v in u2])):
            for deg, v in enumerate(p):
                if v:
                    cleared[deg][g].append((j + 1, v))
    for l in range(space.size):
        lS, sS = space.signed_act(l, MAT_SINV, w)
        targets = ((l, 1), space.signed_act(l, MAT_UINV, w), space.signed_act(l, MAT_U2INV, w))
        s_rows, u_rows = [], []
        # P~|(1+S) = 0, coefficientwise over the tilde range: X^i|S = +-X^(w-i)
        for i in range(-1, w + 2):
            row = {l * n + (i + 1): 1}
            col = lS * n + (w - i + 1)
            row[col] = row.get(col, 0) + (-1) ** ((w - i) % 2) * sS
            s_rows.append({c: v for c, v in row.items() if v})
        # P~|(1+U+U^2) = 0, cleared by X(X-1): degrees 0..w+3
        for deg in range(w + 4):
            row: dict = {}
            for (l2, s), terms in zip(targets, cleared[deg]):
                for j1, v in terms:
                    row[l2 * n + j1] = row.get(l2 * n + j1, 0) + v * s
            row = {c: v for c, v in row.items() if v}
            if row:
                u_rows.append(row)
        yield l <= min(targets[1][0], targets[2][0]), s_rows, u_rows


def reference_orbit_rows(label_rows) -> list:
    """The relation rows kept from a per-label emitter: every S row, and a
    U row at l when l is the least label of its U-orbit or the row has at
    most two nonzeros.

    With Q = P|(1+U+U^2), Q|U = P|(U+U^2+J) = Q, as J = -1 acts on a label
    and its polynomial by the same sign.  So Q vanishes at l exactly when it
    vanishes at l U^(-1) and at l U^(-2): the U rows at one label of an orbit
    span those at the other two, and the row space is the one of the rows at
    every label (Stein 2007, ch. 8; Cremona 1997, 2.2).
    """
    rows = []
    for least, s_rows, u_rows in label_rows:
        rows += s_rows
        rows += u_rows if least else [r for r in u_rows if len(r) <= 2]
    return rows


def reference_relation_rows(space: CosetSpace, w: int, extended: bool) -> list:
    """The rows of ``_label_rows`` that ``reference_orbit_rows`` keeps."""
    return reference_orbit_rows(_label_rows(space, w, extended))


def reference_eps_rows(space: CosetSpace, w: int, sign: int) -> list:
    """Sparse rows of P|eps = sign P, one per pair {m, eps(m)}.

    (P|eps)[m] = s P[k] with k = eps(m), and eps is an involution, so the
    row at k is -sign s times the row at m: only m < k is kept.  Where eps
    fixes m the row is (s - sign) P[m], kept only when it is not empty.
    """
    rows = []
    for m, (k, s) in enumerate(eps_coordinates(space, w, False)):
        if m < k:
            rows.append({m: -sign, k: s})
        elif m == k and s != sign:
            rows.append({m: s - sign})
    return rows


def reference_two_term_pass(rows: list) -> tuple:
    """Fold the rows with one or two nonzeros by substitution.

    A signed union-find over their columns keeps x_c = f x_root, the root
    the least column of its class, f an int where the division is exact.
    A one-term row, or a cycle with a nonzero net coefficient, zeroes its
    class.  Returns the pivot rows (c, row) of these relations, row a
    primitive multiple of den x_c - num x_root for f = num / den, or x_c
    in a zero class, and the longer rows over the roots, in integers.
    """
    parent, zero = {}, set()  # c -> (parent, f): x_c = f x_parent; zero roots

    def find(c):
        if c not in parent:
            return c, 1
        path = []
        while c in parent:
            path.append(c)
            c = parent[c][0]
        acc = 1
        for node in reversed(path):
            acc = parent[node][1] * acc
            parent[node] = (c, acc)
        return c, acc

    long_rows, seen = [], set()
    for row in rows:
        if len(row) > 2:
            long_rows.append(row)
            continue
        seen.update(row)
        if len(row) == 1:
            zero.add(find(next(iter(row)))[0])
            continue
        (a, u), (b, v) = row.items()
        (ra, fa), (rb, fb) = find(a), find(b)
        if ra == rb:
            if u * fa + v * fb:
                zero.add(ra)
            continue
        if ra > rb:
            ra, fa, u, rb, fb, v = rb, fb, v, ra, fa, u
        num, den = -u * fa, v * fb  # x_rb = num / den x_ra
        if type(num) is int and type(den) is int and not num % den:
            parent[rb] = (ra, num // den)
        else:
            parent[rb] = (ra, Fraction(num, den))
        if rb in zero:
            zero.add(ra)
    image, pivots = {}, []
    for c in seen:
        r, f = find(c)
        if r in zero:
            image[c] = None
            pivots.append((c, {c: 1}))
        else:
            image[c] = (r, f)
            if r != c:
                num, den = f.numerator, f.denominator
                pivots.append((c, {r: -num, c: den} if num < 0 else {r: num, c: -den}))
    out = []
    for row in long_rows:
        new, fractional = {}, False
        for c, v in row.items():
            if c in image:
                target = image[c]
                if target is None:
                    continue
                c, f = target
                v *= f
                fractional = fractional or type(v) is not int
            new[c] = new.get(c, 0) + v
        if fractional:
            D = math.lcm(*(x.denominator for x in new.values()))
            new = {c: int(x * D) for c, x in new.items()}
        new = {c: x for c, x in new.items() if x}
        if new:
            out.append(_normalize_int_row(new))
    return pivots, out


def reference_resolve_sigma_coset(space: CosetSpace, label: int, M: Mat2,
                                  spec: SigmaSpec) -> Optional[tuple]:
    """The coset label carrying P in (P|_Sigma M)(A), or None.

    Put B = A M^vee.  If g = C M A^-1 lies in Sigma with N | c_g, then
    g B = n C, so n row(C) = d_g row(B) mod N for the bottom rows.  So C is
    the coset with bottom row u row(B), one ``label_of_row`` call:
    - Delta: u = 1, a coset exactly when gcd(B.c, B.d, N) = 1;
    - the adjoint coset: u = n^-1 mod N, as d_g = 1 on Gamma1 and d_g is a
      unit on Gamma0, whose labels are points of P^1;
    - the diamond <d>: u = d, as n = 1 and d_g = d.
    Theta solves its congruences mod n and mod N/n and joins them by CRT.
    """
    if spec.N != space.N or spec.kind != space.kind:
        raise HeckeError("double coset and coset space disagree")
    if M.det() != spec.n:
        raise HeckeError("matrix determinant %d does not match spec" % M.det())
    N = space.N
    B = space.lifts[label] * M.vee()
    if spec.variant == "delta":
        return space.label_of_row(B.c, B.d)
    if spec.variant == "theta":
        n = spec.n
        np = N // n
        if B.c % n or B.d % n:
            return None
        if spec.kind == GAMMA1:
            cp = _crt(-B.a % n, n, (B.c // n) % np, np)
            dp = _crt(-B.b % n, n, (B.d // n) % np, np)
        else:
            wm = spec.w_matrix
            y, t = wm.b, wm.d // n
            yinv = pow(y, -1, n)
            tinv = pow(t, -1, np)
            cp = _crt(yinv * B.a % n, n, tinv * (B.c // n) % np, np)
            dp = _crt(yinv * B.b % n, n, tinv * (B.d // n) % np, np)
        return space.label_of_row(cp, dp)
    u = pow(spec.n, -1, N) if spec.variant == "delta_vee" else spec.diamond
    return space.label_of_row(u * B.c, u * B.d)


def reference_operator(space: CosetSpace, w: int, t, spec: SigmaSpec,
                       extended: bool) -> tuple:
    """(blocks, poles, den, norm) of ``HeckeOperator(space, w, t, spec,
    extended)`` as periodpoly compiled them before it grouped the support
    by M mod N: one ``reference_resolve_sigma_coset`` call per (label, M)
    pair, and the columns X^j | M of each M with a hit from ``slash_poly``
    on unit vectors, folded M by M.
    """
    ints, den = clear_denominators(list(t.coeffs.values()))
    n = w + 3 if extended else w + 1
    folded = [{} for _ in range(space.size)]
    residues = {}
    for M, c in zip(t.coeffs, ints):
        cols = None
        for l in range(space.size):
            hit = reference_resolve_sigma_coset(space, l, M, spec)
            if hit is None:
                continue
            l2, s = hit
            if cols is None:
                cols, poles = _reference_slash_columns(M, w, extended)
            f = c if s ** w == 1 else -c
            for j, x0, res in poles:
                row = residues.setdefault((l, x0), {})
                row[l2 * n + j] = row.get(l2 * n + j, 0) + f * res
            block = folded[l].get(l2)
            if block is None:
                folded[l][l2] = [[f * v for v in col] for col in cols]
                continue
            for bcol, col in zip(block, cols):
                for i in range(n):
                    bcol[i] += f * col[i]
    if extended:
        scale = math.lcm(*(v.denominator for d in folded for block in d.values()
                           for col in block for v in col))
        folded = [{l2: [[int(v * scale) for v in col] for col in block]
                   for l2, block in d.items()} for d in folded]
        den *= scale
    blocks = [[(l2, list(zip(*block))) for l2, block in sorted(d.items())
               if any(any(col) for col in block)] for d in folded]
    poles = [row for row in rows_to_int_sparse(residues.values()) if row]
    rows = (row for d in folded for row in zip(*chain.from_iterable(d.values())))
    norm = max(chain((sum(map(abs, row)) for row in rows),
                     (sum(map(abs, row.values())) for row in poles)), default=0)
    return blocks, poles, den, norm


def _reference_slash_columns(M: Mat2, w: int, extended: bool) -> tuple:
    cols = [slash_poly(tuple(int(i == j) for i in range(w + 1)), M, w)
            for j in range(w + 1)]
    if not extended:
        return cols, ()
    first, pole_first = _over_linear(_pow_linear(M.c, M.d, w + 1), M.a, M.b, w)
    last, pole_last = _over_linear(_pow_linear(M.a, M.b, w + 1), M.c, M.d, w)
    cols = [first] + [(0,) + col + (0,) for col in cols] + [last]
    poles = [(j,) + pole for j, pole in ((0, pole_first), (w + 2, pole_last)) if pole]
    return cols, poles


def reference_restricted_matrix(sub, apply, den: int = 1) -> DenseMatrix:
    """Matrix on the basis of sub of a rational linear map of the ambient space.

    ``apply`` takes a list of ``ambient`` integer coordinates to den
    times its image.  The map is rational, so over Q(zeta_m) it acts on
    each zeta^t coordinate of a column separately.  Raises with the
    offending column index if an image leaves the span.
    """
    d, n = sub.field.degree, sub.ambient
    cols = []
    for j, (cden, vec) in enumerate(sub.columns):
        parts = [[0] * n for _ in range(d)]
        for k, v in vec.items():
            parts[k % d][k // d] = v
        image = [0] * (n * d)
        for t, values in enumerate(parts):
            image[t::d] = apply(values)
        x = sub._int_coordinates_of(image, cden * den)
        if x is None:
            raise PolySpaceError("image of basis vector %d leaves the subspace" % j)
        cols.append(x)
    return DenseMatrix.from_columns(sub.field, cols, nrows=sub.dim)
