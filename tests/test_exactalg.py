import copy
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly.exactalg import (ApproxComplex, Cyclotomic, CyclotomicField,
                                 DenseMatrix, ExactAlgebraError, QQ, bernoulli,
                                 clear_denominators, column_entries,
                                 cyclotomic_polynomial,
                                 eigen_columns, kernel_basis, poly_divmod,
                                 poly_mul, reduced_column_basis,
                                 rows_to_int_sparse, scalar_from_str,
                                 scalar_to_str, solve_columns,
                                 kernel_columns, sparse_int_pivots,
                                 sparse_int_rank, _normalize_int_row)

from periodpoly import exactalg, polyspace
from periodpoly.cosets import (GAMMA0, GAMMA1, MAT_U2INV, MAT_UINV, build_coset_space,
                               dirichlet_characters)
from periodpoly.polyspace import (_label_rows, _presentations, _presented_kernel, build_W,
                                  chi_component, eps_coordinates)

from dense_reference import (reference_column_basis, reference_eps_rows, reference_kernel_basis,
                             reference_two_term_pass,
                             reference_relation_rows, reference_rref_rows, reference_w_label_rows,
                             reference_w_relation_rows, reference_wtilde_label_rows,
                             reference_wtilde_relation_rows)


def akiyama_tanigawa(n):
    # independent oracle for Bernoulli numbers (first kind, B1 = -1/2)
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    out[1] = -out[1]
    return out


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(8) == Fraction(-1, 30)

    def test_against_independent_recurrence(self):
        oracle = akiyama_tanigawa(20)
        for n in range(21):
            assert bernoulli(n) == oracle[n]

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 31, 2))

    def test_negative_rejected(self):
        with pytest.raises(ExactAlgebraError):
            bernoulli(-1)


class TestCyclotomic:
    @pytest.mark.parametrize("m", list(range(1, 16)))
    def test_root_of_unity_identities(self, m):
        K = CyclotomicField(m)
        z = K.zeta
        p = K.one
        total = K.zero
        for _ in range(m):
            total = total + p
            p = p * z
        assert p == K.one
        if m > 1:
            assert not total

    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_inverse_and_conjugate(self):
        K = CyclotomicField(7)
        x = K.zeta + K.of(3)
        assert x * x.inverse() == K.one
        assert (x.conjugate().conjugate()) == x
        # |zeta|^2 = 1
        assert K.zeta * K.zeta.conjugate() == K.one

    def test_division_by_zero(self):
        K = CyclotomicField(3)
        with pytest.raises(ZeroDivisionError):
            K.zero.inverse()


def poly_mul_all(polys) -> list:
    out = [1]
    for p in polys:
        out = poly_mul(out, p)
    return out


class TestPolynomials:
    def test_divmod_exact_on_integer_input(self):
        num = poly_mul([3, 1], [-2, 0, 5])      # (X + 3)(5X^2 - 2), plus 1 below
        num[0] += 1
        for den in ([3, 1], [1, 2], [0, 0, 7], [2]):
            q, r = poly_divmod(num, den)
            assert all(type(c) in (int, Fraction) for c in q + r)
            back = poly_mul(q, den)
            back += [0] * (len(num) - len(back))
            assert [a + b for a, b in zip(back, r + [0] * len(num))] == num
        q, r = poly_divmod([-1, 0, 1], [1, 1])
        assert (q, r) == ([-1, 1], [0])

    @staticmethod
    def fraction_route(num, den):
        """poly_divmod over Q: Fraction inputs take its Fraction path."""
        return poly_divmod([Fraction(c) for c in num], [Fraction(c) for c in den])

    @settings(derandomize=True, database=None, max_examples=200)
    @given(num=st.lists(st.integers(-50, 50), max_size=12),
           den=st.lists(st.integers(-50, 50), max_size=8), lead=st.sampled_from([1, -1]))
    def test_unit_leading_divisor_stays_in_integers(self, num, den, lead):
        num, den = num or [0], den + [lead]
        q, r = poly_divmod(num, den)
        assert all(type(c) is int for c in q + r)
        assert (q, r) == self.fraction_route(num, den)

    def test_cyclotomic_divisions_stay_in_integers(self):
        """Every division cyclotomic_polynomial makes for m < 600, from a
        cold cache, in integers; the Fraction route agrees on a sample that
        holds the largest and the most composite m, and the product formula
        Phi_m = prod_(d | m) (X^d - 1)^mu(m / d) on all of them."""
        def mobius(n):
            out, p = 1, 2
            while p * p <= n:
                if n % p == 0:
                    n //= p
                    if n % p == 0:
                        return 0
                    out = -out
                p += 1
            return -out if n > 1 else out

        cyclotomic_polynomial.cache_clear()
        sample = set(range(1, 61)) | {210, 360, 420, 512, 577, 598}
        for m in range(1, 600):
            num = [-1] + [0] * (m - 1) + [1]
            for d in range(1, m):
                if m % d == 0:
                    q, r = poly_divmod(num, cyclotomic_polynomial(d))
                    assert all(type(c) is int for c in q) and not any(r)
                    if m in sample:
                        assert (q, r) == self.fraction_route(num, cyclotomic_polynomial(d))
                    num = q
            assert tuple(num) == cyclotomic_polynomial(m)
            prod, rest = [1], [1]
            for d in range(1, m + 1):
                if m % d == 0 and mobius(m // d):
                    (prod if mobius(m // d) == 1 else rest).append(d)
            top = poly_mul_all([[-1] + [0] * (d - 1) + [1] for d in prod[1:]])
            bottom = poly_mul_all([[-1] + [0] * (d - 1) + [1] for d in rest[1:]])
            assert poly_mul(bottom, list(num)) == top


class TestKernels:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis(DenseMatrix.identity(QQ, 3)).ncols == 0

    def test_one_by_two(self):
        kb = kernel_basis(DenseMatrix(QQ, [[1, -1]]))
        assert kb.columns() == [(Fraction(1), Fraction(1))]

    def test_kernel_annihilates_and_rank_nullity(self):
        rnd = random.Random(42)
        for _ in range(25):
            nr, nc = rnd.randint(1, 6), rnd.randint(1, 6)
            m = DenseMatrix(QQ, [[Fraction(rnd.randint(-4, 4)) for _ in range(nc)]
                                 for _ in range(nr)])
            kb = kernel_basis(m)
            if kb.ncols:
                assert (m * kb).is_zero()
            assert m.rank() + kb.ncols == nc

    def test_deterministic(self):
        m = DenseMatrix(QQ, [[2, 4, 6], [1, 2, 3], [0, 1, 1]])
        assert kernel_basis(m) == kernel_basis(m)

    def test_cyclotomic_kernel(self):
        K = CyclotomicField(4)
        i = K.zeta
        m = DenseMatrix(K, [[K.one, i]])
        kb = kernel_basis(m)
        assert kb.ncols == 1
        assert (m * kb).is_zero()

    @settings(derandomize=True, database=None, max_examples=200)
    @given(data=st.data(), m=st.sampled_from([1, 3, 4, 5, 8, 12]),
           nr=st.integers(1, 4), nc=st.integers(1, 5))
    def test_equals_dense_reference(self, data, m, nr, nc):
        # over Q (m = 1) and Q(zeta_m); a row mixing two others with a
        # field coefficient makes kernels of every size come up
        field = QQ if m == 1 else CyclotomicField(m)
        coeff = st.fractions(min_value=-2, max_value=2, max_denominator=3)

        def scalar():
            c = data.draw(st.lists(coeff, min_size=field.degree, max_size=field.degree))
            if data.draw(st.booleans()):
                return field.zero
            return c[0] if field is QQ else Cyclotomic(field, c)

        rows = [[scalar() for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and data.draw(st.booleans()):
            lam = scalar()
            rows.append([lam * a + b for a, b in zip(rows[0], rows[1])])
        mat = DenseMatrix(field, rows)
        assert kernel_basis(mat) == reference_kernel_basis(mat)
        assert mat.rank() == len(reference_rref_rows([list(r) for r in rows], field)[1])


class TestEigenColumns:
    def test_diagonal(self):
        m = DenseMatrix(QQ, [[2, 0], [0, 3]])
        assert [tuple(column_entries(QQ, den, vec, 2)) for den, vec in
                eigen_columns([(m, 2)])] == [(Fraction(1), Fraction(0))]
        assert eigen_columns([(m, 7)]) == []
        assert eigen_columns([(m, 2), (m, 3)]) == []

    def test_zero_matrix_wrong_eigenvalue(self):
        m = DenseMatrix(QQ, [[0, 0], [0, 0]])
        assert eigen_columns([(m, 1)]) == []

    def test_dimension_mismatch(self):
        square = DenseMatrix(QQ, [[1, 0], [0, 1]])
        for pairs in ([(DenseMatrix(QQ, [[1, 2, 3]]), 1)],
                      [(square, 1), (DenseMatrix.identity(QQ, 3), 1)]):
            with pytest.raises(ExactAlgebraError, match="eigen_columns needs square"):
                eigen_columns(pairs)


def int_kernel(rows, ncols):
    """The kernel columns of the eliminator as Fraction vectors."""
    return [tuple(column_entries(QQ, den, vec, ncols)) for den, vec in kernel_columns(rows, ncols)]


@st.composite
def short_row_systems(draw):
    """Systems of mostly one- and two-term rows: chains, cycles with
    consistent and with arbitrary ratios (mostly inconsistent), unit and
    non-unit ratios, one-term rows, repeated and rescaled rows, and a few
    longer rows."""
    ncols = draw(st.integers(3, 12))
    col = st.integers(0, ncols - 1)
    coeff = st.sampled_from([-3, -2, -1, 1, 1, 2, 3, 6])
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["chain", "cycle", "consistent", "one", "long"]))
        if kind == "one":
            rows.append({draw(col): draw(coeff)})
        elif kind == "long":
            rows.append(draw(st.dictionaries(col, coeff, min_size=3, max_size=5)))
        else:
            cols = draw(st.lists(col, min_size=2, max_size=6, unique=True))
            links = list(zip(cols, cols[1:]))
            if kind != "chain":
                links.append((cols[-1], cols[0]))
            if kind == "consistent":
                # every link holds at one nonzero point x
                x = {c: draw(coeff) for c in cols}
                rows.extend({a: x[b] * m, b: -x[a] * m}
                            for (a, b), m in zip(links, draw(st.lists(coeff, min_size=len(links),
                                                                      max_size=len(links)))))
            else:
                rows.extend({a: draw(coeff), b: draw(coeff)} for a, b in links)
    if rows:
        for row in draw(st.lists(st.sampled_from(rows), max_size=3)):
            k = draw(coeff)
            rows.append({c: k * v for c, v in row.items()})
    return draw(st.permutations(rows))


class TestSparse:
    def test_matches_dense(self):
        rnd = random.Random(9)
        for _ in range(20):
            nr, nc = rnd.randint(1, 7), rnd.randint(1, 7)
            rows = [[rnd.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            dense = DenseMatrix(QQ, rows)
            sparse = rows_to_int_sparse(
                [{j: v for j, v in enumerate(r) if v} for r in rows])
            assert sparse_int_rank(sparse) == dense.rank()
            vecs = int_kernel(sparse, nc)
            assert len(vecs) == nc - dense.rank()
            for v in vecs:
                assert all(not sum(r[j] * v[j] for j in range(nc)) for r in rows)

    @settings(derandomize=True, database=None, max_examples=150)
    @given(data=st.data(), ncols=st.integers(1, 8))
    def test_kernel_is_canonical_and_order_free(self, data, ncols):
        entry = st.integers(-4, 4).filter(bool)
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4), max_size=8))
        vecs = int_kernel(rows, ncols)
        assert all(not sum(v * vec[c] for c, v in row.items()) for row in rows for vec in vecs)
        assert reference_column_basis(QQ, vecs, ncols).columns() == vecs
        assert int_kernel(data.draw(st.permutations(rows)), ncols) == vecs

    @settings(derandomize=True, database=None, max_examples=300)
    @given(data=st.data(), ncols=st.integers(1, 12))
    def test_heap_pivots_match_full_scan(self, data, ncols):
        # the reduced form is unique; the rank clears the remaining rows only
        entry = st.integers(-5, 5).filter(bool)
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, max_size=5), max_size=16))
        reduced = reference_sparse_int_pivots(rows)
        assert sparse_int_pivots(rows) == reduced
        assert sparse_int_rank(rows) == len(reduced)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(rows=short_row_systems())
    def test_two_term_relations_match_full_scan(self, rows):
        reduced = reference_sparse_int_pivots(rows)
        assert sparse_int_pivots(rows) == reduced
        assert sparse_int_rank(rows) == len(reduced)

    def test_two_term_ratios(self):
        # 2 x0 = 3 x1 = 6 x2 (non-unit ratios), x3 = -x4 = x5 = x3 (a
        # consistent cycle), x6 = x7 = -x6 (an inconsistent one), x8 = 0
        rows = [{0: 2, 1: -3}, {1: 1, 2: -2}, {3: 1, 4: 1}, {4: 1, 5: 1},
                {5: 1, 3: -1}, {6: 1, 7: -1}, {7: 1, 6: 1}, {8: 5},
                {0: 1, 2: 1, 9: 1}]
        assert sparse_int_pivots(rows) == [
            (1, {0: 2, 1: -3}), (2, {0: 1, 2: -3}), (4, {3: 1, 4: 1}),
            (5, {3: 1, 5: -1}), (6, {6: 1}), (7, {7: 1}), (8, {8: 1}),
            (9, {0: 4, 9: 3})]
        assert sparse_int_pivots(rows) == reference_sparse_int_pivots(rows)

    @pytest.mark.parametrize("rows", [[{0: 2}], [{0: 4, 3: 6}, {3: 2}], [{1: -6, 4: 9}],
                                      [{0: -4, 2: 6}, {5: -3}]])
    def test_rows_are_made_primitive_as_they_are_copied(self, rows):
        # a pivot row is primitive with its least entry positive even when
        # it enters the loop as it came, with nothing left to clear from it;
        # a row whose least entry is negative changes its sign
        reduced = reference_sparse_int_pivots(rows)
        assert sparse_int_pivots(rows) == reduced
        assert all(row[min(row)] > 0 and math.gcd(*row.values()) == 1 for _, row in reduced)
        assert sparse_int_rank(rows) == len(reduced)

    def test_root_of_a_two_term_row_becomes_a_long_pivot(self):
        # x5 = x2 folds to its root 2; the pivot at 4 leaves row 3 as
        # {1, 2}, whose pivot, the root 2, is cleared from the chosen row
        # of pivot 7, from the two-term row of pivot 5 and from the
        # remaining row of pivot 6
        rows = [{2: 1, 5: -1}, {1: 1, 2: 1, 7: 1}, {0: 1, 1: 1, 4: 1},
                {0: 1, 4: 1, 5: 3}, {1: 1, 2: 1, 3: 1, 6: 1}]
        assert sparse_int_pivots(rows) == [
            (2, {1: 1, 2: -3}), (4, {0: 1, 1: 1, 4: 1}), (5, {1: 1, 5: -3}),
            (6, {1: 4, 3: 3, 6: 3}), (7, {1: 4, 7: 3})]
        assert sparse_int_pivots(rows) == reference_sparse_int_pivots(rows)
        assert sparse_int_rank(rows) == 5

    @pytest.mark.parametrize("two_term", [False, True])
    def test_input_rows_are_left_alone(self, two_term):
        # one dict object listed twice: the eliminator updates its own
        # copies only
        long_row, short_row = {0: 2, 1: 3, 4: 2, 6: 3}, {2: 3, 7: 2}
        rows = [long_row, {1: 1, 2: 5, 4: 3}, long_row, {0: 1, 2: 2, 6: 2}]
        if two_term:
            rows[1:1] = [short_row, short_row]
        before = copy.deepcopy(rows)
        unique = list({id(row): row for row in rows}.values())
        expected = reference_sparse_int_pivots(unique)
        first = sparse_int_pivots(rows)
        assert rows == before
        assert sparse_int_pivots(rows) == first == expected
        assert sparse_int_rank(rows) == len(expected)
        assert rows == before
        kernel = kernel_columns(rows, 8)
        assert rows == before
        assert kernel == kernel_columns(copy.deepcopy(unique), 8)
        assert kernel_columns(rows, 8) == kernel
        assert len(kernel) == 8 - len(expected)

    @settings(derandomize=True, database=None, max_examples=200)
    @given(data=st.data(), ncols=st.integers(3, 12))
    def test_long_rows_with_large_entries_match_full_scan(self, data, ncols):
        # entries up to 40 in size: most pivots do not divide the entries
        # they clear, so the other row is scaled before the subtraction
        entry = st.integers(-40, 40).filter(bool)
        rows = data.draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry,
                                                  min_size=3, max_size=min(8, ncols)),
                                  max_size=12))
        reduced = reference_sparse_int_pivots(rows)
        assert sparse_int_pivots(rows) == reduced
        assert sparse_int_rank(rows) == len(reduced)

    def test_pivots_that_do_not_divide_the_entries_they_clear(self):
        # the pivot 2 at column 4 clears 5 from the last row, which becomes
        # {0: 3, 1: 5, 2: -2, 3: -4}; the pivot 3 at column 3 then clears -4
        rows = [{0: 1, 1: 1, 4: 2}, {1: 1, 2: 2, 3: 3}, {0: 1, 2: 1, 3: 2, 4: 5}]
        reduced = sparse_int_pivots(rows)
        assert reduced == reference_sparse_int_pivots(rows)
        assert sparse_int_rank(rows) == len(reduced) == 3

    def test_reduced_column_basis_canonical(self):
        v1 = (Fraction(2), Fraction(0), Fraction(2))
        v2 = (Fraction(1), Fraction(1), Fraction(0))
        def sparse(v):
            return {c: x for c, x in enumerate(v) if x}

        b1 = reduced_column_basis(QQ, [sparse(v1), sparse(v2)], 3)
        b2 = reduced_column_basis(QQ, [sparse(v2), {0: Fraction(3), 1: 1, 2: 2}], 3)
        assert b1 == b2  # same span, same canonical form
        assert [tuple(column_entries(QQ, den, vec, 3)) for den, vec in b1] == \
            reference_column_basis(QQ, [v1, v2], 3).columns()

    def test_solve_columns(self):
        basis = DenseMatrix(QQ, [[1, 0], [1, 1], [0, 2]])
        targets = [(2, 5, 6), (0, Fraction(1, 2), 1)]
        assert solve_columns(basis, targets) == [(2, 3), (0, Fraction(1, 2))]
        assert solve_columns(basis, [(2, 5, 6), (1, 0, 0)]) is None
        K = CyclotomicField(3)
        z = K.zeta
        basis = DenseMatrix(K, [[K.one], [z]])
        assert solve_columns(basis, [(z, z * z)]) == [(z,)]
        assert solve_columns(basis, [(K.one, K.one)]) is None


def reference_sparse_int_pivots(rows):
    """The eliminator with the pivot row chosen by a scan of every remaining
    row, then the pivot rows reduced one by one: the reduced echelon form."""
    active = [_normalize_int_row(dict(r)) for r in rows if r]
    col_index = {}
    for i, row in enumerate(active):
        for c in row:
            col_index.setdefault(c, set()).add(i)
    done = []
    remaining = set(range(len(active)))
    while remaining:
        best = min(remaining, key=lambda i: (len(active[i]), i))
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
            new = {c: v * pv for c, v in orow.items()}
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
        done.append((pc, row))
    # then Gauss-Jordan: each pivot cleared from the other pivot rows
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
    return sorted(by_col.items())


def relation_systems(kind, N, k, monkeypatch):
    """The integer systems whose ranks and kernels are the spaces: W, the
    W+- systems of ``w_dimensions``, Wtilde and the realified rows of the
    M_u - chi(u) I of ``chi_component`` on W (M_u the diamond operators on
    W), one for each character of the weight's parity."""
    space, w = build_coset_space(kind, N, k), k - 2
    rows = reference_relation_rows(space, w, False)
    systems = [rows, reference_relation_rows(space, w, True)]
    eps = eps_coordinates(space, w, False)
    for target in (1, -1):
        extra = []
        for m, (c, s) in enumerate(eps):
            row = {m: -target}
            row[c] = row.get(c, 0) + s
            extra.append({c: v for c, v in row.items() if v})
        systems.append(rows + extra)
    if kind == GAMMA1:
        W, kernel_columns = build_W(space, w), exactalg.kernel_columns

        def capture(rows, ncols, field):
            systems.append(list(rows))
            return kernel_columns(systems[-1], ncols, field)

        # chi_component reaches the eliminator through eigen_columns
        monkeypatch.setattr(exactalg, "kernel_columns", capture)
        for chi in dirichlet_characters(N):
            if chi.is_even_for_weight(k):
                chi_component(W, chi)
    return systems


REAL_SYSTEM_SPACES = [(GAMMA0, 37, 4), (GAMMA0, 120, 2), (GAMMA0, 12, 8),
                      (GAMMA0, 389, 2), (GAMMA1, 13, 3), (GAMMA1, 11, 2)]


class TestRealSystems:
    @pytest.mark.parametrize("kind,N,k", REAL_SYSTEM_SPACES)
    def test_rank_and_reduced_form_match_full_scan(self, kind, N, k, monkeypatch):
        systems = relation_systems(kind, N, k, monkeypatch)
        assert all(any(len(r) <= 2 for r in rows) for rows in systems[:4])
        assert len(systems) > 4 or kind == GAMMA0  # the chi rows were seen
        for rows in systems:
            reduced = reference_sparse_int_pivots(rows)
            assert sparse_int_pivots(rows) == reduced
            assert sparse_int_rank(rows) == len(reduced)

    @pytest.mark.parametrize("m", [5, 12])
    def test_realified_rows_equal_the_expansion_of_every_entry(self, m):
        # rational entries [a0, 0, ...], zero ones among them, fill the
        # identity directly; the rows, their key order included, are those
        # of mult_columns on every entry
        field, rnd = CyclotomicField(m), random.Random(m)

        def entry():
            a = [Fraction(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(field.degree)]
            return a if rnd.random() < 0.4 else [a[0] if rnd.random() < 0.8 else 0] + \
                [0] * (field.degree - 1)

        rows = [{j: entry() for j in rnd.sample(range(12), rnd.randint(1, 6))}
                for _ in range(40)]
        expected = []
        for row in rows:
            real = [{} for _ in range(field.degree)]
            for j, a in row.items():
                for t, col in enumerate(exactalg.mult_columns(field, a)):
                    for s, v in enumerate(col):
                        if v:
                            real[s][j * field.degree + t] = v
            expected.extend(rows_to_int_sparse(real))
        got = exactalg.realified_rows(field, rows)
        assert [list(r.items()) for r in got] == [list(r.items()) for r in expected]
        assert sum(not any(a[1:]) for row in rows for a in row.values()) > 50


def every_label_rows(space, w, extended) -> list:
    return [r for _, s_rows, u_rows in _label_rows(space, w, extended) for r in s_rows + u_rows]


def row_multiset(rows) -> list:
    return sorted(sorted(row.items()) for row in rows)


class TestOrbitRows:
    """The U rows at one label of each U-orbit, with the short U rows at
    every label, against the rows at every label."""

    REFERENCES = {False: reference_w_relation_rows, True: reference_wtilde_relation_rows}

    @pytest.mark.parametrize("kind,N,k,extended",
                             [(*s, e) for s in REAL_SYSTEM_SPACES for e in (False, True)]
                             + [(GAMMA0, 1000, 2, True)])
    def test_same_reduced_form_as_every_label(self, kind, N, k, extended):
        space, w = build_coset_space(kind, N, k), k - 2
        rows = reference_relation_rows(space, w, extended)
        every = self.REFERENCES[extended](space, w)
        # the emitter leaves out empty rows, the equation 0 = 0
        assert (row_multiset(every_label_rows(space, w, extended))
                == row_multiset(r for r in every if r))
        assert len(rows) < len(every)
        assert sparse_int_pivots(rows) == sparse_int_pivots(every)

    @pytest.mark.parametrize("kind,N,k", [(GAMMA0, 37, 4), (GAMMA1, 13, 3)])
    @pytest.mark.parametrize("extended", [False, True])
    def test_dropping_one_orbit_changes_the_reduced_form(self, kind, N, k, extended):
        """Without the long U rows of one whole orbit the comparison fails."""
        space, w = build_coset_space(kind, N, k), k - 2
        orbit = {0, space.signed_act(0, MAT_UINV, w)[0], space.signed_act(0, MAT_U2INV, w)[0]}
        rows = []
        for l, (_, s_rows, u_rows) in enumerate(_label_rows(space, w, extended)):
            rows += s_rows + [r for r in u_rows if l not in orbit or len(r) <= 2]
        every = every_label_rows(space, w, extended)
        assert len(orbit) == 3
        assert sparse_int_pivots(rows) != sparse_int_pivots(every)


PRESENTATION_GRID = ([(GAMMA0, range(1, 61), k) for k in (2, 3, 4, 6)]
                     + [(GAMMA1, range(5, 17), k) for k in (2, 3, 4)])


class TestPresentation:
    """The period systems presented over their two-term classes, against
    the S, U and eps rows folded by the union-find two-term pass the
    eliminator had before: W, W+, W- and Wtilde of Gamma0(N), N <= 60,
    k = 2, 3, 4, 6 and Gamma1(N), 5 <= N <= 16, k = 2, 3, 4 (864 systems).
    The presented rows of W, W+ and W- are the reference's longer rows,
    each once.  Wtilde is presented as W's U rows plus its cusp tails, so
    its rows and folded columns differ from the reference's on purpose: its
    kernel is compared with the kernel of every S and U row at every label."""

    @staticmethod
    def folded_pivots(image, merged=None) -> list:
        """The pivot rows (c, row) of the columns a presentation folds: x_c
        in a zero class, else den x_c - num x_root for f = num / den,
        primitive, the class map taken on through merged where given."""
        out = []
        for c, (r, f) in image.items():
            if merged is not None:
                r, g = merged[r]
                f *= g
            if not f:
                out.append((c, {c: 1}))
            elif r != c:
                num, den = f.numerator, f.denominator
                out.append((c, {r: -num, c: den} if num < 0 else {r: num, c: -den}))
        return out

    @staticmethod
    def as_set(pivots) -> set:
        return {(c, tuple(sorted(r.items()))) for c, r in pivots}

    @staticmethod
    def assert_same_rows_once(presented, long_rows, where=None):
        distinct = {frozenset(r.items()) for r in presented}
        assert len(distinct) == len(presented), where
        assert distinct == {frozenset(r.items()) for r in long_rows}, where

    @staticmethod
    def assert_over_roots(roots, folded, presented, ncols, where=None):
        # every column is a root of a nonzero class or has a pivot row of
        # its own, and the rows lie over the roots
        assert len(roots) + len(folded) == ncols, where
        assert roots.isdisjoint(c for c, _ in folded), where
        assert all(roots.issuperset(row) for row in presented), where

    @pytest.mark.parametrize("kind,levels,k", PRESENTATION_GRID)
    def test_same_pivots_and_long_rows_as_the_two_term_pass(self, kind, levels, k):
        systems = 0
        for N in levels:
            space, w = build_coset_space(kind, N, k), k - 2
            if space.degenerate:
                continue
            for extended, sign in ((False, 0), (False, 1), (False, -1), (True, 0)):
                rows = reference_relation_rows(space, w, extended)
                if sign:
                    rows = rows + reference_eps_rows(space, w, sign)
                presentation, = _presentations(space, w, extended, (sign,))
                roots, image, merged, presented = presentation
                folded = self.folded_pivots(image, merged)
                where = (kind, N, k, extended, sign)
                ncols = space.size * (w + (3 if extended else 1))
                self.assert_over_roots(roots, folded, presented, ncols, where)
                if extended:
                    every = reference_wtilde_relation_rows(space, w)
                    assert _presented_kernel(*presentation) == kernel_columns(every, ncols), where
                    systems += 1
                    continue
                pivots, long_rows = reference_two_term_pass([r for r in rows if r])
                assert self.as_set(folded) == self.as_set(pivots), where
                assert len(folded) == len(pivots), where
                self.assert_same_rows_once(presented, long_rows, where)
                if systems % 7 == 0:
                    assert _presented_kernel(*presentation) == kernel_columns(rows, ncols), where
                systems += 1
        assert systems == 4 * len(levels) * (1 if kind == GAMMA1 or k % 2 == 0 else 0)

    @pytest.mark.parametrize("kind,levels,k", PRESENTATION_GRID)
    def test_rank_only_dimensions_against_the_reference_rows(self, kind, levels, k):
        """dims without any pivot row of a folded column: ncols less the
        rank of the reference's S, U and eps rows."""
        for N in levels:
            space, w = build_coset_space(kind, N, k), k - 2
            if space.degenerate:
                continue
            ncols = space.size * (w + 1)
            rows = reference_relation_rows(space, w, False)
            signed = [ncols - sparse_int_rank(rows + reference_eps_rows(space, w, sign))
                      for sign in (1, -1)]
            assert (polyspace.w_dimensions(space, w)
                    == (ncols - sparse_int_rank(rows), *signed)), (kind, N, k)
            assert (polyspace.wtilde_dimension(space, w)
                    == space.size * (w + 3)
                    - sparse_int_rank(reference_relation_rows(space, w, True))), (kind, N, k)

    @pytest.mark.parametrize("kind,N,k", [(GAMMA0, 13, 4), (GAMMA0, 37, 2), (GAMMA1, 7, 3)])
    def test_ties_of_any_coefficients_at_fixed_labels(self, kind, N, k, monkeypatch):
        """Where U fixes a label the ties may have any coefficients; the
        spaces give only +-u x + -+u y and u x, so ties 2 x + 3 y, 4 x - 6 y
        and 5 x join the rows of the fixed labels, and the reference's
        two-term pass gets the same rows.  The basis unfolds the kernel over
        the roots by these fractional factors; it is the kernel of the
        reference's rows with the ties."""
        space, w = build_coset_space(kind, N, k), k - 2
        real, n, size = polyspace._orbit_rows, w + 1, space.size * (w + 1)
        half = size // 2 // n * n
        ties = [{n: 2, half + n: 3}, {3 * n: 4, half + 3 * n: -6}, {5 * n: 5}]
        monkeypatch.setattr(polyspace, "_orbit_rows",
                            lambda space, w, extended: real(space, w, extended) + ties)
        for sign in (0, 1, -1):
            rows = reference_relation_rows(space, w, False) + ties
            if sign:
                rows = rows + reference_eps_rows(space, w, sign)
            pivots, long_rows = reference_two_term_pass([r for r in rows if r])
            (roots, image, merged, presented), = _presentations(space, w, False, (sign,))
            folded = self.folded_pivots(image, merged)
            coefficients = {abs(v) for _, r in pivots for v in r.values()}
            assert sign == -1 or {2, 3} <= coefficients, coefficients
            assert self.as_set(folded) == self.as_set(pivots)
            self.assert_same_rows_once(presented, long_rows)
            self.assert_over_roots(roots, folded, presented, size)
            assert build_W(space, w, sign).columns == kernel_columns(rows, size), sign

    def test_long_row_with_a_folded_column_is_refused_under_optimize(self):
        # a presented row that still holds a folded column, one of a class
        # other than its root, is refused by the check of _presentations,
        # which python -O keeps, on the basis and the rank paths of W and
        # Wtilde
        code = ("from periodpoly import polyspace\n"
                "from periodpoly.cosets import GAMMA0, build_coset_space\n"
                "from periodpoly.exactalg import CheckFailed\n"
                "real = polyspace._over_roots\n"
                "def over_roots(rows, image):\n"
                "    out = real(rows, image)\n"
                "    out[0][next(c for c, (r, _) in image.items() if r != c)] = 1\n"
                "    return out\n"
                "polyspace._over_roots = over_roots\n"
                "space = build_coset_space(GAMMA0, 37, 4)\n"
                "for run in (polyspace.build_W, polyspace.w_dimensions,\n"
                "            polyspace.build_W_extended, polyspace.wtilde_dimension):\n"
                "    try:\n"
                "        run(space, 2)\n"
                "    except CheckFailed as exc:\n"
                "        print('CheckFailed:', exc)\n")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
        assert proc.returncode == 0
        refusal = "CheckFailed: a presented row holds a folded column, not only roots\n"
        assert proc.stdout == 4 * refusal


class TestLabelRows:
    """The table-driven emitter against the per-label emitters of W and
    Wtilde it replaced, on Gamma0(N), N <= 60, k = 2, 3, 4, 6 and Gamma1(N),
    N <= 16, k = 2, 3, 4: the same nonempty rows, with their columns in the
    same order, and the same least-of-orbit flags."""

    @pytest.mark.parametrize("kind,levels,k", [(GAMMA0, 60, k) for k in (2, 3, 4, 6)]
                             + [(GAMMA1, 16, k) for k in (2, 3, 4)])
    def test_same_rows_and_flags_as_the_two_emitters(self, kind, levels, k):
        for N in range(1, levels + 1):
            space, w = build_coset_space(kind, N, k), k - 2
            for extended, reference in ((False, reference_w_label_rows),
                                        (True, reference_wtilde_label_rows)):
                got = list(_label_rows(space, w, extended))
                want = [(least, [r for r in s if r], [r for r in u if r])
                        for least, s, u in reference(space, w)]
                assert got == want, (kind, N, k, extended)
                # dict equality ignores the order of the columns in a row
                assert ([list(r) for _, s, u in got for r in s + u]
                        == [list(r) for _, s, u in want for r in s + u])
                assert len(got) == space.size and all(r for _, s, u in got for r in s + u)


class TestScalarSerialization:
    def test_round_trip(self):
        for s in ("3", "-7/2", "0", "22/7"):
            assert scalar_to_str(scalar_from_str(s)) == s

    def test_integer_omits_denominator(self):
        assert scalar_to_str(Fraction(4, 2)) == "2"

    @staticmethod
    def via_fraction(x):
        """The serialization through Fraction(x) for every input."""
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator,
                                                                       x.denominator)

    @pytest.mark.parametrize("x", [0, 1, -1, 12, -3 ** 80, 2 ** 200, True, False,
                                   Fraction(0), Fraction(-5), Fraction(0, 7),
                                   Fraction(-7, 2), Fraction(22, 7), Fraction(1, 3 ** 60),
                                   "6/4", 0.5])
    def test_fast_paths_give_the_fraction_strings(self, x):
        assert scalar_to_str(x) == self.via_fraction(x)

    @settings(derandomize=True, database=None, max_examples=200)
    @given(x=st.one_of(st.integers(), st.fractions()))
    def test_fast_paths_on_ints_and_fractions(self, x):
        assert scalar_to_str(x) == self.via_fraction(x)


class TestClearDenominators:
    @settings(derandomize=True, database=None, max_examples=200)
    @given(values=st.lists(st.one_of(st.integers(), st.fractions()), max_size=8))
    def test_int_fast_path_matches_the_fraction_route(self, values):
        ints, den = clear_denominators(values)
        assert (ints, den) == clear_denominators([Fraction(v) for v in values])
        assert all(type(v) is int for v in ints)
        if all(type(v) is int for v in values):
            assert ints == values and ints is not values and den == 1

    def test_non_rational_is_refused(self):
        assert clear_denominators([1, 2.5]) is None
        assert clear_denominators([Fraction(1, 2), "3"]) is None


class TestApproxComplex:
    def test_negative_error_rejected(self):
        with pytest.raises(ExactAlgebraError):
            ApproxComplex(1, -1e-9)
