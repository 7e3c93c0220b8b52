import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly.exactalg import (ApproxComplex, CyclotomicField, DenseMatrix,
                                 ExactAlgebraError, QQ, bernoulli,
                                 cyclotomic_polynomial, eigen_kernel,
                                 kernel_basis, poly_divmod, poly_mul,
                                 reduced_column_basis,
                                 rows_to_int_sparse, scalar_from_str,
                                 scalar_to_str, sparse_int_kernel,
                                 sparse_int_pivots, sparse_int_rank,
                                 _normalize_int_row)


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


class TestEigenKernel:
    def test_diagonal(self):
        m = DenseMatrix(QQ, [[2, 0], [0, 3]])
        assert eigen_kernel(m, 2).columns() == [(Fraction(1), Fraction(0))]
        assert eigen_kernel(m, 7).ncols == 0

    def test_zero_matrix_wrong_eigenvalue(self):
        m = DenseMatrix(QQ, [[0, 0], [0, 0]])
        assert eigen_kernel(m, 1).ncols == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ExactAlgebraError):
            eigen_kernel(DenseMatrix(QQ, [[1, 2, 3]]), 1)


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
            vecs = sparse_int_kernel(sparse, nc)
            assert len(vecs) == nc - dense.rank()
            for v in vecs:
                assert all(not sum(r[j] * v[j] for j in range(nc)) for r in rows)

    @settings(derandomize=True, database=None, max_examples=150)
    @given(data=st.data(), ncols=st.integers(1, 8))
    def test_kernel_is_canonical_and_order_free(self, data, ncols):
        entry = st.integers(-4, 4).filter(bool)
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4), max_size=8))
        vecs = sparse_int_kernel(rows, ncols)
        assert all(not sum(v * vec[c] for c, v in row.items()) for row in rows for vec in vecs)
        assert reduced_column_basis(QQ, vecs, ncols).columns() == vecs
        assert sparse_int_kernel(data.draw(st.permutations(rows)), ncols) == vecs

    @settings(derandomize=True, database=None, max_examples=300)
    @given(data=st.data(), ncols=st.integers(1, 12), reduce_fully=st.booleans())
    def test_heap_pivots_match_full_scan(self, data, ncols, reduce_fully):
        entry = st.integers(-5, 5).filter(bool)
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, max_size=5), max_size=16))
        assert (sparse_int_pivots(rows, reduce_fully=reduce_fully)
                == reference_sparse_int_pivots(rows, reduce_fully=reduce_fully))

    def test_reduced_column_basis_canonical(self):
        v1 = (Fraction(2), Fraction(0), Fraction(2))
        v2 = (Fraction(1), Fraction(1), Fraction(0))
        b1 = reduced_column_basis(QQ, [v1, v2], 3)
        b2 = reduced_column_basis(QQ, [v2, (Fraction(3), Fraction(1), Fraction(2))], 3)
        assert b1 == b2  # same span, same canonical form


def reference_sparse_int_pivots(rows, reduce_fully=False):
    """The eliminator with the pivot row chosen by a scan of every remaining row."""
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
    done.sort()
    if reduce_fully:
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


class TestScalarSerialization:
    def test_round_trip(self):
        for s in ("3", "-7/2", "0", "22/7"):
            assert scalar_to_str(scalar_from_str(s)) == s

    def test_integer_omits_denominator(self):
        assert scalar_to_str(Fraction(4, 2)) == "2"


class TestApproxComplex:
    def test_error_propagation_monotone(self):
        a = ApproxComplex(1 + 1j, 1e-9)
        b = ApproxComplex(2 - 1j, 1e-10)
        assert (a + b).err >= max(a.err, b.err)
        assert (a * b).err >= a.err
        assert (a - b).err == a.err + b.err

    def test_negative_error_rejected(self):
        with pytest.raises(ExactAlgebraError):
            ApproxComplex(1, -1e-9)

    def test_json(self):
        doc = ApproxComplex(1 + 2j, 3e-9).to_json()
        assert doc == {"re": 1.0, "im": 2.0, "err": 3e-9}
