import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly.exactalg import (CheckFailed, DenseMatrix, QQ, column_entries,
                                 kernel_columns, sparse_int_pivots)
from periodpoly.cosets import (GAMMA0, GAMMA1, MAT_I, MAT_S, MAT_T, MAT_TINV,
                               MAT_U, MAT_U2, Mat2, build_coset_space,
                               cusp_classes, dirichlet_characters,
                               _unit_group_generators)
from periodpoly.polyspace import (ExtPolyVector, PolySpaceError, PolyVector,
                                  Subspace, build_W, build_W_extended,
                                  build_coboundary_and_D, chi_component, cminus_trivial,
                                  coboundary_and_D_dimensions,
                                  eps_split, pair_braces, pair_induced, pair_vw,
                                  slash_columns, slash_poly,
                                  w_dimensions, wtilde_dimension,
                                  _coboundary_and_D_vectors, _tail_families,
                                  _label_rows, eps_coordinates)

from periodpoly import polyspace
from dense_reference import (reference_column_basis, reference_eps_rows,
                             reference_kernel_basis, reference_relation_rows)


def check_extended_relations(vec: ExtPolyVector) -> bool:
    """P~|(1+S) = P~|(1+U+U^2) = 0 in the cleared rational-function model,
    the S and U rows at every label."""
    rows = [r for _, s_rows, u_rows in _label_rows(vec.space, vec.w, True)
            for r in s_rows + u_rows]
    coords = vec.tilde_coords()
    return all(sum(c * coords[i] for i, c in row.items()) == 0 for row in rows)


def rand_vec(rnd, space, w):
    return PolyVector(space, w, [[Fraction(rnd.randint(-4, 4)) for _ in range(w + 1)]
                                 for _ in range(space.size)])


class TestSlash:
    def test_s_on_square(self):
        assert slash_poly((0, 0, 1), MAT_S, 2) == (1, 0, 0)

    def test_t_on_top_power(self):
        for w in (1, 3, 5):
            p = tuple(0 if i < w else 1 for i in range(w + 1))
            assert slash_poly(p, MAT_T, w) == tuple(math.comb(w, i) for i in range(w + 1))

    def test_adjoint_spot_instance(self):
        # p = (X+1)^2, q = X^2, g = T, w = 2: both sides equal 4
        p, q = (1, 2, 1), (0, 0, 1)
        lhs = pair_vw(slash_poly(p, MAT_T, 2), q, 2)
        rhs = pair_vw(p, slash_poly(q, MAT_T.vee(), 2), 2)
        assert lhs == rhs == 4

    def test_singular_rejected(self):
        with pytest.raises(PolySpaceError):
            slash_poly((1, 0), Mat2(1, 1, 1, 1), 1)

    @pytest.mark.parametrize("w", range(0, 11))
    def test_column_sums_match_slash_poly(self, w):
        rnd = random.Random(w)
        terms = []
        for _ in range(6):
            g = Mat2(*(rnd.randint(-9, 9) for _ in range(4)))
            if g.det():
                terms.append((g, rnd.randint(-5, 5)))
        units = [tuple(int(i == j) for i in range(w + 1)) for j in range(w + 1)]
        for g, _ in terms:
            assert slash_columns([(g, 1)], w) == [list(slash_poly(u, g, w)) for u in units]
        assert slash_columns(terms, w) == [
            [sum(c * slash_poly(u, g, w)[i] for g, c in terms) for i in range(w + 1)]
            for u in units]


class TestPairVw:
    def test_paper_normalization(self):
        # <(aX+b)^w, (cX+d)^w> = (ad - bc)^w
        assert pair_vw((1, 2, 1), (9, 12, 4), 2) == 1
        rnd = random.Random(2)
        for _ in range(20):
            w = rnd.randint(0, 5)
            a, b, c, d = (rnd.randint(-3, 3) for _ in range(4))
            pa = [math.comb(w, i) * a ** i * b ** (w - i) for i in range(w + 1)]
            pc = [math.comb(w, i) * c ** i * d ** (w - i) for i in range(w + 1)]
            assert pair_vw(pa, pc, w) == (a * d - b * c) ** w

    def test_degenerate(self):
        assert pair_vw((0, 1), (0, 1), 1) == 0

    def test_symmetry(self):
        rnd = random.Random(4)
        for _ in range(20):
            w = rnd.randint(0, 6)
            p = tuple(Fraction(rnd.randint(-5, 5)) for _ in range(w + 1))
            q = tuple(Fraction(rnd.randint(-5, 5)) for _ in range(w + 1))
            assert pair_vw(p, q, w) == (-1) ** w * pair_vw(q, p, w)


class TestPairInduced:
    def test_zero(self, space5):
        P = PolyVector.zero(space5, 2)
        Q = PolyVector(space5, 2, [[1, 2, 3]] * 6)
        assert pair_induced(Q, P) == 0

    def test_level_one_reduces_to_pair_vw(self):
        sp = build_coset_space(GAMMA0, 1, 6)
        P = PolyVector(sp, 4, [[1, 2, 0, 1, 5]])
        Q = PolyVector(sp, 4, [[0, 1, 1, 3, 2]])
        assert pair_induced(P, Q) == pair_vw((1, 2, 0, 1, 5), (0, 1, 1, 3, 2), 4)

    def test_constant_against_square(self):
        sp = build_coset_space(GAMMA0, 2, 4)
        P = PolyVector(sp, 2, [[1, 0, 0]] * 3)
        Q = PolyVector(sp, 2, [[0, 0, 1]] * 3)
        assert pair_induced(P, Q) == 1

    def test_gamma1_invariance(self):
        rnd = random.Random(8)
        sp = build_coset_space(GAMMA1, 5, 3)
        for _ in range(10):
            P, Q = rand_vec(rnd, sp, 1), rand_vec(rnd, sp, 1)
            g = MAT_I
            for _ in range(rnd.randint(0, 6)):
                g = g * (MAT_S if rnd.random() < 0.5 else MAT_T)
            assert pair_induced(P.slash(g), Q.slash(g)) == pair_induced(P, Q)


class TestBraces:
    def test_antisymmetry_plain_and_extended(self):
        rnd = random.Random(11)
        for (N, k) in ((2, 8), (6, 2)):
            sp = build_coset_space(GAMMA0, N, k)
            w = k - 2
            _, D = build_coboundary_and_D(sp, w)
            for _ in range(5):
                P, Q = rand_vec(rnd, sp, w), rand_vec(rnd, sp, w)
                assert pair_braces(P, Q) == (-1) ** (w + 1) * pair_braces(Q, P)
            for i in range(D.dim):
                for j in range(D.dim):
                    a, b = D.vector(i), D.vector(j)
                    assert pair_braces(a, b) == (-1) ** (w + 1) * pair_braces(b, a)

    def test_self_pairing_vanishes_even_weight(self):
        rnd = random.Random(12)
        sp = build_coset_space(GAMMA0, 5, 4)
        for _ in range(5):
            P = rand_vec(rnd, sp, 2)
            assert pair_braces(P, P) == 0

    def test_eps_twist(self):
        rnd = random.Random(13)
        sp = build_coset_space(GAMMA0, 5, 4)
        for _ in range(8):
            P, Q = rand_vec(rnd, sp, 2), rand_vec(rnd, sp, 2)
            assert pair_braces(P.eps(), Q.eps()) == -pair_braces(P, Q)

    def test_coboundary_orthogonal_to_W(self):
        for (N, k) in ((2, 8), (5, 4), (6, 2)):
            sp = build_coset_space(GAMMA0, N, k)
            W = build_W(sp, k - 2)
            C, _ = build_coboundary_and_D(sp, k - 2)
            for i in range(C.dim):
                for j in range(W.dim):
                    assert pair_braces(C.vector(i), W.vector(j)) == 0

    def test_duality_closed_form(self):
        from periodpoly.polyspace import _tail_families
        for (N, k) in ((2, 8), (5, 4), (6, 2)):
            sp = build_coset_space(GAMMA0, N, k)
            w = k - 2
            Wt = build_W_extended(sp, w)
            for fam in _tail_families(sp, w):
                fam = [fam.get(l, 0) for l in range(sp.size)]
                vals = []
                for l in range(sp.size):
                    l1, s1 = sp.act(l, MAT_S.inverse())
                    poly = [0] * (w + 1)
                    poly[0] += fam[l]
                    poly[w] -= fam[l1]
                    vals.append(tuple(poly))
                P = PolyVector(sp, w, vals)
                for j in range(Wt.dim):
                    Q = Wt.vector(j)
                    rhs = -Fraction(6, sp.index) * sum(
                        Fraction(a) * (-1) ** w * (w + 1) * b
                        for a, b in zip(fam, Q.tails))
                    assert pair_braces(P, Q) == rhs


class TestBuildW:
    def test_level_one_k12(self):
        sp = build_coset_space(GAMMA0, 1, 12)
        assert build_W(sp, 10).dim == 3  # 2 dim S_12 + dim C = 2 + 1

    def test_gamma0_5_k4(self, w5, w5_split):
        assert w5.dim == 4
        plus, minus = w5_split
        assert (plus.dim, minus.dim) == (3, 1)

    def test_basis_satisfies_relations(self, w5):
        for j in range(w5.dim):
            P = w5.vector(j)
            assert (P + P.slash(MAT_S)).is_zero()
            assert (P + P.slash(MAT_U) + P.slash(MAT_U2)).is_zero()

    def test_degenerate_odd_weight(self):
        sp = build_coset_space(GAMMA0, 5, 5)
        assert build_W(sp, 3).dim == 0

    def test_dimension_identity(self):
        # dim W = 2 dim S + dim C at points with known dim S
        for (N, k, dim_s) in ((1, 12, 1), (2, 8, 1), (5, 4, 1), (6, 2, 0), (7, 4, 1)):
            sp = build_coset_space(GAMMA0, N, k)
            W = build_W(sp, k - 2)
            C, _ = build_coboundary_and_D(sp, k - 2)
            assert W.dim == 2 * dim_s + C.dim

    def test_rank_only_dimensions_agree(self):
        for (N, k) in ((5, 4), (6, 2), (2, 8)):
            sp = build_coset_space(GAMMA0, N, k)
            W = build_W(sp, k - 2)
            plus, minus = eps_split(W)
            assert w_dimensions(sp, k - 2) == (W.dim, plus.dim, minus.dim)

    @pytest.mark.parametrize("kind, N, k", [(GAMMA0, 37, 4), (GAMMA0, 100, 6),
                                            (GAMMA0, 389, 2), (GAMMA1, 13, 3),
                                            (GAMMA0, 1, 12)])
    def test_eps_rows_one_per_pair_span_every_coordinate_row(self, kind, N, k):
        """One nonempty row per pair {m, eps(m)}, spanning the same rows as
        the relation P|eps = sign P written at every coordinate."""
        space, w = build_coset_space(kind, N, k), k - 2
        eps = eps_coordinates(space, w, False)
        pairs = {frozenset((m, c)) for m, (c, _) in enumerate(eps)}
        for sign in (1, -1):
            full = []
            for m, (c, s) in enumerate(eps):
                row = {m: -sign}
                row[c] = row.get(c, 0) + s
                full.append({i: v for i, v in row.items() if v})
            rows = reference_eps_rows(space, w, sign)
            assert all(rows) and len(rows) == sum(
                1 for p in pairs if len(p) == 2 or eps[min(p)][1] != sign)
            assert sparse_int_pivots(rows) == sparse_int_pivots([r for r in full if r])


def reference_tail_families(space, w):
    """Per-cusp constant families with c_A = c_(AT), c_(AJ) = (-1)^w c_A.

    For odd w only regular cusps carry a nonzero family.
    """
    families = []
    for cl in space.cusp_classes().classes:
        c, frontier, ok = {cl.representative: 1}, [cl.representative], True
        while frontier:
            l = frontier.pop()
            for g in (MAT_T, MAT_TINV):
                l2, s = space.signed_act(l, g, w)
                if l2 not in c:
                    c[l2] = c[l] * s
                    frontier.append(l2)
                ok = ok and c[l2] == c[l] * s
        if ok:
            families.append(tuple(c.get(l, 0) for l in range(space.size)))
    return families


class TestCoboundaryAndD:
    @pytest.mark.parametrize("kind, N", [(GAMMA0, N) for N in range(1, 61)]
                             + [(GAMMA1, N) for N in range(1, 31)])
    def test_tail_families_equal_reference(self, kind, N):
        for k in (2, 3, 4, 5):
            sp = build_coset_space(kind, N, k)
            if sp.degenerate:
                # -1 in the group and odd w: c_A = c_(AJ) = -c_A, so no cusp
                # carries a family (the reference's T-walk cannot see J)
                assert _tail_families(sp, k - 2) == []
            else:
                fams = _tail_families(sp, k - 2)
                assert all(fam and all(fam.values()) for fam in fams)
                assert ([tuple(fam.get(l, 0) for l in range(sp.size)) for fam in fams]
                        == reference_tail_families(sp, k - 2))

    def test_gamma0_6_k2(self):
        sp = build_coset_space(GAMMA0, 6, 2)
        C, D = build_coboundary_and_D(sp, 0)
        assert C.dim == 3  # e_infty - 1
        assert D.dim == 4

    def test_gamma0_2_k8(self):
        sp = build_coset_space(GAMMA0, 2, 8)
        C, D = build_coboundary_and_D(sp, 6)
        assert C.dim == len(cusp_classes(sp)) == 2
        assert D.dim == 2

    def test_gamma1_5_k3_regular_count(self):
        sp = build_coset_space(GAMMA1, 5, 3)
        C, D = build_coboundary_and_D(sp, 1)
        reg = sum(1 for c in cusp_classes(sp).classes if c.regular)
        assert C.dim == reg == 4
        assert D.dim == 4

    def test_gamma1_4_k3_irregular(self):
        sp = build_coset_space(GAMMA1, 4, 3)
        C, _ = build_coboundary_and_D(sp, 1)
        assert C.dim == 2  # one of the three cusps is irregular

    def test_lemma_dimensions_sweep(self):
        for N in range(1, 16):
            for k in (2, 4):
                sp = build_coset_space(GAMMA0, N, k)
                C, D = build_coboundary_and_D(sp, k - 2)
                e = len(cusp_classes(sp))
                assert C.dim == (e - 1 if k == 2 else e)
                assert D.dim == e


class TestCminus:
    def test_spec_examples(self):
        assert cminus_trivial(24) is True
        assert cminus_trivial(9) is False
        assert cminus_trivial(1) is True

    def test_rule_window(self):
        def rule(N):
            e = 0
            while N % 2 == 0:
                N //= 2
                e += 1
            if e > 3:
                return False
            p = 3
            while p * p <= N:
                if N % (p * p) == 0:
                    return False
                p += 2
            return True
        for N in range(1, 41):
            assert cminus_trivial(N) == rule(N)


class TestEpsSplit:
    def test_vector_split(self):
        sp = build_coset_space(GAMMA0, 2, 4)
        P = PolyVector(sp, 2, [[1, 1, 1]] * 3)
        plus, minus = eps_split(P)
        # eps fixes each coset of Gamma0(2), so the split is by X-parity
        assert plus.values[sp.identity_label] == (1, 0, 1)
        assert minus.values[sp.identity_label] == (0, 1, 0)
        assert (plus + minus).values == P.values
        assert plus.eps().values == plus.values
        assert minus.eps().values == minus.scale(-1).values

    def test_invariant_vector_splits_trivially(self):
        sp = build_coset_space(GAMMA0, 2, 4)
        P = PolyVector(sp, 2, [[1, 0, 1]] * 3)
        plus, minus = eps_split(P)
        assert plus.values == P.values and minus.is_zero()


class TestExtended:
    def test_dimensions(self):
        for (N, k, dim_m) in ((1, 12, 2), (5, 4, 3), (6, 2, 3)):
            sp = build_coset_space(GAMMA0, N, k)
            Wt = build_W_extended(sp, k - 2)
            assert Wt.dim == 2 * dim_m
            assert wtilde_dimension(sp, k - 2) == Wt.dim

    def test_w_sits_inside(self):
        sp = build_coset_space(GAMMA0, 6, 2)
        W = build_W(sp, 0)
        Wt = build_W_extended(sp, 0)
        C, D = build_coboundary_and_D(sp, 0)
        assert W.dim == C.dim == 3
        for j in range(W.dim):
            assert Wt.contains(ExtPolyVector.from_poly(W.vector(j)))
        # quotient dim equals e_infty - 1
        assert Wt.dim - W.dim == len(cusp_classes(sp)) - 1

    def test_weight2_tail_sum_emerges(self):
        sp = build_coset_space(GAMMA0, 6, 2)
        Wt = build_W_extended(sp, 0)
        for j in range(Wt.dim):
            assert sum(Wt.vector(j).tails) == 0

    def test_extended_relations_hold(self):
        for (N, k) in ((5, 4), (6, 2)):
            sp = build_coset_space(GAMMA0, N, k)
            Wt = build_W_extended(sp, k - 2)
            for j in range(Wt.dim):
                assert check_extended_relations(Wt.vector(j))

    def test_gram_nondegenerate(self):
        for (N, k) in ((2, 8), (5, 4), (6, 2)):
            sp = build_coset_space(GAMMA0, N, k)
            Wt = build_W_extended(sp, k - 2)
            gram = DenseMatrix(QQ, [[pair_braces(Wt.vector(i), Wt.vector(j))
                                     for j in range(Wt.dim)] for i in range(Wt.dim)])
            assert gram.rank() == Wt.dim

    def test_gram_radical_on_W(self):
        for (N, k) in ((2, 8), (5, 4), (6, 2)):
            sp = build_coset_space(GAMMA0, N, k)
            W = build_W(sp, k - 2)
            C, _ = build_coboundary_and_D(sp, k - 2)
            gram = DenseMatrix(QQ, [[pair_braces(W.vector(i), W.vector(j))
                                     for j in range(W.dim)] for i in range(W.dim)])
            assert gram.rank() == W.dim - C.dim

    def test_odd_weight_gram(self):
        sp = build_coset_space(GAMMA1, 5, 3)
        Wt = build_W_extended(sp, 1)
        assert Wt.dim == 8  # 2 dim M_3(Gamma1(5))
        gram = DenseMatrix(QQ, [[pair_braces(Wt.vector(i), Wt.vector(j))
                                 for j in range(Wt.dim)] for i in range(Wt.dim)])
        assert gram.rank() == Wt.dim

    def test_poly_plus_tails_round_trip(self):
        # P~ = P + its tails, the tails on the zero polynomial part
        sp = build_coset_space(GAMMA0, 5, 4)
        Wt = build_W_extended(sp, 2)
        for j in range(Wt.dim):
            v = Wt.vector(j)
            tail = ExtPolyVector(sp, 2, PolyVector.zero(sp, 2), v.tails, check=False)
            recomposed = ExtPolyVector.from_poly(v.poly) + tail
            assert recomposed.poly.values == v.poly.values
            assert recomposed.tails == v.tails
        assert not any(ExtPolyVector.from_poly(build_W(sp, 2).vector(0)).tails)

    def test_contains_rejects_outsiders(self):
        sp = build_coset_space(GAMMA0, 5, 4)
        Wt = build_W_extended(sp, 2)
        bad = ExtPolyVector.from_poly(
            PolyVector(sp, 2, [[1, 0, 0]] + [[0, 0, 0]] * 5))
        assert not Wt.contains(bad)

    def test_tail_constancy_enforced(self):
        sp = build_coset_space(GAMMA0, 5, 4)
        # (1:0) sits in the width-5 orbit of the zero cusp; an isolated
        # constant there cannot be constant along its T-orbit
        bad = [0] * sp.size
        bad[sp.label_of_row(1, 0)[0]] = 1
        with pytest.raises(PolySpaceError):
            ExtPolyVector(sp, 2, PolyVector.zero(sp, 2), tuple(bad))

    def test_eps_split_checks_extended_columns(self):
        # the same isolated tail, and an X^(-1) coordinate with no tail
        # behind it, as integer columns of an extended subspace
        sp = build_coset_space(GAMMA0, 5, 4)
        tail = sp.label_of_row(1, 0)[0] * 5 + 4
        for column, msg in (({tail: 1}, "T-orbits"), ({0: 1}, "X\\^\\(-1\\)")):
            with pytest.raises(PolySpaceError, match=msg):
                eps_split(Subspace(sp, 2, True, [(1, column)]))

    @staticmethod
    def broken_tie(Wt, kind):
        """Wt's columns with one tie of the extended model broken in one
        column, off every pivot row: a tail on a T-orbit of width > 1 flipped
        (kind 0), or a zero X^(-1) coordinate set to 1 (kind 1)."""
        sp, w, n = Wt.space, Wt.w, Wt.w + 3
        pivots = set(Wt.pivot_rows)
        for j, (den, vec) in enumerate(Wt.columns):
            for k in range(min(vec) + 1, Wt.ambient):
                l, at = divmod(k, n)
                if k in pivots or at != (n - 1, 0)[kind]:
                    continue
                if kind == 0 and vec.get(k) and sp.signed_act(l, MAT_T, w)[0] != l:
                    new = vec | {k: -vec[k]}
                elif kind == 1 and k not in vec:
                    new = vec | {k: 1}
                else:
                    continue
                return Wt.columns[:j] + [(den, new)] + Wt.columns[j + 1:], j
        raise AssertionError("no tie to break")

    @pytest.mark.parametrize("kind,msg", [(0, "T-orbits"), (1, "X\\^\\(-1\\)")])
    def test_broken_tie_same_message_for_vectors_and_columns(self, kind, msg, monkeypatch):
        """``from_tilde_coords`` and the column check of ``build_W_extended``
        read the same ties and report a broken one alike."""
        sp = build_coset_space(GAMMA0, 5, 4)
        Wt = build_W_extended(sp, 2)
        columns, j = self.broken_tie(Wt, kind)
        den, vec = columns[j]
        with pytest.raises(PolySpaceError, match=msg):
            ExtPolyVector.from_tilde_coords(sp, 2, column_entries(QQ, den, vec, Wt.ambient))
        monkeypatch.setattr(polyspace, "_presented_kernel", lambda *presentation: columns)
        with pytest.raises(PolySpaceError, match=msg):
            build_W_extended(sp, 2)


class TestSerialization:
    def test_polyvector_round_trip(self, space5, w5):
        P = w5.vector(0)
        doc = P.to_json()
        back = PolyVector.from_json(space5, doc)
        assert back.values == P.values
        assert back.to_json() == doc

    def test_ext_polyvector_round_trip(self, space5):
        Wt = build_W_extended(space5, 2)
        v = Wt.vector(0)
        doc = v.to_json()
        assert "cusp_constants" in doc
        back = ExtPolyVector.from_json(space5, doc)
        assert back.poly.values == v.poly.values and back.tails == v.tails

    def test_missing_labels_rejected(self, space5, w5):
        doc = w5.vector(0).to_json()
        doc["values"].pop("(0:1)")
        with pytest.raises((PolySpaceError, KeyError, TypeError)):
            PolyVector.from_json(space5, doc)

    def test_space_mismatch_rejected(self, w5):
        doc = w5.vector(0).to_json()
        other = build_coset_space(GAMMA0, 7, 4)
        with pytest.raises(PolySpaceError):
            PolyVector.from_json(other, doc)


class TestMembership:
    """The exact residual behind contains and restricted_matrix."""

    @pytest.fixture(scope="class")
    def w7(self):
        # reduced basis columns with denominators 1, 4, 2, 2
        W = build_W(build_coset_space(GAMMA0, 7, 4), 2)
        assert sorted({den for den, _ in W.columns}) == [1, 2, 4]
        return W

    def member(self, W):
        coords = [Fraction(0)] * W.ambient
        for j, c in enumerate((Fraction(3, 5), Fraction(-2), Fraction(1, 7), Fraction(5))):
            for i, v in enumerate(W.basis.column(j)):
                coords[i] += c * v
        return coords

    def test_member_coordinates(self, w7):
        assert w7.coordinates_of(self.member(w7)) == (
            Fraction(3, 5), Fraction(-2), Fraction(1, 7), Fraction(5))

    def test_non_pivot_change_rejected(self, w7):
        coords = self.member(w7)
        free = [i for i in range(w7.ambient) if i not in w7.pivot_rows]
        for i in free:
            bad = list(coords)
            bad[i] += Fraction(1, 3)
            assert w7.coordinates_of(bad) is None
            assert not w7.contains(PolyVector.from_coords(w7.space, 2, bad))

    def test_rational_scale_accepted(self, w7):
        coords = [Fraction(7, 3) * c for c in self.member(w7)]
        assert w7.coordinates_of(coords) == (
            Fraction(7, 5), Fraction(-14, 3), Fraction(1, 3), Fraction(35, 3))
        assert w7.contains(PolyVector.from_coords(w7.space, 2, coords))

    def test_restricted_matrix_names_the_column(self, w7):
        assert w7.restricted_matrix(list, 1, 1) == DenseMatrix.identity(QQ, w7.dim)
        assert w7.restricted_matrix(lambda v: [3 * x for x in v], 2, 3) == \
            DenseMatrix.identity(QQ, w7.dim).scaled(Fraction(3, 2))
        # moves the pivot-2 coordinate onto a free one: only column 2 leaves
        free = next(i for i in range(w7.ambient) if i not in w7.pivot_rows)

        def bump(values):
            out = list(values)
            out[free] += values[w7.pivot_rows[2]]
            return out
        with pytest.raises(PolySpaceError, match="basis vector 2 "):
            w7.restricted_matrix(bump, 1, 2)

    def test_wrong_length_rejected(self, w7):
        with pytest.raises(PolySpaceError, match="length"):
            w7.coordinates_of([0] * (w7.ambient + 1))

    def test_cyclotomic_field(self):
        import warnings as _warnings
        W = build_W(build_coset_space(GAMMA1, 7, 2), 0)
        ch = next(ch for ch in dirichlet_characters(7) if ch.order == 3)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            comp = chi_component(W, ch)
        assert comp.dim == 2
        z = comp.field.zeta
        coords = [z * a + 3 * b for a, b in zip(comp.basis.column(0), comp.basis.column(1))]
        assert comp.coordinates_of(coords) == (z, comp.field.of(3))
        free = next(i for i in range(comp.ambient) if i not in comp.pivot_rows)
        coords[free] = coords[free] + z
        assert comp.coordinates_of(coords) is None
        # over the field of chi: its own chi part, B K, and the eps parts
        assert chi_component(comp, ch).basis == comp.basis
        assert chi_component(comp, ch.conjugate()).dim == 0
        assert comp.times([(1, {0: 1})]).basis.columns() == [comp.basis.column(0)]
        for part, ref in zip(eps_split(comp), reference_eps_split(comp)):
            assert part.field is comp.field and part.basis == ref

    def test_chi_of_a_subspace_over_another_field_fails_first(self, monkeypatch):
        import warnings as _warnings
        W = build_W(build_coset_space(GAMMA1, 7, 2), 0)
        ch = next(ch for ch in dirichlet_characters(7) if ch.order == 3)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            comp = chi_component(W, ch)
        quartic = next(c for c in dirichlet_characters(5) if c.order == 4)
        foreign = Subspace(comp.space, 0, False, [], quartic.field)

        def refuse(*args, **kwargs):
            raise AssertionError("an elimination ran before the field check")
        monkeypatch.setattr(polyspace, "eigen_columns", refuse)
        monkeypatch.setattr(Subspace, "restricted_matrix", refuse)
        with pytest.raises(PolySpaceError, match="field"):
            chi_component(foreign, ch)
        with pytest.raises(PolySpaceError, match="field"):
            comp.times([(1, {0: 1})], quartic.field)


class TestChiComponents:
    def test_sum_over_characters(self):
        import warnings as _warnings
        sp = build_coset_space(GAMMA1, 5, 4)
        W = build_W(sp, 2)
        dims = []
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # odd characters contribute zero
            for ch in dirichlet_characters(5):
                comp = chi_component(W, ch)
                dims.append(comp.dim)
                assert chi_component(W, ch.conjugate()).dim == comp.dim
        assert sum(dims) == W.dim

    def test_trivial_character_matches_gamma0(self):
        sp = build_coset_space(GAMMA1, 5, 4)
        W = build_W(sp, 2)
        triv = next(ch for ch in dirichlet_characters(5) if ch.is_trivial())
        comp = chi_component(W, triv)
        assert comp.dim == build_W(build_coset_space(GAMMA0, 5, 4), 2).dim

    def test_parity_mismatch_warns_and_gives_zero(self):
        sp = build_coset_space(GAMMA1, 5, 4)
        W = build_W(sp, 2)
        odd = next(ch for ch in dirichlet_characters(5) if ch.order == 4)
        with pytest.warns(UserWarning, match="chi"):
            comp = chi_component(W, odd)
        assert comp.dim == 0

    @pytest.mark.parametrize("N,extended", [(12, False), (15, True)])
    def test_subspace_not_mapped_into_itself_is_refused(self, N, extended):
        # the line of the first basis vector of W or Wtilde, k = 2, which a
        # diamond operator moves off it; the refusal is a raise, not an assert
        space = build_coset_space(GAMMA1, N, 2)
        P = (build_W_extended if extended else build_W)(space, 0).vector(0)
        c = polyspace._coords_of(P)
        line = Subspace.from_vectors(space, 0, extended, [c])
        n = len(c) // space.size
        # (P|<u>)(l) = P(l u) at w = 0, (l u, _) the label of the row u (c, d)
        moved = [[x for cl, d in space.labels
                  for x in c[n * space.label_of_row(u * cl, u * d)[0]:][:n]]
                 for u, _ in _unit_group_generators(N)]
        assert not all(line.contains(v) for v in moved)
        for ch in dirichlet_characters(N):
            if ch.is_even_for_weight(2):
                with pytest.raises(PolySpaceError, match="basis vector 0 leaves the subspace"):
                    chi_component(line, ch)

    def test_rejected_over_gamma0(self, w5):
        triv = next(ch for ch in dirichlet_characters(5) if ch.is_trivial())
        with pytest.raises(PolySpaceError):
            chi_component(w5, triv)


# ----------------------------------------------------------------------
# canonical bases without a second elimination, against the dense path

def reference_span(space, w, extended, vectors, field=QQ):
    """The canonical basis of a span, by dense elimination."""
    ambient = space.size * ((w + 3) if extended else (w + 1))
    return reference_column_basis(field, vectors, ambient)


def basis_apply(sub, x):
    """B x for the basis B of sub; over Q in integers, with the columns of B
    read as n_j / d_j and x over one common denominator."""
    if sub.field is not QQ:
        return sub.basis.apply(x)
    terms = [Fraction(a) / den for a, (den, _) in zip(x, sub.columns)]
    D = math.lcm(1, *(t.denominator for t in terms))
    acc = [0] * sub.ambient
    for t, (_, vec) in zip(terms, sub.columns):
        c = t.numerator * (D // t.denominator)
        if c:
            for k, v in vec.items():
                acc[k] += c * v
    return tuple(Fraction(a, D) for a in acc)


def reference_eps_split(sub):
    """The eps parts as the span of the basis applied to each kernel column."""
    cols = []
    for v in sub.vectors():
        image = v.eps()
        image = image.tilde_coords() if sub.extended else image.coords()
        x = [image[p] for p in sub.pivot_rows]
        assert basis_apply(sub, x) == image
        cols.append(x)
    emat = DenseMatrix.from_columns(sub.field, cols, nrows=sub.dim)
    out = []
    for target in (1, -1):
        ker = reference_kernel_basis(DenseMatrix(sub.field, [
            [x - target * (i == j) for j, x in enumerate(row)] for i, row in enumerate(emat.rows)],
            ncols=sub.dim))
        out.append(reference_span(sub.space, sub.w, sub.extended,
                                  [basis_apply(sub, ker.column(j)) for j in range(ker.ncols)],
                                  field=sub.field))
    return out


# W+ and W- from one elimination each, against the eps split of W
SIGNED_GRID = ([(GAMMA0, N, k) for N in range(1, 61) for k in (2, 4, 6)]
               + [(GAMMA1, N, k) for N in range(5, 17) for k in (2, 3)])


class TestSignedBuild:
    @pytest.mark.parametrize("kind,N,k", SIGNED_GRID)
    def test_equals_eps_split_and_reference(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        w = k - 2
        W = build_W(space, w)
        parts = [build_W(space, w, sign) for sign in (1, -1)]
        assert [p.columns for p in parts] == [p.columns for p in eps_split(W)]
        assert [p.basis for p in parts] == reference_eps_split(W)
        assert w_dimensions(space, w) == (W.dim, parts[0].dim, parts[1].dim)

    @pytest.mark.parametrize("kind,N,k", [(GAMMA0, 1, 3), (GAMMA0, 5, 5),
                                          (GAMMA0, 12, 7), (GAMMA1, 2, 3),
                                          (GAMMA1, 1, 5)])
    def test_degenerate_spaces(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        assert space.degenerate
        W = build_W(space, k - 2)
        for sign, part in zip((1, -1), eps_split(W)):
            signed = build_W(space, k - 2, sign)
            assert signed.dim == part.dim == 0 and signed.columns == part.columns == []
        assert w_dimensions(space, k - 2) == (0, 0, 0)

    @pytest.mark.parametrize("sign", [2, -2, 0.5, 1.0, True, "1", None])
    def test_sign_outside_the_three_is_refused(self, sign):
        for space in (build_coset_space(GAMMA0, 5, 4), build_coset_space(GAMMA0, 5, 5)):
            with pytest.raises(PolySpaceError, match="sign"):
                build_W(space, space.k - 2, sign)

    @pytest.mark.parametrize("build", [build_W, build_W_extended, w_dimensions,
                                       wtilde_dimension, build_coboundary_and_D,
                                       coboundary_and_D_dimensions])
    @pytest.mark.parametrize("kind,N,k,w", [(GAMMA1, 2, 3, 2), (GAMMA1, 2, 4, 1),
                                            (GAMMA0, 11, 4, 0), (GAMMA0, 5, 2, 2)])
    def test_weight_other_than_the_space_s_is_refused(self, build, kind, N, k, w):
        # Gamma1(2), k = 3 is degenerate: w = 2 is refused before any answer of 0
        with pytest.raises(PolySpaceError, match="weight mismatch"):
            build(build_coset_space(kind, N, k), w)


def reference_chi_component(sub, chi):
    """The chi-part as the span of the basis applied to each kernel column."""
    space, field = sub.space, chi.field if chi.field is not None else QQ
    n = sub.w + 3 if sub.extended else sub.w + 1
    cols = sub.basis.columns()
    rows = []
    for u, _ in _unit_group_generators(space.N):
        for l in range(space.size):
            c, d = space.labels[l]
            lu, s = space.label_of_row(u * c, u * d)
            for i in range(n):
                row = [field.of(s ** sub.w) * field.of(col[lu * n + i])
                       - chi(u) * field.of(col[l * n + i]) for col in cols]
                if any(row):
                    rows.append(row)
    ker = reference_kernel_basis(DenseMatrix(field, rows, ncols=sub.dim))
    basis = DenseMatrix(field, sub.basis.rows, ncols=sub.dim)
    return reference_span(space, sub.w, sub.extended,
                          [basis.apply(ker.column(j)) for j in range(ker.ncols)],
                          field=field)


CANONICAL_GRID = ([(GAMMA0, N, k) for N in (1, 5, 11, 37, 60) for k in (2, 4, 6)]
                  + [(GAMMA1, N, k) for N in (5, 7, 11, 13) for k in (2, 3)])


class TestCanonicalBases:
    @pytest.mark.parametrize("kind,N,k", CANONICAL_GRID)
    def test_builds_equal_from_vectors(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        w = k - 2
        for extended, build in ((False, build_W), (True, build_W_extended)):
            sub = build(space, w)
            if space.degenerate:
                assert sub.dim == 0
                continue
            vecs = [tuple(column_entries(QQ, den, vec, sub.ambient))
                    for den, vec in kernel_columns(reference_relation_rows(space, w, extended),
                                                   sub.ambient)]
            ref = reference_span(space, w, extended, vecs)
            assert sub.basis == ref
            assert sub.pivot_rows == [next(i for i, x in enumerate(col) if x)
                                      for col in ref.columns()]

    @pytest.mark.parametrize("kind,N,k", CANONICAL_GRID)
    def test_coboundary_and_D_equal_dense_span(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        w = k - 2
        C, D = build_coboundary_and_D(space, w)
        if space.degenerate:
            assert C.dim == D.dim == 0
            return
        cvecs, dvecs = _coboundary_and_D_vectors(space, w)
        # sparse vectors, read densely for the reference
        assert C.basis == reference_span(space, w, False, [
            [v.get(i, 0) for i in range(C.ambient)] for v in cvecs])
        assert D.basis == reference_span(space, w, True, [
            [v.get(i, 0) for i in range(D.ambient)] for v in dvecs])

    @pytest.mark.parametrize("kind,N,k", SIGNED_GRID)
    def test_coboundary_and_D_ranks_equal_basis_dimensions(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        C, D = build_coboundary_and_D(space, k - 2)
        assert coboundary_and_D_dimensions(space, k - 2) == (C.dim, D.dim)

    @settings(derandomize=True, database=None, max_examples=100)
    @given(data=st.data(), k=st.integers(2, 10), extended=st.booleans())
    def test_from_vectors_is_the_dense_span(self, data, k, extended):
        space = build_coset_space(GAMMA0, 1, k)
        ambient = (k + 1) if extended else (k - 1)
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        vecs = data.draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient),
                                  max_size=6))
        got = Subspace.from_vectors(space, k - 2, extended, vecs)
        assert got.basis == reference_span(space, k - 2, extended, vecs)

    def test_from_vectors_rejects_bad_input(self):
        space = build_coset_space(GAMMA0, 5, 4)
        with pytest.raises(PolySpaceError):
            Subspace.from_vectors(space, 2, False, [(1, 0)])
        K = next(ch.field for ch in dirichlet_characters(5) if ch.field is not None)
        with pytest.raises(PolySpaceError):
            Subspace.from_vectors(space, 2, False, [(K.one,) + (K.zero,) * 17], field=K)
        zero = Subspace.from_vectors(space, 2, False, [(K.zero,) * 18], field=K)
        assert zero.dim == 0 and zero.field is K

    @pytest.mark.parametrize("kind,N,k", [(GAMMA0, 11, 4), (GAMMA0, 37, 4),
                                          (GAMMA0, 60, 2), (GAMMA1, 7, 4),
                                          (GAMMA1, 13, 3)])
    def test_eps_split_equals_from_vectors(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        for sub in (build_W(space, k - 2), build_W_extended(space, k - 2)):
            for part, ref in zip(eps_split(sub), reference_eps_split(sub)):
                assert part.basis == ref

    @pytest.mark.parametrize("N,k,extended", [
        pytest.param(7, 3, False, id="7-k3"), pytest.param(13, 2, False, id="13"),
        pytest.param(11, 2, True, id="11-wtilde")])
    def test_eps_split_of_chi_parts_equals_reference(self, N, k, extended):
        import warnings as _warnings
        space = build_coset_space(GAMMA1, N, k)
        W = (build_W_extended if extended else build_W)(space, k - 2)
        for ch in dirichlet_characters(N):
            if ch.field is None or not ch.is_even_for_weight(k):
                continue
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                comp = chi_component(W, ch)
            plus, minus = eps_split(comp)
            assert plus.dim + minus.dim == comp.dim
            for part, ref in zip((plus, minus), reference_eps_split(comp)):
                assert part.field is comp.field and part.basis == ref

    @pytest.mark.parametrize("N,k,extended", [
        pytest.param(11, 2, False, id="11"), pytest.param(13, 2, False, id="13"),
        pytest.param(7, 3, False, id="7-k3"), pytest.param(13, 3, False, id="13-k3"),
        pytest.param(11, 2, True, id="11-wtilde"),
        pytest.param(2, 4, True, id="2-k4-wtilde")] + [  # (Z/2)* = 1: no generator
        # (Z/N)* of two generators: the joint kernel of two diamond operators
        pytest.param(N, k, extended, id="%d-k%d%s" % (N, k, "-wtilde" if extended else ""))
        for N in (12, 15, 16) for k in (2, 3) for extended in (False, True)])
    def test_chi_component_equals_from_vectors(self, N, k, extended):
        import warnings as _warnings
        space = build_coset_space(GAMMA1, N, k)
        W = (build_W_extended if extended else build_W)(space, k - 2)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # odd characters give zero parts
            for ch in dirichlet_characters(N):
                comp = chi_component(W, ch)
                ref = (reference_chi_component(W, ch) if ch.is_even_for_weight(k)
                       else reference_span(space, k - 2, extended, [], field=comp.field))
                assert comp.field is ref.field and comp.basis == ref

    @pytest.mark.parametrize("cols", [
        [(1, 0, 0), (0, 0, 0)],        # zero column
        [(0, 1, 0), (1, 0, 0)],        # pivot rows decrease
        [(2, 0, 1), (0, 1, 0)],        # pivot entry 2
        [(1, 1, 0), (0, 1, 0)],        # pivot row 1 nonzero in column 0
        [(1, 0, 0), (3, 0, 1)],        # pivot row 0 nonzero in column 1
    ])
    def test_constructor_rejects_non_echelon_basis(self, cols):
        space = build_coset_space(GAMMA0, 1, 4)
        columns = [(1, {i: v for i, v in enumerate(c) if v}) for c in cols]
        with pytest.raises(CheckFailed):
            Subspace(space, 2, False, columns)

    @pytest.mark.parametrize("column", [
        (2, {1: 2, 2: 4}),             # not in lowest terms
        (-1, {1: -1, 2: 2}),           # negative denominator
        (1, {1: 1, 2: 0}),             # a stored zero
        (1, {1: 1, 3: 1}),             # beyond the ambient space
    ])
    def test_constructor_rejects_uncleared_column(self, column):
        space = build_coset_space(GAMMA0, 1, 4)
        Subspace(space, 2, False, [(1, {0: 1}), (2, {1: 2, 2: 1})])
        with pytest.raises(CheckFailed):
            Subspace(space, 2, False, [(1, {0: 1}), column])
