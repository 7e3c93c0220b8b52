import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly.cosets import (GAMMA0, GAMMA1, Character, CosetError,
                               CosetSpace, Mat2, MAT_I, MAT_S, MAT_T, MAT_TINV,
                               MAT_U, MAT_U2, act_coset, build_coset_space,
                               classical_cusp_count_gamma0, coset_index,
                               cusp_classes, dirichlet_characters,
                               lift_to_sl2z, p1_normalize)


class TestMat2:
    def test_group_constants(self):
        assert MAT_U == MAT_T * MAT_S
        assert MAT_U ** 3 == Mat2(-1, 0, 0, -1)
        assert MAT_S * MAT_S == Mat2(-1, 0, 0, -1)

    def test_vee(self):
        g = Mat2(2, 3, 1, 4)
        assert g * g.vee() == Mat2(5, 0, 0, 5)

    def test_canonical_pm(self):
        assert Mat2(-1, 0, 0, -1).canonical_pm() == Mat2(1, 0, 0, 1)
        m = Mat2(0, -1, 1, 0)
        assert m.canonical_pm() == m
        assert (-m).canonical_pm() == m


class TestP1:
    def test_normalize_basics(self):
        assert p1_normalize(5, 0, 3) == (0, 1)
        assert p1_normalize(6, 0, 3) is None  # gcd(3, 6) = 3
        assert p1_normalize(6, 2, 2) is None  # gcd(2, 2, 6) = 2
        assert p1_normalize(6, 2, 1) == (2, 1)

    def test_scaling_invariance(self):
        rnd = random.Random(1)
        for _ in range(100):
            N = rnd.randint(2, 40)
            u, v = rnd.randrange(N), rnd.randrange(N)
            p = p1_normalize(N, u, v)
            if p is None:
                continue
            t = rnd.randrange(1, N)
            if math.gcd(t, N) == 1:
                assert p1_normalize(N, t * u, t * v) == p

    @settings(derandomize=True, database=None, max_examples=300)
    @given(data=st.data(), N=st.integers(2, 400))
    def test_normal_form(self, data, N):
        u = data.draw(st.integers(0, N - 1))
        v = data.draw(st.integers(0, N - 1).filter(lambda v: math.gcd(math.gcd(u, v), N) == 1))
        p = p1_normalize(N, u, v)
        assert p == (0, 1) or (p[0] > 0 and N % p[0] == 0)
        assert p1_normalize(N, *p) == p
        units = st.integers(1, N - 1).filter(lambda t: math.gcd(t, N) == 1)
        for t in data.draw(st.lists(units, min_size=1, max_size=5)):
            assert p1_normalize(N, t * u, t * v) == p

    def test_lift(self):
        for N in (2, 5, 12, 30):
            space = build_coset_space(GAMMA0, N, 4)
            for i, A in enumerate(space.lifts):
                assert A.det() == 1
                assert p1_normalize(N, A.c, A.d) == space.labels[i]


class ReferenceLabelSpace(CosetSpace):
    """A coset space whose Gamma0 labels come from normalizing all N^2 rows."""

    def _build_labels(self):
        N = self.N
        labels = {p1_normalize(N, u, v) for u in range(N) for v in range(N)}
        labels.discard(None)
        self.labels = tuple(sorted(labels))
        self.size = len(self.labels)
        self.index = self.size
        self._label_pos = {lab: i for i, lab in enumerate(self.labels)}
        self.lifts = tuple(lift_to_sl2z(c, d, N) if N > 1 else MAT_I
                           for (c, d) in self.labels)
        self.identity_label = self._normalize(0, 1)[0]


class TestBuild:
    def test_gamma0_5(self):
        sp = build_coset_space(GAMMA0, 5, 4)
        assert sp.size == 6
        assert set(sp.labels) == {(0, 1), (1, 1), (1, 3), (1, 2), (1, 4), (1, 0)}

    def test_level_one(self):
        assert build_coset_space(GAMMA0, 1, 12).size == 1

    def test_index_formula(self):
        for N in (2, 6, 10, 100):
            sp = build_coset_space(GAMMA0, N, 6)
            expected = N
            m = N
            p = 2
            while p * p <= m:
                if m % p == 0:
                    expected += expected // p
                    while m % p == 0:
                        m //= p
                p += 1
            if m > 1:
                expected += expected // m
            assert sp.size == expected
        assert build_coset_space(GAMMA0, 100, 6).size == 180

    @pytest.mark.parametrize("kind,bound", [(GAMMA0, 120), (GAMMA1, 40)])
    def test_coset_index_is_size(self, kind, bound):
        for N in range(1, bound + 1):
            assert coset_index(kind, N) == build_coset_space(kind, N, 2).size

    def test_coset_index_at_large_level(self):
        assert coset_index(GAMMA0, 3000) == 7200
        assert coset_index(GAMMA1, 1000) == 360000

    @pytest.mark.parametrize("N", list(range(1, 301)) + [360, 420, 720, 840, 1000])
    def test_divisor_labels_match_full_scan(self, N):
        space = build_coset_space(GAMMA0, N, 2)
        ref = ReferenceLabelSpace(GAMMA0, N, 2)
        assert space.labels == ref.labels
        assert space.lifts == ref.lifts
        assert space.tables == ref.tables

    def test_degenerate_flag(self):
        assert build_coset_space(GAMMA0, 5, 3).degenerate
        assert build_coset_space(GAMMA1, 2, 3).degenerate
        assert not build_coset_space(GAMMA1, 5, 3).degenerate
        assert not build_coset_space(GAMMA0, 5, 4).degenerate

    def test_bad_input(self):
        with pytest.raises(CosetError):
            build_coset_space(GAMMA0, 0, 4)
        with pytest.raises(CosetError):
            build_coset_space("gamma2", 5, 4)
        with pytest.raises(CosetError):
            build_coset_space(GAMMA0, 5, 1)


class TestAction:
    def test_spec_examples_gamma0_2(self):
        sp = build_coset_space(GAMMA0, 2, 8)
        iI = sp.identity_label
        lU = sp.label_of_row(1, 0)[0]
        assert act_coset(sp, iI, MAT_S)[0] == lU      # coset of S equals U's
        assert act_coset(sp, lU, MAT_S)[0] == iI      # US ~ I
        for i in range(sp.size):
            assert act_coset(sp, i, MAT_I) == (i, 1)

    def test_rejects_nonunimodular(self):
        sp = build_coset_space(GAMMA0, 5, 4)
        with pytest.raises(CosetError):
            act_coset(sp, 0, Mat2(1, 0, 0, 2))

    def test_group_action_property(self):
        rnd = random.Random(7)
        for sp in (build_coset_space(GAMMA0, 7, 4), build_coset_space(GAMMA1, 5, 3)):
            for _ in range(40):
                g = MAT_I
                h = MAT_I
                for _ in range(rnd.randint(0, 8)):
                    g = g * (MAT_S if rnd.random() < 0.5 else MAT_T)
                for _ in range(rnd.randint(0, 8)):
                    h = h * (MAT_S if rnd.random() < 0.5 else MAT_T)
                for l in range(sp.size):
                    l1, s1 = sp.act(l, g)
                    l2, s2 = sp.act(l1, h)
                    assert (l2, s1 * s2) == sp.act(l, g * h)

    def test_eps_involution_and_compatibility(self):
        rnd = random.Random(3)
        for sp in (build_coset_space(GAMMA0, 6, 2), build_coset_space(GAMMA1, 5, 3)):
            for l in range(sp.size):
                e1, s1 = sp.eps_conj(l)
                e2, s2 = sp.eps_conj(e1)
                assert (e2, s1 * s2) == (l, 1)
            for _ in range(20):
                g = MAT_I
                for _ in range(rnd.randint(0, 6)):
                    g = g * (MAT_S if rnd.random() < 0.5 else MAT_T)
                ge = g.eps_conj()
                for l in range(sp.size):
                    a1, t1 = sp.act(l, g)
                    a1, t1b = sp.eps_conj(a1)
                    b1, u1 = sp.eps_conj(l)
                    b1, u1b = sp.act(b1, ge)
                    assert (a1, t1 * t1b) == (b1, u1 * u1b)

    @pytest.mark.parametrize("kind, N", [(GAMMA0, N) for N in (*range(1, 31), 37, 60, 97)]
                             + [(GAMMA1, N) for N in (*range(1, 21), 37)])
    def test_signed_inverse_tables(self, kind, N):
        for k in (2, 3, 4):
            sp = build_coset_space(kind, N, k)
            for g in (MAT_S, MAT_U, MAT_U2):
                ginv = g.inverse()
                for l in range(sp.size):
                    l2, s = sp.act(l, ginv)
                    assert sp.signed_act(l, ginv, k - 2) == (l2, s ** (k - 2))

    @settings(derandomize=True, database=None, max_examples=60)
    @given(kind=st.sampled_from([GAMMA0, GAMMA1]), N=st.integers(1, 12),
           k=st.integers(2, 5),
           word=st.lists(st.sampled_from([MAT_S, MAT_T, MAT_TINV, MAT_U, MAT_U2]),
                         max_size=8))
    def test_signed_action_composes(self, kind, N, k, word):
        sp = build_coset_space(kind, N, k)
        w = k - 2
        g = MAT_I
        for h in word:
            g = g * h
        for l in range(sp.size):
            cur, sign = l, 1
            for h in word:
                cur, s = sp.signed_act(cur, h, w)
                sign *= s
            assert (cur, sign) == sp.signed_act(l, g, w)

    def test_u_cubed_is_j(self):
        for sp in (build_coset_space(GAMMA0, 5, 4), build_coset_space(GAMMA1, 5, 3)):
            for l in range(sp.size):
                j, s = sp.tables["U"][l]
                j, s2 = sp.tables["U"][j]
                j, s3 = sp.tables["U"][j]
                assert (j, s * s2 * s3) == sp.tables["J"][l]


def enumerate_cusps_raw(N):
    """Independent oracle: T-orbits of P^1(Z/N) by raw row arithmetic."""
    pts = set()
    for u in range(N):
        for v in range(N):
            p = p1_normalize(N, u, v)
            if p is not None:
                pts.add(p)
    seen = set()
    count = 0
    for p in sorted(pts):
        if p in seen:
            continue
        count += 1
        c, d = p
        while True:
            seen.add((c, d))
            c, d = p1_normalize(N, c, c + d)  # right multiplication by T
            if (c, d) in seen:
                break
    return count


class TestCusps:
    def test_gamma0_2_two_cusps(self):
        sp = build_coset_space(GAMMA0, 2, 8)
        cs = cusp_classes(sp)
        assert len(cs) == 2
        assert {c.width for c in cs.classes} == {1, 2}

    def test_gamma0_5_direct_enumeration(self):
        sp = build_coset_space(GAMMA0, 5, 4)
        assert len(cusp_classes(sp)) == enumerate_cusps_raw(5) == 2

    def test_classical_count(self):
        for N in range(1, 31):
            sp = build_coset_space(GAMMA0, N, 4)
            assert len(cusp_classes(sp)) == classical_cusp_count_gamma0(N)

    def test_widths_sum_to_index(self):
        for N in (4, 9, 12, 28):
            sp = build_coset_space(GAMMA0, N, 4)
            assert sum(c.width for c in cusp_classes(sp).classes) == sp.size

    def test_gamma1_4_irregular_cusp(self):
        sp = build_coset_space(GAMMA1, 4, 3)
        cs = cusp_classes(sp)
        assert len(cs) == 3
        assert sum(1 for c in cs.classes if c.regular) == 2

    def test_gamma1_5_all_regular(self):
        cs = cusp_classes(build_coset_space(GAMMA1, 5, 3))
        assert len(cs) == 4
        assert all(c.regular for c in cs.classes)

    def test_class_of_agrees_with_scan(self):
        spaces = [build_coset_space(GAMMA0, N, 2) for N in range(1, 61)]
        spaces += [build_coset_space(GAMMA1, N, 2) for N in range(1, 21)]
        for sp in spaces:
            cs = cusp_classes(sp)
            for label in range(sp.size):
                scan = [i for i, cl in enumerate(cs.classes) if label in cl.labels]
                assert [cs.class_of(label)] == scan
            with pytest.raises(CosetError):
                cs.class_of(sp.size)


class TestCharacters:
    def test_group_mod_5(self):
        chars = dirichlet_characters(5)
        assert sorted(ch.order for ch in chars) == [1, 2, 4, 4]

    def test_multiplicativity_enforced(self):
        for N in (5, 8, 12):
            for ch in dirichlet_characters(N):
                for a in range(1, N):
                    for b in range(1, N):
                        if math.gcd(a, N) == 1 and math.gcd(b, N) == 1:
                            assert ch(a) * ch(b) == ch(a * b)

    def test_parity(self):
        for ch in dirichlet_characters(5):
            assert ch.is_even_for_weight(4) != ch.is_even_for_weight(3)

    def test_conjugate(self):
        for ch in dirichlet_characters(5):
            assert ch.conjugate().conjugate().values == ch.values

    def test_count_is_phi(self):
        for N in (3, 4, 5, 7, 8, 9, 12, 15):
            phi = sum(1 for a in range(1, N + 1) if math.gcd(a, N) == 1)
            assert len(dirichlet_characters(N)) == phi

    def test_label_strings(self):
        sp0 = build_coset_space(GAMMA0, 5, 4)
        assert sp0.label_str(sp0.identity_label) == "(0:1)"
        assert sp0.label_from_str("(0:1)") == sp0.identity_label
        sp1 = build_coset_space(GAMMA1, 5, 3)
        s = sp1.label_str(0)
        assert "," in s and sp1.label_from_str(s) == 0
