import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly import cosets
from periodpoly.cosets import (GAMMA0, GAMMA1, Character, CosetError,
                               CosetSpace, CuspClass, CuspSet, Mat2, MAT_EPS,
                               MAT_I, MAT_J, MAT_S, MAT_SINV, MAT_T, MAT_TINV,
                               MAT_U, MAT_U2, MAT_U2INV, MAT_UINV,
                               build_coset_space,
                               classical_cusp_count_gamma0, coset_index,
                               cusp_classes, dirichlet_characters,
                               lift_to_sl2z)

from periodpoly.exactalg import CheckFailed

from character_reference import reference_dirichlet_characters
from p1_reference import p1_normalize


class TestMat2:
    def test_group_constants(self):
        assert MAT_U == MAT_T * MAT_S
        assert MAT_U * MAT_U2 == Mat2(-1, 0, 0, -1)
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


# Right actions tabulated on every coset space, by table name, and the
# inverses read from them: g^(-1) = h J for the table h.
_TABULATED = (("S", MAT_S), ("T", MAT_T), ("Tinv", MAT_TINV), ("U", MAT_U),
              ("U2", MAT_U2), ("J", MAT_J), ("eps", MAT_EPS))
_INVERSES = (("Sinv", MAT_SINV, "S"), ("Uinv", MAT_UINV, "U2"),
             ("U2inv", MAT_U2INV, "U"))


class ReferenceLabelSpace:
    """Cosets of Gamma0(N) or Gamma1(N) built without walking S and T.

    Labels come from normalizing all N^2 rows, every table from normalizing
    each label's row times its generator, and the cusps from T-orbits merged
    under J, with regularity read from a second walk around each orbit.
    """

    def __init__(self, kind, N, k):
        self.kind, self.N = kind, N
        labels = {hit[0] for c in range(N) for d in range(N)
                  if (hit := self._normal_form(c, d)) is not None}
        self.labels = tuple(sorted(labels))
        self.size = len(self.labels)
        self._label_pos = {lab: i for i, lab in enumerate(self.labels)}
        self.lifts = tuple(lift_to_sl2z(c, d, N) if N > 1 else MAT_I
                           for (c, d) in self.labels)
        self.identity_label = self._normalize(0, 1)[0]
        self._build_tables()

    def _normal_form(self, c, d):
        N = self.N
        if math.gcd(c, d, N) != 1:
            return None
        if self.kind == GAMMA0:
            return p1_normalize(N, c, d), 1
        c, d = c % N, d % N
        neg = (-c % N, -d % N)
        return ((c, d), 1) if (c, d) <= neg else (neg, -1)

    def _normalize(self, c, d):
        lab, sign = self._normal_form(c, d)
        return self._label_pos[lab], sign

    def act(self, i, g):
        c, d = (0, 1) if self.kind == GAMMA0 and self.N == 1 else self.labels[i]
        return self._normalize(c * g.a + d * g.c, c * g.b + d * g.d)

    def _build_tables(self):
        self.tables = {name: tuple(self.act(i, g) for i in range(self.size))
                       for name, g in _TABULATED}
        jtab = self.tables["J"]
        for name, _, h in _INVERSES:
            # J fixes every label and contributes only its sign
            self.tables[name] = tuple((l, s * jtab[l][1]) for l, s in self.tables[h])

    def cusp_classes(self):
        ttab = self.tables["T"]
        jtab = self.tables["J"]
        seen = set()
        classes = []
        for start in range(self.size):
            if start in seen:
                continue
            orbit = []
            i = start
            while i not in seen:
                seen.add(i)
                orbit.append(i)
                i = ttab[i][0]
            merged = set(orbit)
            for j in orbit:
                merged.add(jtab[j][0])
            width = len(orbit)
            classes.append(CuspClass(tuple(sorted(merged)), min(merged), width,
                                     self._is_regular(start)))
        return CuspSet(tuple(classes))

    def _is_regular(self, i):
        if self.kind == GAMMA0 or self.N <= 2:
            return False
        ttab = self.tables["T"]
        j, sign = ttab[i]
        while j != i:
            j2, s2 = ttab[j]
            j, sign = j2, sign * s2
        return sign == 1


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

    @staticmethod
    def check_equals_reference(kind, N, k):
        space = build_coset_space(kind, N, k)
        ref = ReferenceLabelSpace(kind, N, k)
        assert space.labels == ref.labels
        assert space.lifts == ref.lifts
        assert space.tables == ref.tables
        assert space.identity_label == ref.identity_label
        assert space.cusp_classes() == ref.cusp_classes()

    @pytest.mark.parametrize("N", list(range(1, 301)) + [360, 420, 720, 840, 1000])
    def test_divisor_labels_match_full_scan(self, N):
        self.check_equals_reference(GAMMA0, N, 2)

    @pytest.mark.parametrize("k", (2, 3))
    @pytest.mark.parametrize("N", range(1, 41))
    def test_gamma1_labels_match_full_scan(self, N, k):
        self.check_equals_reference(GAMMA1, N, k)

    @pytest.mark.parametrize("kind, N, per_label", [(GAMMA0, 60, 0), (GAMMA0, 420, 0),
                                                    (GAMMA1, 13, 3), (GAMMA1, 20, 3)])
    def test_one_normalization_per_label_and_generator(self, monkeypatch, kind, N, per_label):
        # Gamma0 reads every table entry off the divisor tables, with no
        # generic row lookup; Gamma1 normalizes each label's row once for
        # each of S, T and eps
        calls = []
        row, e = CosetSpace.label_of_row, CosetSpace._e_normalize
        monkeypatch.setattr(CosetSpace, "label_of_row",
                            lambda self, c, d: calls.append((c, d)) or row(self, c, d))
        monkeypatch.setattr(CosetSpace, "_e_normalize",
                            lambda self, c, d: calls.append((c, d)) or e(self, c, d))
        space = CosetSpace(kind, N, 2)
        assert space.size == coset_index(kind, N)
        assert len(calls) <= per_label * space.size

    def test_moved_s_entry_is_caught(self, monkeypatch):
        # two S entries swapped: S^2 no longer fixes every label
        tables = CosetSpace._gamma0_tables

        def swap_two(self, blocks):
            S, T, eps = tables(self, blocks)
            return S[:2] + (S[3], S[2]) + S[4:], T, eps
        monkeypatch.setattr(CosetSpace, "_gamma0_tables", swap_two)
        with pytest.raises(CheckFailed, match=r"S\^2 = -I moves a label of gamma0\(60\)"):
            CosetSpace(GAMMA0, 60, 2)

    def test_flipped_s_sign_is_caught(self, monkeypatch):
        # one S sign flipped: S^2 still fixes every label, with the wrong sign
        tables = CosetSpace._gamma0_tables

        def flip_one(self, blocks):
            S, T, eps = tables(self, blocks)
            return ((S[0][0], -S[0][1]),) + S[1:], T, eps
        monkeypatch.setattr(CosetSpace, "_gamma0_tables", flip_one)
        with pytest.raises(CheckFailed, match=r"gamma0\(60\) or gives it a sign other than \+1"):
            CosetSpace(GAMMA0, 60, 2)

    def test_flipped_t_sign_is_caught(self, monkeypatch):
        # one T sign flipped: S^2 still holds, but U = T S takes the sign
        # once or three times on the way round its orbit
        tables = CosetSpace._gamma0_tables

        def flip_one(self, blocks):
            S, T, eps = tables(self, blocks)
            return S, ((T[0][0], -T[0][1]),) + T[1:], eps
        monkeypatch.setattr(CosetSpace, "_gamma0_tables", flip_one)
        with pytest.raises(CheckFailed, match=r"U\^3 = -I moves a label of gamma0\(60\) "
                                              r"or gives it a sign other than \+1"):
            CosetSpace(GAMMA0, 60, 2)

    @pytest.mark.parametrize("kind, N", [(GAMMA0, N) for N in (1, 2, 12, 60, 97, 420)]
                             + [(GAMMA1, N) for N in (1, 2, 3, 4, 13, 20)])
    def test_inverse_tables_equal_compositions(self, kind, N):
        # J = S S, S^-1 = S J, U^-1 = U^2 J and U^-2 = U J, table by table
        t = build_coset_space(kind, N, 2).tables
        assert t["J"] == cosets._compose(t["S"], t["S"])
        for name, h in (("Sinv", "S"), ("Uinv", "U2"), ("U2inv", "U")):
            assert t[name] == cosets._compose(t[h], t["J"])
        assert {s for _, s in t["J"]} == {1 if kind == GAMMA0 or N <= 2 else -1}

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


def p1_label_of_row(space, c, d):
    """label_of_row of Gamma0(N) by the general normal form alone."""
    p = p1_normalize(space.N, c, d)
    return None if p is None else (space._label_pos[p], 1)


class TestIndexedLookup:
    """label_of_row of Gamma0(N) reads a unit d through c d^-1 mod N."""

    def test_every_small_row(self):
        for N in range(1, 61):
            space = build_coset_space(GAMMA0, N, 2)
            for c in range(-N, 2 * N):
                for d in range(-N, 2 * N):
                    assert space.label_of_row(c, d) == p1_label_of_row(space, c, d), (N, c, d)

    @pytest.mark.parametrize("N", [420, 1000, 2310, 3000])
    def test_random_rows(self, N):
        space = build_coset_space(GAMMA0, N, 2)
        rnd = random.Random(N)
        primes = (2, 3, 5, 7, 11)
        for _ in range(20000):
            # rows of every size and sign, some with both entries sharing a
            # prime of N, some a multiple of N apart
            c, d = (rnd.choice((rnd.randint(-10 * N, 10 * N), N * rnd.randint(-3, 3),
                                rnd.choice(primes) * rnd.randint(-N, N)))
                    for _ in range(2))
            assert space.label_of_row(c, d) == p1_label_of_row(space, c, d), (c, d)

    def test_cleared_ratio_entry_is_caught(self):
        # an entry cleared after construction: the comparison fails
        space = build_coset_space(GAMMA0, 60, 2)
        space._ratio_label[7] = None
        assert space.label_of_row(7, 1) != p1_label_of_row(space, 7, 1)
        # a label missing from the enumeration: the constructor refuses,
        # under -O too
        code = ("from periodpoly import cosets\n"
                "from periodpoly.exactalg import CheckFailed\n"
                "block = cosets._p1_block\n"
                "def drop_one(N, g):\n"
                "    points = block(N, g)\n"
                "    return points[1:] if g == N else points  # (0 : 1)\n"
                "cosets._p1_block = drop_one\n"
                "try:\n"
                "    cosets.CosetSpace(cosets.GAMMA0, 60, 2)\n"
                "except CheckFailed as exc:\n"
                "    print('CheckFailed:', exc)\n")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
        assert proc.returncode == 0
        assert proc.stdout == "CheckFailed: gamma0(60) has 143 labels, not its index 144\n"


class TestAction:
    def test_spec_examples_gamma0_2(self):
        sp = build_coset_space(GAMMA0, 2, 8)
        iI = sp.identity_label
        lU = sp.label_of_row(1, 0)[0]
        assert sp.act(iI, MAT_S)[0] == lU      # coset of S equals U's
        assert sp.act(lU, MAT_S)[0] == iI      # US ~ I
        for i in range(sp.size):
            assert sp.act(i, MAT_I) == (i, 1)

    def test_rejects_nonunimodular(self):
        sp = build_coset_space(GAMMA0, 5, 4)
        with pytest.raises(CosetError):
            sp.act(0, Mat2(1, 0, 0, 2))

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
        for N in (1, 3, 4, 5, 7, 8, 9, 12, 15):
            phi = sum(1 for a in range(1, N + 1) if math.gcd(a, N) == 1)
            assert len(dirichlet_characters(N)) == phi

    def test_modulus_one_is_trivial(self):
        (ch,) = dirichlet_characters(1)
        assert ch.is_trivial() and ch.field is None and ch(7) == 1
        assert ch.is_even_for_weight(2) and not ch.is_even_for_weight(3)

    @pytest.mark.parametrize("N", list(range(2, 21)) + [24, 28, 36])
    def test_equals_field_reference(self, N):
        # the characters built by arithmetic in Q(zeta_m), value for value
        new, old = dirichlet_characters(N), reference_dirichlet_characters(N)
        assert len(new) == len(old)
        for ch, ref in zip(new, old):
            assert (ch.order, ch.field) == (ref.order, ref.field)
            assert ch.values == ref.values
            for k in (2, 3):
                assert ch.is_even_for_weight(k) == ref.is_even_for_weight(k)
            assert ch.conjugate().values == ref.conjugate().values

    @pytest.mark.parametrize("order, exponents", [
        (4, {1: 0, 2: 1, 3: 3}),        # the unit 4 is missing
        (4, {1: 1, 2: 1, 3: 3, 4: 2}),  # e(1) != 0
        (4, {1: 0, 2: 1, 3: 1, 4: 2}),  # e(3 * 2) = e(1) = 0, not e(3) + e(2) = 2
        (4, {1: 0, 2: 2, 3: 2, 4: 0}),  # the quadratic character, order 2, not 4
        (4, {0: 0, 1: 0, 2: 1, 3: 3}),  # 0 is not a unit
    ])
    def test_constructor_refuses(self, order, exponents):
        with pytest.raises(CosetError):
            Character(5, order, exponents)

    def test_constructor_accepts_quartic(self):
        ch = Character(5, 4, {1: 0, 2: 1, 3: 3, 4: 2})
        assert ch(2) == ch.field.zeta and ch(4) == -ch.field.one
        assert not ch.is_even_for_weight(2) and ch.is_even_for_weight(3)
        assert dict(ch.conjugate().exponents) == {1: 0, 2: 3, 3: 1, 4: 2}

    def test_label_strings(self):
        sp0 = build_coset_space(GAMMA0, 5, 4)
        assert sp0.label_str(sp0.identity_label) == "(0:1)"
        assert sp0.label_from_str("(0:1)") == sp0.identity_label
        sp1 = build_coset_space(GAMMA1, 5, 3)
        s = sp1.label_str(0)
        assert "," in s and sp1.label_from_str(s) == 0
