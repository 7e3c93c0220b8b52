import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly import hecke
from periodpoly.exactalg import (DenseMatrix, PeriodPolyError, QQ, clear_denominators,
                                 eigen_kernel, kernel_columns, poly_divmod, poly_mul,
                                 poly_sub, poly_trim, rows_to_int_sparse)
from periodpoly.cosets import (GAMMA0, GAMMA1, MAT_I, MAT_S, MAT_T, MAT_TINV,
                               MAT_U, MAT_U2, Mat2, build_coset_space,
                               dirichlet_characters)
from periodpoly.polyspace import (ExtPolyVector, PolyVector, _pow_linear,
                                  build_W, build_W_extended,
                                  build_coboundary_and_D, chi_component, eps_split,
                                  pair_braces, slash_poly)
from periodpoly.hecke import (EigenspaceError, GroupRingElement, HeckeError,
                              HeckeOperator, ONE_MINUS_S, ONE_MINUS_T,
                              SigmaSpec, adjoint_vee,
                              common_eigen_polynomial, delta_spec,
                              delta_vee_spec, diamond_spec, gre_mul, gre_unit,
                              _candidate_matrices, hecke_action, hecke_identity,
                              hecke_matrix, merel_family, resolve_sigma_coset,
                              solve_universal_hecke, theta_spec, tn_infinity,
                              torbit_canonical, universal_hecke_element,
                              verify_hecke_property, witness_terms)
from periodpoly.analytic import manin_coefficient

from dense_reference import reference_operator, reference_resolve_sigma_coset


class TestTnInfinity:
    def test_n1(self):
        assert tn_infinity(1).support() == [MAT_I]

    def test_n2(self):
        t = tn_infinity(2)
        assert set(t.support()) == {Mat2(1, 0, 0, 2), Mat2(1, 1, 0, 2), Mat2(2, 0, 0, 1)}

    def test_sigma_count(self):
        for n in (4, 6, 12):
            sigma = sum(d for d in range(1, n + 1) if n % d == 0)
            assert len(tn_infinity(n).coeffs) == sigma


class TestAdjoint:
    def test_t_goes_to_t_inverse(self):
        assert adjoint_vee(gre_unit([(1, MAT_T)])) == gre_unit([(1, MAT_TINV)])

    def test_involution(self):
        rnd = random.Random(5)
        cands = [Mat2(1, 0, 0, 6), Mat2(2, 1, 0, 3), Mat2(1, 2, 2, 10)]
        x = GroupRingElement(6, {m: Fraction(rnd.randint(-3, 3)) for m in cands})
        assert adjoint_vee(adjoint_vee(x)) == x

    def test_tn_inf_adjoint_shape(self):
        # vee keeps triangularity: (a b; 0 d) -> (d -b; 0 a), so the support
        # stays triangular with the off-diagonal entry negated
        t = adjoint_vee(tn_infinity(4))
        assert len(t.coeffs) == len(tn_infinity(4).coeffs)
        for m in t.support():
            assert m.c == 0 and m.a > 0 and m.d > 0 and m.b <= 0
            assert m.canonical_pm() == m


class TestTorbit:
    def test_orbit_invariance(self):
        rnd = random.Random(6)
        for _ in range(50):
            while True:
                a, b, c, d = (rnd.randint(-6, 6) for _ in range(4))
                if a * d - b * c != 0:
                    break
            m = Mat2(a, b, c, d)
            rep = torbit_canonical(m)
            j = rnd.randint(-4, 4)
            shifted = (MAT_T ** j) * m
            assert torbit_canonical(shifted) == rep
            assert torbit_canonical(-m) == rep


class TestVerifyProperty:
    def test_identity_n1(self):
        ok, y = verify_hecke_property(GroupRingElement(1, {MAT_I: Fraction(1)}), 1)
        assert ok and y.is_zero()

    def test_solver_output_verifies_with_witness(self):
        for n in (2, 5):
            el = solve_universal_hecke(n, n)
            ok, y = verify_hecke_property(el, n)
            assert ok
            delta = gre_mul(tn_infinity(n), ONE_MINUS_S) - gre_mul(ONE_MINUS_S, el)
            assert gre_mul(ONE_MINUS_T, y) == delta

    def test_perturbed_candidate_fails(self):
        el = solve_universal_hecke(2, 2)
        m0 = el.support()[0]
        bad = GroupRingElement(2, {**el.coeffs, m0: el.coeffs[m0] + 1})
        ok, orbit = verify_hecke_property(bad, 2)
        assert not ok
        assert isinstance(orbit, Mat2)

    def test_y_ambiguity_invariance(self):
        # adding (1 - T) Y never disturbs the orbit sums
        rnd = random.Random(23)
        n = 3
        el = solve_universal_hecke(n, n)
        cands = [Mat2(1, 0, 0, 3), Mat2(3, 1, 0, 1), Mat2(1, 2, 1, 5)]
        for _ in range(10):
            y = GroupRingElement(n, {m: Fraction(rnd.randint(-3, 3)) for m in cands})
            delta = (gre_mul(tn_infinity(n), ONE_MINUS_S)
                     - gre_mul(ONE_MINUS_S, el) - gre_mul(ONE_MINUS_T, y))
            sums = {}
            for m, c in delta.coeffs.items():
                rep = torbit_canonical(m)
                sums[rep] = sums.get(rep, Fraction(0)) + c
            assert all(not v for v in sums.values())


class TestSolver:
    @pytest.mark.parametrize("n", list(range(2, 13)))
    def test_solve_and_verify(self, n):
        el = solve_universal_hecke(n, n)
        assert verify_hecke_property(el, n)[0]
        assert adjoint_vee(adjoint_vee(el)) == el
        assert max(max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
                   for m in el.support()) <= n

    def test_variants_differ_and_both_verify(self):
        for n in (2, 3, 5):
            a = solve_universal_hecke(n, n)
            b = solve_universal_hecke(n, n, variant=1)
            assert a != b
            assert verify_hecke_property(b, n)[0]

    def test_deterministic(self):
        assert solve_universal_hecke(7, 7) == solve_universal_hecke(7, 7)

    def test_entry_bound_guard(self):
        with pytest.raises(HeckeError):
            solve_universal_hecke(5, 3)

    def test_heilbronn_family(self):
        assert set(merel_family(2)) == {Mat2(1, 0, 0, 2), Mat2(2, 0, 0, 1),
                                        Mat2(2, 1, 0, 1), Mat2(1, 0, 1, 2)}
        for n in (2, 7, 12):
            el = universal_hecke_element(n)
            assert verify_hecke_property(el, n)[0]


def reference_merel_family(n):
    """Merel's family by scanning every c in 0..n for each (a, b)."""
    out = []
    for a in range(1, n + 1):
        for b in range(a):
            for c in range(n + 1):
                num = n + b * c
                if num % a:
                    continue
                d = num // a
                if d > c:
                    out.append(Mat2(a, b, c, d))
    return out


def progression_merel_family(n):
    """Merel's family by scanning (a, b): the c with b c = -n (mod a) form one
    progression of step a / gcd(a, b), empty unless gcd(a, b) divides n."""
    out = []
    for a in range(1, n + 1):
        for b in range(a):
            g = math.gcd(a, b)
            if n % g:
                continue
            step = a // g
            c0 = -(n // g) * pow(b // g, -1, step) % step
            for c in range(c0, (n - 1) // (a - b) + 1, step):
                out.append(Mat2(a, b, c, (n + b * c) // a))
    return out


def torbit_shift(m: Mat2, rep: Mat2) -> int:
    """j with m = T^j rep (both pm-canonical in the same orbit)."""
    if rep.c != 0:
        return (m.a - rep.a) // rep.c
    return (m.b - rep.b) // rep.d


def reference_verify_hecke_property(cand, n):
    """The defining identity checked in per-entry Fractions."""
    delta = gre_mul(tn_infinity(n), ONE_MINUS_S) - gre_mul(ONE_MINUS_S, cand)
    orbits = {}
    for m, c in delta.coeffs.items():
        orbits.setdefault(torbit_canonical(m), []).append((m, c))
    y_coeffs = {}
    for rep in sorted(orbits):
        terms = orbits[rep]
        if sum(c for _, c in terms):
            return False, rep
        for m, c in terms:
            j = torbit_shift(m, rep)
            rng, sign = (range(0, j), -1) if j > 0 else (range(j, 0), 1)
            for t in rng:
                key = (Mat2(rep.a + t * rep.c, rep.b + t * rep.d, rep.c, rep.d)
                       .canonical_pm())
                y_coeffs[key] = y_coeffs.get(key, Fraction(0)) + sign * c
    y = GroupRingElement(n, y_coeffs)
    assert gre_mul(ONE_MINUS_T, y) == delta
    return True, y


def reference_hecke_identity(cand, n):
    """The defining identity checked in integers with the witness den Y
    expanded term by term and multiplied out: (True, {4-tuple: int}, den)
    or (False, least bad orbit representative, den)."""
    if cand.n != n:
        raise HeckeError("candidate has determinant %d, expected %d" % (cand.n, n))
    ints, den = clear_denominators([Fraction(c) for c in cand.coeffs.values()])
    delta = {}
    get = delta.get
    for a, b, _, d in tn_infinity(n).coeffs:
        delta[a, b, 0, d] = get((a, b, 0, d), 0) + den
        delta[b, -a, d, 0] = get((b, -a, d, 0), 0) - den
    for (a, b, c, d), v in zip(cand.coeffs, ints):
        delta[a, b, c, d] = get((a, b, c, d), 0) - v
        key = (-c, -d, a, b) if a > 0 or (a == 0 and b > 0) else (c, d, -a, -b)
        delta[key] = get(key, 0) + v
    delta = {m: v for m, v in delta.items() if v}
    orbits = {}
    for (a, b, c, d), v in delta.items():
        s = a // c if c else b // d
        orbits.setdefault((a - s * c, b - s * d, c, d), {})[s] = v
    bad = [rep for rep, terms in orbits.items() if sum(terms.values())]
    if bad:
        return False, min(bad), den
    y = {}
    for (a, b, c, d), terms in orbits.items():
        js = sorted(terms)
        acc = 0
        for j, nxt in zip(js, js[1:]):
            acc += terms[j]
            if acc:
                for t in range(j, nxt):
                    y[a + t * c, b + t * d, c, d] = acc
    recheck = {}
    get = recheck.get
    for m, v in y.items():
        a, b, c, d = m
        if a * d - b * c != n:
            raise HeckeError("witness matrix with determinant %d != %d" % (a * d - b * c, n))
        recheck[m] = get(m, 0) + v
        recheck[a + c, b + d, c, d] = get((a + c, b + d, c, d), 0) - v
    if {m: v for m, v in recheck.items() if v} != delta:
        raise HeckeError("telescoping witness failed its own recheck")
    return True, y, den


def expanded_hecke_identity(cand, n):
    """``hecke_identity`` with its runs expanded by ``witness_terms``."""
    ok, y, den = hecke_identity(cand, n)
    return (ok, witness_terms(y) if ok else y, den)


def reference_manin_coefficient(P_plus, t, xy):
    """The Manin sum in per-entry Fractions: c_M s P+(-c_M, a_M)|M(0) for
    weight > 2, c_M P+ at the label of (x, y) M for weight 2."""
    space, w = P_plus.space, P_plus.w
    x, y = xy
    acc = 0
    for M, coeff in t.items():
        if w >= 1:
            hit = space.label_of_row(-M.c, M.a)
            if hit is not None:
                l, s = hit
                val = sum(pi * M.b ** i * M.d ** (w - i)
                          for i, pi in enumerate(P_plus.values[l]))
                acc += (coeff if s ** w == 1 else -coeff) * val
        else:
            hit = space.label_of_row(x * M.d - y * M.c, -x * M.b + y * M.a)
            if hit is not None:
                acc += coeff * P_plus.values[hit[0]][0]
    return acc


# the primes the eigen-sweep workload of perfbench draws from
EIGEN_SWEEP_PRIMES = [61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
                      127, 131, 137, 139, 149, 151]


class TestIntegerGroupRing:
    """Merel's family, the Hecke-identity check and the Manin sum in
    integers, against the Fraction and full-scan references."""

    @pytest.mark.parametrize("n", list(range(1, 61)) + [97, 151])
    def test_merel_family_matches_scan(self, n):
        assert merel_family(n) == reference_merel_family(n)

    @pytest.mark.parametrize("ns", [range(1, 201), range(201, 301), [1009], [1999]])
    def test_merel_family_by_divisors_matches_progressions(self, ns):
        """Same list, same order as the per-(a, b) progression scan."""
        for n in ns:
            assert merel_family(n) == progression_merel_family(n)

    @pytest.mark.parametrize("n", list(range(1, 61)) + [97, 151])
    def test_heilbronn_element_is_adjoint_of_scan(self, n):
        el = universal_hecke_element(n)
        ref = GroupRingElement(n, {m.vee(): 1 for m in reference_merel_family(n)})
        assert el == ref and el.support() == ref.support()
        assert all(type(m) is Mat2 and type(c) is int and c == 1
                   for m, c in el.coeffs.items())

    @pytest.mark.parametrize("n", EIGEN_SWEEP_PRIMES)
    def test_hecke_identity_at_eigen_sweep_primes(self, n):
        el = universal_hecke_element(n)
        got = verify_hecke_property(el, n)
        assert got[0] and got == reference_verify_hecke_property(el, n)
        ok, y, den = hecke_identity(el, n)
        assert ok and den == 1 and got[1] == GroupRingElement(
            n, {Mat2(*m): v for m, v in witness_terms(y).items()})

    @pytest.mark.parametrize("n", [61, 97, 151])
    def test_refuted_merel_elements_match_reference(self, n):
        el = universal_hecke_element(n)
        support = el.support()
        dropped = GroupRingElement(n, {m: c for m, c in el.coeffs.items()
                                       if m != support[len(support) // 2]})
        scaled = GroupRingElement(n, {**el.coeffs, support[0]: Fraction(3, 7)})
        for bad, den in ((dropped, 1), (scaled, 7)):
            ok, rep = verify_hecke_property(bad, n)
            assert not ok and type(rep) is Mat2
            assert (ok, rep) == reference_verify_hecke_property(bad, n)
            assert hecke_identity(bad, n) == (False, tuple(rep), den)

    @pytest.mark.parametrize("n", list(range(1, 61)) + EIGEN_SWEEP_PRIMES + [1009])
    def test_run_length_witness_matches_expanded_reference(self, n):
        """Verdict, den and the expanded witness of Merel's element, and of
        the dropped and scaled mutants, equal the term-by-term reference."""
        el = universal_hecke_element(n)
        got = expanded_hecke_identity(el, n)
        assert got[0] and got == reference_hecke_identity(el, n)
        support = el.support()
        dropped = GroupRingElement(n, {m: c for m, c in el.coeffs.items()
                                       if m != support[len(support) // 2]})
        scaled = GroupRingElement(n, {**el.coeffs, support[0]: Fraction(3, 7)})
        for bad in (dropped, scaled):
            got = hecke_identity(bad, n)
            assert not got[0] and got == reference_hecke_identity(bad, n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_run_length_witness_of_scaled_solver_elements(self, n):
        """Scaled by q != 1 a solution fails; an affine combination of the
        two solver variants with weights 3/7 and 4/7 verifies over den 7."""
        sol = solve_universal_hecke(n, n)
        mix = sol.scale(Fraction(3, 7)) + solve_universal_hecke(n, n, 1).scale(Fraction(4, 7))
        for q in (Fraction(1), Fraction(3, 7), Fraction(-5, 2)):
            cand = sol.scale(q)
            got = expanded_hecke_identity(cand, n)
            assert got == reference_hecke_identity(cand, n) and got[0] == (q == 1)
        got = expanded_hecke_identity(mix, n)
        assert got[0] and got == reference_hecke_identity(mix, n)

    def test_from_canonical_checks_every_key(self):
        el = GroupRingElement.from_canonical(2, {Mat2(1, 0, 1, 2): Fraction(1)})
        assert el == GroupRingElement(2, {Mat2(1, 0, 1, 2): 1})
        # wrong determinant; c = 0 with d < 0; c < 0
        for m in (Mat2(1, 0, 0, 3), Mat2(-1, 0, 0, -2), Mat2(1, 1, -1, 1)):
            with pytest.raises(HeckeError):
                GroupRingElement.from_canonical(2, {m: Fraction(1)})

    def test_witness_recheck_failure_raises_under_optimize(self):
        # summing each orbit from its top shift down leaves the witness
        # empty; the recheck must catch it with asserts stripped
        code = ("import builtins\n"
                "from periodpoly import hecke\n"
                "hecke.sorted = lambda xs: builtins.sorted(xs, reverse=True)\n"
                "try:\n"
                "    hecke.universal_hecke_element(7)\n"
                "except hecke.HeckeError as exc:\n"
                "    print('HeckeError:', exc)\n")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=300)
        assert proc.returncode == 0
        assert proc.stdout == "HeckeError: telescoping witness failed its own recheck\n"

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60),
           q=st.fractions(-3, 3, max_denominator=7).filter(bool))
    def test_hecke_identity_for_random_n(self, data, n, q):
        el = universal_hecke_element(n)
        got = verify_hecke_property(el, n)
        assert got[0] and got == reference_verify_hecke_property(el, n)
        sol = solve_universal_hecke(n)
        for cand in (sol, sol.scale(q)):
            assert (verify_hecke_property(cand, n)
                    == reference_verify_hecke_property(cand, n))
        # a random det-n matrix: gamma (a b; 0 n/a) for a word gamma in S, T
        a = data.draw(st.sampled_from([a for a in range(1, n + 1) if n % a == 0]))
        M = Mat2(a, data.draw(st.integers(-n, n)), 0, n // a)
        for j in data.draw(st.lists(st.integers(-3, 3), max_size=4)):
            M = MAT_S * (MAT_T ** j) * M
        bad = el + GroupRingElement(n, {M: q})
        ok, rep = verify_hecke_property(bad, n)
        assert not ok and (ok, rep) == reference_verify_hecke_property(bad, n)

    def test_manin_coefficient_matches_fraction_sum(self):
        for N, k, eigen in ((1, 12, (2, -24)), (5, 4, (2, -4)), (11, 2, (2, -2)),
                            (37, 2, (2, -2))):
            plus, _ = eps_split(build_W(build_coset_space(GAMMA0, N, k), k - 2))
            Pp = common_eigen_polynomial(plus, [(eigen[0], Fraction(eigen[1]))],
                                         parity="+")
            # P+ is normalized at its first nonzero coordinate; at level 37
            # that is not the identity label
            xy = next(Pp.space.labels[l] for l, p in enumerate(Pp.values) if p[0])
            for n in (1, 2, 3, 4, 6, 13, 29, 61, 101, 149):
                t = universal_hecke_element(n)
                lam = manin_coefficient(Pp, t, delta_spec(GAMMA0, N, n), n, xy)
                assert lam == reference_manin_coefficient(Pp, t, xy)
                assert type(lam) is Fraction
                if n == 2:
                    assert lam == eigen[1]


def reference_resolve_by_search(space, label, M, spec):
    """The coset of any double coset by a search over every lift C and sign
    for g = C M A^-1 in Sigma, O(index) per call."""
    A = space.lifts[label]
    # generic search over candidate lifts
    Ainv = A.inverse()
    signs = (1,) if space.contains_minus_one() else (1, -1)
    hits = []
    for l2 in range(space.size):
        for sign in signs:
            C = space.lifts[l2] if sign == 1 else -space.lifts[l2]
            g = C * M * Ainv
            if _in_sigma(g, spec):
                hits.append((l2, sign))
    if not hits:
        return None
    if len(hits) > 1:
        raise HeckeError("double coset resolution is not unique; property (H) fails")
    return hits[0]


def _in_sigma(g: Mat2, spec: SigmaSpec) -> bool:
    """Membership of a determinant-n g in Sigma, from the definitions:
    - Delta_n: N | c, a = 1 mod N on Gamma1, a a unit mod N on Gamma0;
    - its adjoint: N | c, d = 1 mod N on Gamma1, d a unit mod N on Gamma0;
    - the diamond <d>: N | c, and d_g = d mod N on Gamma1; on Gamma0 it is
      Gamma0(N) itself;
    - Theta_n: the shape (n x, y; N z, n t) of w_n; on Gamma1 the double
      coset of w_n = (n x_w, y_w; N z_w, n t_w) adds y = y_w mod n and
      n t = n t_w mod N.
    """
    N, n = spec.N, spec.n
    if g.c % N:
        return False
    if spec.variant == "delta":
        if spec.kind == GAMMA1:
            return g.a % N == 1 % N
        return math.gcd(g.a, N) == 1
    if spec.variant == "delta_vee":
        if spec.kind == GAMMA1:
            return g.d % N == 1 % N
        return math.gcd(g.d, N) == 1
    if spec.variant == "diamond":
        return spec.kind == GAMMA0 or g.d % N == spec.diamond % N
    if g.a % n or g.d % n:
        return False
    wm = spec.w_matrix
    return spec.kind == GAMMA0 or ((g.b - wm.b) % n == 0 and (g.d - wm.d) % N == 0)


def _support(n):
    return sorted(set(tn_infinity(n).coeffs) | set(universal_hecke_element(n).coeffs))


class TestResolve:
    @pytest.mark.parametrize("kind", [GAMMA0, GAMMA1])
    def test_congruences_match_lift_search(self, kind):
        # Delta_n and its adjoint for n = 2, 3, 5 and every Theta_n with
        # n || N and n > 1, on the supports of T_n^inf and T~_n, and every
        # diamond on T~_1 = I, at every label and N <= 13
        seen = {}
        for N in range(1, 14):
            space = build_coset_space(kind, N, 2)
            cases = [(delta_spec(kind, N, n), _support(n)) for n in (2, 3, 5)]
            cases += [(delta_vee_spec(kind, N, n), _support(n))
                      for n in (2, 3, 5) if math.gcd(n, N) == 1]
            cases += [(theta_spec(kind, N, n), _support(n)) for n in range(2, N + 1)
                      if N % n == 0 and math.gcd(n, N // n) == 1]
            cases += [(diamond_spec(kind, N, d), [MAT_I])
                      for d in range(1, N) if math.gcd(d, N) == 1]
            for spec, matrices in cases:
                for M in matrices:
                    for l in range(space.size):
                        got = resolve_sigma_coset(space, l, M, spec)
                        assert got == reference_resolve_by_search(space, l, M, spec)
                        seen[spec.variant] = seen.get(spec.variant, 0) + (got is not None)
        assert sorted(seen) == ["delta", "delta_vee", "diamond", "theta"] and all(seen.values())

    @pytest.mark.parametrize("N", [5, 7])
    def test_gamma0_diamond_is_the_identity(self, N):
        # every <d> acts trivially on Gamma0(N), whose d_g may be any unit
        W = build_W(build_coset_space(GAMMA0, N, 4), 2)
        t1 = GroupRingElement(1, {MAT_I: Fraction(1)})
        for d in range(1, N):
            assert hecke_matrix(W, t1, diamond_spec(GAMMA0, N, d)) == \
                DenseMatrix.identity(QQ, W.dim)

    def test_delta_congruence_example(self, space5):
        hit = resolve_sigma_coset(space5, space5.identity_label,
                                  Mat2(1, 0, 0, 2), delta_spec(GAMMA0, 5, 2))
        assert hit is not None
        assert space5.labels[hit[0]] == (0, 1)

    def test_delta_gcd_obstruction(self):
        sp = build_coset_space(GAMMA0, 2, 8)
        hit = resolve_sigma_coset(sp, sp.identity_label, Mat2(2, 0, 0, 1),
                                  delta_spec(GAMMA0, 2, 2))
        assert hit is None

    def test_coprime_never_none(self, space5):
        spec = delta_spec(GAMMA0, 5, 2)
        for m in _candidate_matrices(2, 2):
            for l in range(space5.size):
                assert resolve_sigma_coset(space5, l, m, spec) is not None

    def test_det_mismatch(self, space5):
        with pytest.raises(HeckeError):
            resolve_sigma_coset(space5, 0, Mat2(1, 0, 0, 3),
                                delta_spec(GAMMA0, 5, 2))

    def test_spec_validation(self):
        with pytest.raises(HeckeError):
            SigmaSpec("theta", GAMMA0, 6, 4)       # 4 does not exactly divide 6
        with pytest.raises(HeckeError):
            SigmaSpec("delta_vee", GAMMA0, 6, 2)   # gcd(2, 6) > 1
        with pytest.raises(HeckeError):
            SigmaSpec("diamond", GAMMA0, 6, 1)     # missing unit


# the hecke-matrix jobs of perfbench's hecke-spaces workload, then Theta_13
# and the adjoint of Delta_2 on Gamma1(13) and Delta_3 at the composite
# level 100, as (group, N, k, n, variant, extended)
RESOLUTION_CASES = [
    (GAMMA0, 37, 4, 2, "delta", False), (GAMMA0, 37, 4, 11, "delta", False),
    (GAMMA0, 37, 4, 2, "delta_vee", False), (GAMMA0, 37, 4, 37, "theta", False),
    (GAMMA0, 12, 8, 2, "delta", False), (GAMMA0, 11, 4, 11, "delta", False),
    (GAMMA0, 11, 4, 23, "delta", False), (GAMMA0, 11, 4, 3, "delta", True),
    (GAMMA1, 13, 2, 13, "theta", False), (GAMMA1, 13, 2, 2, "delta_vee", False),
    (GAMMA0, 100, 6, 3, "delta", False)]


# n much larger than N, so that a class mod N holds many support matrices;
# Delta_61 on Wtilde of Gamma0(5) and Theta_3 on Wtilde of Gamma0(12) fold
# pole residues class by class
LARGE_N_CASES = [
    (GAMMA0, 11, 4, 151, "delta", False), (GAMMA0, 5, 6, 61, "delta", False),
    (GAMMA0, 5, 4, 61, "delta", True), (GAMMA1, 7, 3, 29, "delta", False),
    (GAMMA1, 7, 3, 29, "delta_vee", False), (GAMMA0, 12, 4, 3, "theta", True)]


class TestIntegerResolution:
    """The compile by classes mod N against the per-(label, M) compile with
    the Mat2 resolver it replaced."""

    @pytest.mark.parametrize("kind,N,k,n,variant,extended", RESOLUTION_CASES + LARGE_N_CASES)
    def test_equals_mat2_resolver(self, kind, N, k, n, variant, extended):
        space = build_coset_space(kind, N, k)
        spec = SigmaSpec(variant, kind, N, n)
        t = universal_hecke_element(n)
        hits = 0
        for M in t.coeffs:
            got = [resolve_sigma_coset(space, l, M, spec) for l in range(space.size)]
            assert got == [reference_resolve_sigma_coset(space, l, M, spec)
                           for l in range(space.size)]
            targets = resolve_sigma_coset(space, None, M, spec)
            assert targets == ([(l,) + hit for l, hit in enumerate(got) if hit is not None]
                               or None)
            hits += len(targets or ())
        assert hits
        op = HeckeOperator(space, k - 2, t, spec, extended)
        blocks, poles, den, norm = reference_operator(space, k - 2, t, spec, extended)
        assert (op.blocks, op.den, op.norm) == (blocks, den, norm)
        assert sorted(sorted(row.items()) for row in op.poles) == \
            sorted(sorted(row.items()) for row in poles)
        assert bool(poles) == extended

    @pytest.mark.parametrize("kind", [GAMMA0, GAMMA1])
    def test_members_of_a_class_resolve_alike(self, kind):
        # the classes HeckeOperator folds: at every label, every member of a
        # class mod N has the same target and sign under Delta_n, its adjoint
        # and Theta_n, for N <= 13 and n <= 29
        elements = {n: universal_hecke_element(n) for n in range(1, 30)}
        shared = 0
        for N in range(1, 14):
            space = build_coset_space(kind, N, 2)
            for n, t in elements.items():
                specs = [delta_spec(kind, N, n)]
                specs += [delta_vee_spec(kind, N, n)] if math.gcd(n, N) == 1 else []
                specs += [theta_spec(kind, N, n)] if N % n == 0 and math.gcd(n, N // n) == 1 \
                    else []
                classes = hecke._support_classes(t.coeffs, [1] * len(t.coeffs), n, N)
                for spec in specs:
                    for (M, _), *others in classes.values():
                        targets = resolve_sigma_coset(space, None, M, spec)
                        for M2, _ in others:
                            assert resolve_sigma_coset(space, None, M2, spec) == targets
                        shared += bool(others) * space.size
        assert shared > 10 ** 4

    def test_support_matrix_of_another_determinant_is_refused_under_optimize(self):
        # a determinant-2 matrix slipped into T~_3: the one pass over the
        # support refuses it, with asserts stripped
        code = ("from periodpoly import hecke\n"
                "from periodpoly.cosets import GAMMA0, Mat2, build_coset_space\n"
                "t = hecke.universal_hecke_element(3)\n"
                "t.coeffs[Mat2(1, 0, 0, 2)] = 1\n"
                "try:\n"
                "    hecke.HeckeOperator(build_coset_space(GAMMA0, 5, 4), 2, t,\n"
                "                        hecke.delta_spec(GAMMA0, 5, 3))\n"
                "except hecke.HeckeError as exc:\n"
                "    print('HeckeError:', exc)\n")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=300)
        assert proc.returncode == 0
        assert proc.stdout == "HeckeError: matrix determinant 2 does not match spec\n"


class TestActions:
    def test_identity_action(self, w5):
        t1 = GroupRingElement(1, {MAT_I: Fraction(1)})
        spec = delta_spec(GAMMA0, 5, 1)
        for j in range(w5.dim):
            v = w5.vector(j)
            assert hecke_action(v, t1, spec).values == v.values

    def test_stability(self, space5, w5):
        t2 = universal_hecke_element(2)
        spec = delta_spec(GAMMA0, 5, 2)
        C, _ = build_coboundary_and_D(space5, 2)
        Wt = build_W_extended(space5, 2)
        for v in w5.vectors():
            assert w5.contains(hecke_action(v, t2, spec))
        for v in C.vectors():
            assert C.contains(hecke_action(v, t2, spec))
        for v in Wt.vectors():
            assert Wt.contains(hecke_action(v, t2, spec))

    def test_adjointness_on_W(self):
        for (N, k, n) in ((5, 4, 2), (5, 4, 3), (7, 4, 2)):
            sp = build_coset_space(GAMMA0, N, k)
            W = build_W(sp, k - 2)
            t = universal_hecke_element(n)
            sd, sv = delta_spec(GAMMA0, N, n), delta_vee_spec(GAMMA0, N, n)
            vecs = W.vectors()
            images = [hecke_action(P, t, sd) for P in vecs]
            vee_images = [hecke_action(Q, t, sv) for Q in vecs]
            for i in range(W.dim):
                for j in range(W.dim):
                    assert pair_braces(images[i], vecs[j]) == \
                        pair_braces(vecs[i], vee_images[j])

    def test_adjointness_on_Wtilde(self, space5):
        Wt = build_W_extended(space5, 2)
        t = universal_hecke_element(2)
        sd, sv = delta_spec(GAMMA0, 5, 2), delta_vee_spec(GAMMA0, 5, 2)
        vecs = Wt.vectors()
        images = [hecke_action(P, t, sd) for P in vecs]
        vee_images = [hecke_action(Q, t, sv) for Q in vecs]
        for i in range(Wt.dim):
            for j in range(Wt.dim):
                assert pair_braces(images[i], vecs[j]) == \
                    pair_braces(vecs[i], vee_images[j])


def reference_matrix(sub, images):
    """Matrix of a map from the images of the basis vectors, by membership."""
    cols = [sub.coordinates_of(img.tilde_coords() if sub.extended else img.coords())
            for img in images]
    assert None not in cols
    return DenseMatrix.from_columns(sub.field, cols, nrows=sub.dim)


def reference_hecke_action(P, t, spec):
    """P |_Sigma t by the per-(label, M) loop, one slash per resolved pair."""
    space, w = P.space, P.w
    vals = [[0] * (w + 1) for _ in range(space.size)]
    for M, coeff in t.items():
        for l in range(space.size):
            hit = resolve_sigma_coset(space, l, M, spec)
            if hit is None:
                continue
            l2, s = hit
            img = slash_poly(P.values[l2], M, w)
            c = coeff if s ** w == 1 else -coeff
            for i, v in enumerate(img):
                vals[l][i] += c * v
    return PolyVector(space, w, vals)


def reference_hecke_action_extended(P, t, spec):
    """P |_Sigma t on the extended space by summing rational functions.

    Per target label the images (X^j | M) are added as fractions over
    (aX+b)(cX+d), reduced by a polynomial gcd; the sum times X must then
    divide exactly by its denominator.
    """
    space, w = P.space, P.w
    coords = P.tilde_coords()
    n = w + 3
    out_blocks = []
    for l in range(space.size):
        num, den = [Fraction(0)], [Fraction(1)]
        for M, coeff in t.items():
            hit = resolve_sigma_coset(space, l, M, spec)
            if hit is None:
                continue
            l2, s = hit
            tn, td = _tilde_slash_fraction(coords[l2 * n:(l2 + 1) * n], M, w)
            c = coeff * s ** w
            tn = [c * a for a in tn]
            num, den = _frac_add(num, den, tn, td)
        out_blocks.append(_fraction_to_tilde(num, den, w))
    flat = tuple(c for b in out_blocks for c in b)
    return ExtPolyVector.from_tilde_coords(space, w, flat, check=True)


def _tilde_slash_fraction(block, M, w):
    """sum_j block[j] (aX+b)^(j+1) (cX+d)^(w-j+1) over (aX+b)(cX+d)."""
    num = [Fraction(0)] * (w + 3)
    for idx, coeff in enumerate(block):
        if not coeff:
            continue
        j = idx - 1
        term = poly_mul(_pow_linear(M.a, M.b, j + 1), _pow_linear(M.c, M.d, w - j + 1))
        for i, v in enumerate(term):
            if v:
                num[i] += coeff * v
    den = poly_mul([M.b, M.a], [M.d, M.c])
    return num, den


def _poly_gcd(p, q):
    p, q = poly_trim(p), poly_trim(q)
    while any(q):
        _, r = poly_divmod(p, q)
        p, q = q, r
    lead = Fraction(p[-1])
    return [c / lead for c in p] if lead else p


def _frac_add(n1, d1, n2, d2):
    num = poly_sub(poly_mul(n1, d2), poly_mul([-c for c in n2], d1))
    den = poly_mul(d1, d2)
    g = _poly_gcd(den, num if any(num) else den)
    if len(g) > 1:
        num, r1 = poly_divmod(num, g)
        den, r2 = poly_divmod(den, g)
        assert not any(r1) and not any(r2)
    return poly_trim(num), poly_trim(den)


def _fraction_to_tilde(num, den, w):
    q, r = poly_divmod(poly_mul(num, [0, 1]), den)
    if any(r):
        raise HeckeError("Hecke image leaves the extended polynomial model")
    q = q + [Fraction(0)] * (w + 3 - len(q))
    if len(q) > w + 3 and any(q[w + 3:]):
        raise HeckeError("Hecke image exceeds the degree bound")
    return q[:w + 3]


def _specs(kind, N, n):
    specs = [delta_spec(kind, N, n)]
    if math.gcd(n, N) == 1:
        specs.append(delta_vee_spec(kind, N, n))
    if N % n == 0 and math.gcd(n, N // n) == 1:
        specs.append(theta_spec(kind, N, n))
    if kind == GAMMA1 and n == 1:
        specs += [diamond_spec(kind, N, 2), diamond_spec(kind, N, -1)]
    return specs


def reference_pole_rows(space, w, t, spec):
    """(target, pole) -> {source coordinate: residue} by the residue formula.

    X^-1 | M = (cX+d)^(w+1) / (aX+b) has the residue (c x0 + d)^(w+1) / a
    at x0 = -b/a, and X^(w+1) | M the residue (a x0 + b)^(w+1) / c at
    x0 = -d/c; poles at 0 are left out.
    """
    n = w + 3
    rows = {}
    for M, coeff in t.items():
        for l in range(space.size):
            hit = resolve_sigma_coset(space, l, M, spec)
            if hit is None:
                continue
            l2, s = hit
            c = coeff * s ** w
            for j, p, q, u, v in ((0, M.c, M.d, M.a, M.b), (w + 2, M.a, M.b, M.c, M.d)):
                if u and v:
                    x0 = Fraction(-v, u)
                    row = rows.setdefault((l, x0), {})
                    row[l2 * n + j] = row.get(l2 * n + j, 0) + c * (p * x0 + q) ** (w + 1) / u
    return [row for row in rows.values() if any(row.values())]


def _normalized_rows(rows):
    """Each row scaled to first entry 1, zeros dropped, as a sorted list."""
    out = []
    for row in rows:
        items = sorted((i, Fraction(v)) for i, v in row.items() if v)
        out.append(tuple((i, v / items[0][1]) for i, v in items))
    return sorted(out)


def _outcome(fn, P, t, spec):
    """The image's coordinates, or the class of the error it raises."""
    try:
        return fn(P, t, spec).tilde_coords()
    except PeriodPolyError as exc:
        return type(exc)


COMPILED_GRID = [
    (kind, N, k) for kind, levels in ((GAMMA0, (1, 5, 11, 37)), (GAMMA1, (5, 7)))
    for N in levels for k in (2, 3, 4, 6) if kind == GAMMA1 or k % 2 == 0]


class TestCompiledOperator:
    """HeckeOperator against the per-(label, M) reference loop."""

    @pytest.mark.parametrize("kind,N,k", COMPILED_GRID)
    def test_images_match_reference(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        w = k - 2
        rnd = random.Random(N * 100 + k)
        # the first basis vectors of W and two random rational vectors
        vectors = build_W(space, w).vectors()[:3]
        vectors += [PolyVector(space, w, [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))
                                          for _ in range(w + 1)]
                                         for _ in range(space.size)])
                    for _ in range(2)]
        for n in (1, 2, 3, 5, 11):
            t = universal_hecke_element(n)
            for spec in _specs(kind, N, n):
                op = HeckeOperator(space, w, t, spec)
                for v in vectors:
                    assert op.image(v).values == reference_hecke_action(v, t, spec).values
                v = vectors[-1]
                assert hecke_action(v, t, spec).values == op.image(v).values

    @pytest.mark.parametrize("kind,N,k", COMPILED_GRID)
    def test_extended_images_match_reference(self, kind, N, k):
        space = build_coset_space(kind, N, k)
        w = k - 2
        Wt = build_W_extended(space, w)
        rnd = random.Random(N * 100 + k)
        # a random combination of the whole basis of Wtilde: the action is
        # linear.  The reference takes 10-20 s for n = 11 on the spaces of
        # more than 20 cosets, so there only the pole rows are compared.
        v = Wt.vector_from_coords(Wt.basis.apply(
            [Fraction(rnd.randint(1, 9), rnd.randint(1, 6)) for _ in range(Wt.dim)]))
        for n in (1, 2, 3, 5, 11):
            t = universal_hecke_element(n)
            for spec in _specs(kind, N, n):
                op = HeckeOperator(space, w, t, spec, extended=True)
                assert _normalized_rows(op.poles) == \
                    _normalized_rows(reference_pole_rows(space, w, t, spec))
                if n < 11 or space.size <= 20:
                    assert op.image(v).tilde_coords() == \
                        reference_hecke_action_extended(v, t, spec).tilde_coords()

    @pytest.mark.parametrize("kind,N,k,n", [(GAMMA0, 5, 4, 2), (GAMMA0, 11, 2, 3),
                                            (GAMMA0, 6, 4, 5), (GAMMA1, 5, 3, 2)])
    def test_random_extended_vectors(self, kind, N, k, n):
        space = build_coset_space(kind, N, k)
        w = k - 2
        Wt = build_W_extended(space, w)
        t, spec = universal_hecke_element(n), delta_spec(kind, N, n)
        rnd = random.Random(N * 1000 + k * 10 + n)

        def rand():
            return Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))

        seen = set()
        for trial in range(8):
            poly = PolyVector(space, w, [[rand() for _ in range(w + 1)]
                                         for _ in range(space.size)])
            if trial % 2:
                # cusp constants of Wtilde: every pole cancels
                base = Wt.vector_from_coords(Wt.basis.apply([rand() for _ in range(Wt.dim)]))
                P = ExtPolyVector(space, w, poly + base.poly, base.tails)
            else:
                tails = [rand() if rnd.random() < 0.5 else 0 for _ in range(space.size)]
                P = ExtPolyVector(space, w, poly, tails, check=False)
            got = _outcome(hecke_action, P, t, spec)
            assert got == _outcome(reference_hecke_action_extended, P, t, spec)
            seen.add(got is HeckeError)
        assert seen == {True, False}

    def test_uncancelled_pole_is_refused(self, space5):
        # a cusp constant on the label (1:0) only: its residues at the
        # poles x0 != 0 meet nothing that cancels them
        t, spec = universal_hecke_element(2), delta_spec(GAMMA0, 5, 2)
        tails = [0] * space5.size
        tails[space5.label_from_str("(1:0)")] = 1
        P = ExtPolyVector(space5, 2, PolyVector.zero(space5, 2), tails, check=False)
        with pytest.raises(HeckeError):
            reference_hecke_action_extended(P, t, spec)
        with pytest.raises(HeckeError, match="extended polynomial model"):
            hecke_action(P, t, spec)
        op = HeckeOperator(space5, 2, t, spec, extended=True)
        assert op.poles
        with pytest.raises(HeckeError, match="extended polynomial model"):
            op.apply([int(x) for x in P.tilde_coords()])
        with pytest.raises(HeckeError, match="does not live"):
            op.image(PolyVector.zero(space5, 2))

    @pytest.mark.parametrize("N,k,n", [(11, 4, 2), (11, 4, 3), (5, 6, 5)])
    def test_extended_matrix_matches_reference_images(self, N, k, n):
        space = build_coset_space(GAMMA0, N, k)
        Wt = build_W_extended(space, k - 2)
        t, spec = universal_hecke_element(n), delta_spec(GAMMA0, N, n)
        ref = reference_matrix(Wt, [reference_hecke_action_extended(v, t, spec)
                                    for v in Wt.vectors()])
        assert hecke_matrix(Wt, t, spec) == ref

    def test_solver_element_with_rational_coefficients(self):
        space = build_coset_space(GAMMA0, 11, 4)
        W = build_W(space, 2)
        for t in (solve_universal_hecke(3, 3, variant=1),
                  solve_universal_hecke(5, 5).scale(Fraction(2, 3))):
            spec = delta_spec(GAMMA0, 11, t.n)
            op = HeckeOperator(space, 2, t, spec)
            for v in W.vectors():
                assert op.image(v).values == reference_hecke_action(v, t, spec).values
        assert op.den == 3

    def test_rejects_vectors_of_another_space(self, space5, w5):
        op = HeckeOperator(space5, 2, universal_hecke_element(2),
                           delta_spec(GAMMA0, 5, 2))
        other = build_W(build_coset_space(GAMMA0, 7, 4), 2).vector(0)
        with pytest.raises(HeckeError):
            op.image(other)
        with pytest.raises(HeckeError):
            op.apply(w5.basis.column(0)[:-1])

    def test_matrix_matches_reference_images(self, w5):
        t = universal_hecke_element(3)
        spec = delta_spec(GAMMA0, 5, 3)
        m = hecke_matrix(w5, t, spec)
        ref = reference_matrix(w5, [reference_hecke_action(v, t, spec)
                                    for v in w5.vectors()])
        assert m == ref

    @pytest.mark.parametrize("N,k", [(7, 3), (13, 2)])
    def test_matrix_on_chi_parts(self, N, k):
        # chi parts over Q(zeta_m): T~_2 against the reference images, and
        # the diamond operator <2> as the scalar chi(2)
        import warnings
        W = build_W(build_coset_space(GAMMA1, N, k), k - 2)
        t, spec = universal_hecke_element(2), delta_spec(GAMMA1, N, 2)
        t1 = GroupRingElement(1, {MAT_I: Fraction(1)})
        seen = 0
        for ch in dirichlet_characters(N):
            if ch.field is None or not ch.is_even_for_weight(k):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                comp = chi_component(W, ch)
            if comp.dim == 0:
                continue
            seen += 1
            assert hecke_matrix(comp, t, spec) == reference_matrix(
                comp, [reference_hecke_action(v, t, spec) for v in comp.vectors()])
            assert hecke_matrix(comp, t1, diamond_spec(GAMMA1, N, 2)) == \
                DenseMatrix.identity(comp.field, comp.dim).scaled(ch(2))
        assert seen


class TestMatrices:
    def test_level_one_trace_2001(self):
        sp = build_coset_space(GAMMA0, 1, 12)
        W = build_W(sp, 10)
        m = hecke_matrix(W, universal_hecke_element(2), delta_spec(GAMMA0, 1, 2))
        # tau(2) = -24 (expand (1-q)^24 (1-q^2)^24 by hand), sigma_11(2) = 2049
        tau2 = -24
        assert m.trace() == tau2 + (tau2 + 2049) == 2001

    def test_gamma0_6_k2_trace_18(self):
        sp = build_coset_space(GAMMA0, 6, 2)
        W = build_W(sp, 0)
        m = hecke_matrix(W, universal_hecke_element(5), delta_spec(GAMMA0, 6, 5))
        assert m.trace() == 3 * 6  # three Eisenstein eigenvalues sigma_1(5)

    def test_multiplicativity_level_one(self):
        sp = build_coset_space(GAMMA0, 1, 12)
        W = build_W(sp, 10)
        ms = {n: hecke_matrix(W, universal_hecke_element(n), delta_spec(GAMMA0, 1, n))
              for n in (2, 3, 6)}
        assert ms[2] * ms[3] == ms[6]

    def test_commutativity(self, w5):
        mats = {n: hecke_matrix(w5, universal_hecke_element(n), delta_spec(GAMMA0, 5, n))
                for n in (2, 3, 4, 5, 6)}
        for n in mats:
            for m in mats:
                if n < m and math.gcd(n, m) == 1:
                    assert mats[n] * mats[m] == mats[m] * mats[n]

    def test_atkin_lehner_square(self):
        sp = build_coset_space(GAMMA0, 2, 8)
        W = build_W(sp, 6)
        m = hecke_matrix(W, universal_hecke_element(2), theta_spec(GAMMA0, 2, 2))
        assert m * m == DenseMatrix.identity(QQ, W.dim).scaled(Fraction(2 ** 6))

    def test_atkin_lehner_gamma0_6(self):
        sp = build_coset_space(GAMMA0, 6, 4)
        W = build_W(sp, 2)
        for n in (2, 3, 6):
            m = hecke_matrix(W, universal_hecke_element(n), theta_spec(GAMMA0, 6, n))
            assert m * m == DenseMatrix.identity(QQ, W.dim).scaled(Fraction(n ** 2))

    def test_eps_blocks(self, space5, w5, w5_split):
        plus, minus = w5_split
        t2 = universal_hecke_element(2)
        spec = delta_spec(GAMMA0, 5, 2)
        mp = hecke_matrix(plus, t2, spec)
        mm = hecke_matrix(minus, t2, spec)
        assert mp.nrows + mm.nrows == w5.dim

    def test_instability_reported(self, space5):
        from periodpoly.polyspace import Subspace, PolySpaceError
        # a line not stable under T~2
        vec = PolyVector(space5, 2, [[1, 0, 0]] + [[0, 0, 0]] * 5)
        line = Subspace.from_vectors(space5, 2, False, [vec.coords()])
        with pytest.raises(PolySpaceError, match="basis vector 0"):
            hecke_matrix(line, universal_hecke_element(2), delta_spec(GAMMA0, 5, 2))

    def test_diamond_on_gamma1_5(self):
        sp = build_coset_space(GAMMA1, 5, 4)
        W = build_W(sp, 2)
        t1 = GroupRingElement(1, {MAT_I: Fraction(1)})
        m = hecke_matrix(W, t1, diamond_spec(GAMMA1, 5, 2))
        ident = DenseMatrix.identity(QQ, W.dim)
        assert m != ident and m * m == ident
        # eigenvalue multiplicities match the chi-component dimensions
        assert (eigen_kernel(m, Fraction(1)).ncols,
                eigen_kernel(m, Fraction(-1)).ncols) == (4, 2)


class TestEigenvectors:
    def test_minus_part_is_one_dimensional(self, w5_split, level5_eigenpolys):
        _, minus = w5_split
        assert minus.dim == 1
        _, Pm = level5_eigenpolys
        idl = Pm.space.identity_label
        assert Pm.values[idl] == (0, 1, 0)

    def test_paper_table(self, space5, level5_eigenpolys):
        Pp, Pm = level5_eigenpolys
        from periodpoly.cosets import p1_normalize
        expected_plus = {(0, 1): (1, 0, -5), (1, 1): (5, 0, -5),
                         (1, 3): (-8, 13, 8), (1, 2): (-8, -13, 8),
                         (1, 4): (5, 0, -5), (1, 0): (5, 0, -1)}
        expected_minus = {(0, 1): (0, 1, 0), (1, 1): (1, 2, 1),
                          (1, 3): (-2, -3, 2), (1, 2): (2, -3, -2),
                          (1, 4): (-1, 2, -1), (1, 0): (0, 1, 0)}
        for row, exp in expected_plus.items():
            lab = space5._label_pos[p1_normalize(5, *row)]
            assert Pp.values[lab] == tuple(Fraction(e) for e in exp)
        for row, exp in expected_minus.items():
            lab = space5._label_pos[p1_normalize(5, *row)]
            assert Pm.values[lab] == tuple(Fraction(e) for e in exp)

    def test_wrong_eigenvalue(self, w5_split):
        plus, _ = w5_split
        with pytest.raises(EigenspaceError, match="not an eigenvalue"):
            common_eigen_polynomial(plus, [(2, Fraction(7))], parity="+")

    def test_underdetermined(self, w5_split):
        plus, _ = w5_split
        with pytest.raises(EigenspaceError, match="more primes"):
            common_eigen_polynomial(plus, [], parity="+")

    def test_choice_independence(self, w5_split):
        plus, _ = w5_split
        a = common_eigen_polynomial(plus, [(2, Fraction(-4))], parity="+")
        b = common_eigen_polynomial(
            plus, [(2, Fraction(-4))], parity="+",
            element_for=lambda p: solve_universal_hecke(p, p, variant=1))
        c = common_eigen_polynomial(
            plus, [(2, Fraction(-4))], parity="+",
            element_for=lambda p: solve_universal_hecke(p, p))
        assert a.values == b.values == c.values


class TestSerialization:
    def test_group_ring_round_trip(self):
        t = solve_universal_hecke(6, 6)
        doc = t.to_json()
        assert all(set(item) == {"matrix", "coeff"} for item in doc)
        assert GroupRingElement.from_json(6, doc) == t


class TestEigenKernelOnHecke:
    def test_minus_four_eigenspace_is_a_line(self, w5_split):
        plus, _ = w5_split
        m = hecke_matrix(plus, universal_hecke_element(2), delta_spec(GAMMA0, 5, 2))
        ker = eigen_kernel(m, Fraction(-4))
        assert ker.ncols == 1


class TestGamma1Theta:
    def test_fricke_square_on_gamma1_5(self):
        sp = build_coset_space(GAMMA1, 5, 4)
        W = build_W(sp, 2)
        m = hecke_matrix(W, universal_hecke_element(5), theta_spec(GAMMA1, 5, 5))
        t1 = GroupRingElement(1, {MAT_I: Fraction(1)})
        ident = hecke_matrix(W, t1, diamond_spec(GAMMA1, 5, 1))
        assert m * m == ident.scaled(Fraction(25))


class TestWeight2Recovery:
    def test_x0_11_eigenvalues(self):
        from periodpoly.analytic import eta_product, manin_coefficient
        f = eta_product([(1, 2), (11, 2)], 20)
        sp = build_coset_space(GAMMA0, 11, 2)
        W = build_W(sp, 0)
        plus, minus = eps_split(W)
        assert (W.dim, plus.dim, minus.dim) == (3, 2, 1)
        Pp = common_eigen_polynomial(plus, [(2, Fraction(-2))], parity="+")
        for n in range(1, 21):
            lam = manin_coefficient(Pp, universal_hecke_element(n),
                                    delta_spec(GAMMA0, 11, n), n)
            assert lam == f.coeff(n)


def ideal_membership_within_bound(x: GroupRingElement, entry_bound: int) -> str:
    """Search for x in I + I^vee with support inside an entry bound.

    I = (1+S) R_n + (1+U+U^2) R_n.  Returns "verified within bound" when a
    representation is found and "inconclusive" otherwise; never refutes.
    """
    cands = _candidate_matrices(x.n, entry_bound)
    one_plus_s = gre_unit([(1, MAT_I), (1, MAT_S)])
    one_puu = gre_unit([(1, MAT_I), (1, MAT_U), (1, MAT_U2)])
    columns = []
    for m in cands:
        e = GroupRingElement(x.n, {m: Fraction(1)})
        for lead, side in ((one_plus_s, "l"), (one_puu, "l"),
                           (one_plus_s, "r"), (one_puu, "r")):
            prod = gre_mul(lead, e) if side == "l" else gre_mul(e, lead)
            columns.append(prod)
    # sum_j y_j col_j = x, one row per matrix, the last unknown standing for -x
    sys_rows: dict = {}
    for j, col in enumerate(columns + [x.scale(-1)]):
        for m, c in col.coeffs.items():
            sys_rows.setdefault(m, {})[j] = c
    ncols = len(columns) + 1
    if any(ncols - 1 in vec for _, vec in
           kernel_columns(rows_to_int_sparse(sys_rows.values()), ncols)):
        return "verified within bound"
    return "inconclusive"


class TestIdealMembership:
    def test_adjointness_combination_verified(self):
        t = solve_universal_hecke(2, 2)
        x = (gre_mul(t, gre_unit([(1, MAT_T), (-1, MAT_TINV)]))
             + gre_mul(gre_unit([(1, MAT_TINV), (-1, MAT_T)]), adjoint_vee(t)))
        assert ideal_membership_within_bound(x, 3) == "verified within bound"

    def test_inconclusive_never_refutes(self):
        x = GroupRingElement(2, {Mat2(1, 0, 0, 2): Fraction(1)})
        assert ideal_membership_within_bound(x, 2) in (
            "verified within bound", "inconclusive")
