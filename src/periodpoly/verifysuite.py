"""Aggregated invariant checks, the single entry point behind `verify`.

Each check raises CheckFailed with a message (or returns quietly), also
under ``python -O``, and is intended to run at desk scale; together they
cover the per-module invariant lists.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exactalg import (CyclotomicField, DenseMatrix, QQ, bernoulli, check,
                       kernel_basis, sparse_int_rank)
from .cosets import (GAMMA0, GAMMA1, MAT_I, MAT_S, MAT_T, Mat2,
                     build_coset_space, classical_cusp_count_gamma0,
                     cusp_classes, dirichlet_characters)
from .polyspace import (PolyVector, build_W, build_W_extended,
                        build_coboundary_and_D, chi_component, cminus_trivial,
                        eps_split, pair_braces, pair_induced, pair_vw,
                        slash_poly, _coboundary_and_D_vectors, _tail_families,
                        _w_relation_rows, _wtilde_relation_rows)
from .hecke import (GroupRingElement, ONE_MINUS_S, ONE_MINUS_T, delta_spec,
                    delta_vee_spec, gre_mul, hecke_action, hecke_matrix,
                    solve_universal_hecke, theta_spec, tn_infinity,
                    torbit_canonical, universal_hecke_element,
                    verify_hecke_property, common_eigen_polynomial)
from .analytic import (NewformData, completed_lvalue, eisenstein_qexp,
                       eta_product, manin_coefficient, period_and_omega,
                       petersson_product, eisenstein_period_demo,
                       haberland_constant)
from . import gamma02


def _random_word(rnd, max_len=6) -> Mat2:
    g = MAT_I
    for _ in range(rnd.randint(0, max_len)):
        g = g * (MAT_S if rnd.random() < 0.5 else MAT_T)
    return g


def _random_vector(rnd, space, w) -> PolyVector:
    return PolyVector(space, w, [[Fraction(rnd.randint(-4, 4)) for _ in range(w + 1)]
                                 for _ in range(space.size)])


# ----------------------------------------------------------------------

def check_exactalg_kernels():
    rnd = random.Random(101)
    for _ in range(10):
        nr, nc = rnd.randint(1, 5), rnd.randint(1, 5)
        m = DenseMatrix(QQ, [[Fraction(rnd.randint(-3, 3)) for _ in range(nc)]
                             for _ in range(nr)])
        kb = kernel_basis(m)
        check((m * kb).is_zero() or kb.ncols == 0, "kernel basis is not annihilated")
        check(m.rank() + kb.ncols == nc, "rank + nullity != number of columns")
        check(kernel_basis(m) == kb, "kernel basis is not deterministic")


def check_exactalg_cyclotomic():
    for m in range(1, 13):
        K = CyclotomicField(m)
        z = K.zeta
        p = K.one
        total = K.zero
        for _ in range(m):
            total = total + p
            p = p * z
        check(p == K.one, "zeta^%d != 1" % m)
        if m > 1:
            check(not total, "the %d-th roots of unity do not sum to 0" % m)


def check_bernoulli():
    check(bernoulli(0) == 1 and bernoulli(1) == Fraction(-1, 2), "B_0 != 1 or B_1 != -1/2")
    check(bernoulli(6) == Fraction(1, 42) and bernoulli(8) == Fraction(-1, 30),
          "B_6 != 1/42 or B_8 != -1/30")
    check(all(bernoulli(n) == 0 for n in range(3, 25, 2)),
          "an odd Bernoulli number B_n, n > 1, is nonzero")


def check_coset_group_action():
    rnd = random.Random(7)
    for space in (build_coset_space(GAMMA0, 5, 4), build_coset_space(GAMMA1, 5, 3)):
        for _ in range(25):
            g, h = _random_word(rnd, 8), _random_word(rnd, 8)
            for l in range(space.size):
                l1, s1 = space.act(l, g)
                l2, s2 = space.act(l1, h)
                check((l2, s1 * s2) == space.act(l, g * h), "coset action is not a right action")
        for l in range(space.size):
            e1, s1 = space.eps_conj(l)
            e2, s2 = space.eps_conj(e1)
            check((e2, s1 * s2) == (l, 1), "eps conjugation is not an involution")
            j, s = space.tables["U"][l]
            j, s2 = space.tables["U"][j]
            j, s3 = space.tables["U"][j]
            check((j, s * s2 * s3) == space.tables["J"][l], "U^3 != J on the coset tables")


def check_cusp_counts():
    for N in range(1, 31):
        space = build_coset_space(GAMMA0, N, 4)
        cs = cusp_classes(space)
        check(len(cs) == classical_cusp_count_gamma0(N), "cusp count of Gamma0(%d) is off" % N)
        check(sum(c.width for c in cs.classes) == space.size,
              "cusp widths of Gamma0(%d) do not sum to the index" % N)


def check_pairing_identities():
    rnd = random.Random(13)
    g = Mat2(3, 1, 2, 5)
    for _ in range(15):
        w = rnd.randint(0, 6)
        a = tuple(Fraction(rnd.randint(-5, 5)) for _ in range(w + 1))
        b = tuple(Fraction(rnd.randint(-5, 5)) for _ in range(w + 1))
        check(pair_vw(a, b, w) == (-1) ** w * pair_vw(b, a, w), "<,> is not (-1)^w-symmetric")
        check(pair_vw(slash_poly(a, g, w), b, w) == pair_vw(a, slash_poly(b, g.vee(), w), w),
              "<p|g, q> != <p, q|g^vee>")
    for (N, k) in ((2, 8), (5, 4), (6, 2)):
        space = build_coset_space(GAMMA0, N, k)
        w = k - 2
        for _ in range(5):
            P, Q = _random_vector(rnd, space, w), _random_vector(rnd, space, w)
            check(pair_braces(P, Q) == (-1) ** (w + 1) * pair_braces(Q, P),
                  "{P, Q} is not (-1)^(w+1)-symmetric")
            check(pair_braces(P.eps(), Q.eps()) == (-1) ** (w + 1) * pair_braces(P, Q),
                  "{P|eps, Q|eps} != (-1)^(w+1) {P, Q}")
            gg = _random_word(rnd)
            check(pair_induced(P.slash(gg), Q.slash(gg)) == pair_induced(P, Q),
                  "<<P|g, Q|g>> != <<P, Q>>")


def check_radical_and_duality():
    for (N, k) in ((2, 8), (5, 4), (6, 2)):
        space = build_coset_space(GAMMA0, N, k)
        w = k - 2
        W = build_W(space, w)
        C, D = build_coboundary_and_D(space, w)
        for i in range(C.dim):
            for j in range(W.dim):
                check(pair_braces(C.vector(i), W.vector(j)) == 0,
                      "C is not in the radical of {,} on W")
        gram = DenseMatrix(QQ, [[pair_braces(W.vector(i), W.vector(j))
                                 for j in range(W.dim)] for i in range(W.dim)])
        check(gram.rank() == W.dim - C.dim, "the radical of {,} on W is not C")
        Wt = build_W_extended(space, w)
        gram2 = DenseMatrix(QQ, [[pair_braces(Wt.vector(i), Wt.vector(j))
                                  for j in range(Wt.dim)] for i in range(Wt.dim)])
        check(gram2.rank() == Wt.dim, "{,} on Wtilde is degenerate")
        # duality closed form against every extended basis vector
        for fam, cvec in zip(_tail_families(space, w),
                             _coboundary_and_D_vectors(space, w)[0]):
            P = PolyVector.from_coords(space, w, cvec)
            for j in range(Wt.dim):
                Q = Wt.vector(j)
                rhs = -Fraction(6, space.index) * sum(
                    Fraction(a) * (-1) ** w * (w + 1) * b
                    for a, b in zip(fam, Q.tails))
                check(pair_braces(P, Q) == rhs, "duality closed form fails")


def check_hecke_defining_identity():
    for n in range(1, 13):
        el = solve_universal_hecke(n, n)
        ok, y = verify_hecke_property(el, n)
        check(ok, "solved T~_%d fails the defining identity" % n)
        delta = gre_mul(tn_infinity(n), ONE_MINUS_S) - gre_mul(ONE_MINUS_S, el)
        check(gre_mul(ONE_MINUS_T, y) == delta, "telescoping witness fails at n = %d" % n)


def check_orbit_criterion_soundness():
    rnd = random.Random(23)
    n = 3
    el = solve_universal_hecke(n, n)
    cands = [Mat2(1, 0, 0, 3), Mat2(3, 1, 0, 1), Mat2(1, 2, 1, 5)]
    for _ in range(5):
        y = GroupRingElement(n, {m: Fraction(rnd.randint(-3, 3)) for m in cands})
        delta = (gre_mul(tn_infinity(n), ONE_MINUS_S) - gre_mul(ONE_MINUS_S, el)
                 - gre_mul(ONE_MINUS_T, y))
        sums = {}
        for m, c in delta.coeffs.items():
            rep = torbit_canonical(m)
            sums[rep] = sums.get(rep, Fraction(0)) + c
        check(all(not v for v in sums.values()), "(1 - T) Y changes an orbit sum")


def check_kernel_certificates():
    for kind, N, k in ((GAMMA0, 37, 4), (GAMMA0, 12, 8), (GAMMA1, 11, 2)):
        space = build_coset_space(kind, N, k)
        for build, relations in ((build_W, _w_relation_rows),
                                 (build_W_extended, _wtilde_relation_rows)):
            sub, rows = build(space, k - 2), relations(space, k - 2)
            where = "%s on %s(%d), k = %d" % (build.__name__, kind, N, k)
            check(all(sum(v * col[c] for c, v in row.items()) == 0
                      for col in sub.basis.columns() for row in rows), "R B != 0 for " + where)
            check(sub.dim == sub.ambient - sparse_int_rank(rows),
                  "dim != ncols - rank R for " + where)


def check_hecke_adjointness():
    for name, build, N, k, n in (("W", build_W, 5, 4, 2), ("W", build_W, 5, 4, 3),
                                 ("W", build_W, 7, 4, 2), ("Wtilde", build_W_extended, 5, 4, 2)):
        vecs = build(build_coset_space(GAMMA0, N, k), k - 2).vectors()
        t = universal_hecke_element(n)
        sd, sv = delta_spec(GAMMA0, N, n), delta_vee_spec(GAMMA0, N, n)
        images = [hecke_action(P, t, sd) for P in vecs]
        vee_images = [hecke_action(Q, t, sv) for Q in vecs]
        for i, P in enumerate(vecs):
            for j, Q in enumerate(vecs):
                check(pair_braces(images[i], Q) == pair_braces(P, vee_images[j]),
                      "T~_%d is not adjoint to its vee on %s, level %d" % (n, name, N))


def check_hecke_stability_and_commutativity():
    space = build_coset_space(GAMMA0, 5, 4)
    W = build_W(space, 2)
    C, _ = build_coboundary_and_D(space, 2)
    Wt = build_W_extended(space, 2)
    t2 = universal_hecke_element(2)
    sd = delta_spec(GAMMA0, 5, 2)
    for v in W.vectors():
        check(W.contains(hecke_action(v, t2, sd)), "W is not stable under T~_2")
    for v in C.vectors():
        check(C.contains(hecke_action(v, t2, sd)), "C is not stable under T~_2")
    for v in Wt.vectors():
        check(Wt.contains(hecke_action(v, t2, sd)), "Wtilde is not stable under T~_2")
    mats = {n: hecke_matrix(W, universal_hecke_element(n), delta_spec(GAMMA0, 5, n))
            for n in (2, 3, 4, 5, 6)}
    for n in mats:
        for m in mats:
            if n < m and math.gcd(n, m) == 1:
                check(mats[n] * mats[m] == mats[m] * mats[n],
                      "T~_%d and T~_%d do not commute" % (n, m))


def check_level_one_multiplicativity():
    space = build_coset_space(GAMMA0, 1, 12)
    W = build_W(space, 10)
    ms = {n: hecke_matrix(W, universal_hecke_element(n), delta_spec(GAMMA0, 1, n))
          for n in (2, 3, 6)}
    check(ms[2] * ms[3] == ms[6], "T~_2 T~_3 != T~_6 at level 1")


def check_atkin_lehner_squares():
    space = build_coset_space(GAMMA0, 2, 8)
    W = build_W(space, 6)
    m = hecke_matrix(W, universal_hecke_element(2), theta_spec(GAMMA0, 2, 2))
    check(m * m == DenseMatrix.identity(QQ, W.dim).scaled(Fraction(2 ** 6)),
          "W_2^2 != 2^6 on Gamma0(2), k = 8")
    space6 = build_coset_space(GAMMA0, 6, 4)
    W6 = build_W(space6, 2)
    for n in (2, 3, 6):
        m = hecke_matrix(W6, universal_hecke_element(n), theta_spec(GAMMA0, 6, n))
        check(m * m == DenseMatrix.identity(QQ, W6.dim).scaled(Fraction(n ** 2)),
              "W_%d^2 != %d^2 on Gamma0(6), k = 4" % (n, n))


def check_eps_block_structure():
    space = build_coset_space(GAMMA0, 5, 4)
    W = build_W(space, 2)
    Wp, Wm = eps_split(W)
    t2 = universal_hecke_element(2)
    sd = delta_spec(GAMMA0, 5, 2)
    check(hecke_matrix(Wp, t2, sd).nrows + hecke_matrix(Wm, t2, sd).nrows == W.dim,
          "eps blocks of T~_2 do not fill W")


def _level5_data():
    space = build_coset_space(GAMMA0, 5, 4)
    W = build_W(space, 2)
    Wp, Wm = eps_split(W)
    Pp = common_eigen_polynomial(Wp, [(2, Fraction(-4))], parity="+")
    Pm = common_eigen_polynomial(Wm, [], parity="-")
    f = NewformData(5, 4, eta_product([(1, 4), (5, 4)], 200), 1)
    return space, f, Pp, Pm


def check_thirteen_congruence():
    space, f, Pp, Pm = _level5_data()
    w = 2
    # interior periods of P+ have numerators divisible by 13
    for l in range(space.size):
        for n in range(1, w):
            coeff = Pp.values[l][w - n]
            ratio = coeff * Fraction((-1) ** (w - n), math.comb(w, n))
            check(ratio.numerator % 13 == 0, "an interior period of P+ is not divisible by 13")
    eis = eisenstein_qexp(4, 1, 16)
    congruence_side = eis - eis.dilate(5)
    for n in range(1, 11):
        diff = f.qseries.coeff(n) - congruence_side.coeff(n)
        check(diff.denominator == 1 and diff.numerator % 13 == 0,
              "a_%d(f) is not congruent to the Eisenstein side mod 13" % n)


def check_eigenvalue_consistency():
    space, f, Pp, Pm = _level5_data()
    for n in range(1, 31):
        lam = manin_coefficient(Pp, universal_hecke_element(n),
                                delta_spec(GAMMA0, 5, n), n)
        check(lam == f.qseries.coeff(n), "recovered eigenvalue at n = %d is wrong" % n)


def check_lvalue_truncation():
    for f in (NewformData(5, 4, eta_product([(1, 4), (5, 4)], 400), 1),
              NewformData(2, 8, eta_product([(1, 8), (2, 8)], 400), 1)):
        for s in range(1, f.weight):
            half = completed_lvalue(f, s, 50)
            full = completed_lvalue(f, s, 100)
            check(abs(full.value - half.value) <= half.err,
                  "Lambda(%d) moves past its error bound when terms double" % s)


def check_omega_parity_and_haberland_consistency():
    space, f, Pp, Pm = _level5_data()
    op, om = period_and_omega(f)
    k = f.weight
    # real coefficients: omega+ in i^(k+1) R, omega- in i^k R
    check(abs((op.value / (1j) ** (k + 1)).imag) < 1e-9 * abs(op.value),
          "omega+ is not in i^(k+1) R")
    check(abs((om.value / (1j) ** k).imag) < 1e-9 * abs(om.value), "omega- is not in i^k R")
    # 6 C_k (f,f) from the full pairing = 2 x refined value
    G = pair_braces(Pp, Pm)
    full = (op.value * om.value.conjugate() - om.value * op.value.conjugate()) \
        * complex(G) / (6 * haberland_constant(k))
    refined, _ = petersson_product(f, f, (Pp, Pm), (Pp, Pm))
    check(abs(full - refined) < 1e-12, "full and refined Haberland values differ")


def check_gamma02_suite():
    check(gamma02.fy_generator_periods(8, 1)[0] == Fraction(-8, 51),
          "Fukuhara-Yang period at k = 8 is not -8/51")
    for k in (4, 8, 12):
        check(gamma02.principal_space(k - 2).ncols ==
              build_W(build_coset_space(GAMMA0, 2, k), k - 2).dim,
              "principal space and W disagree in dimension at k = %d" % k)
    f = NewformData(2, 8, eta_product([(1, 8), (2, 8)], 200), 1)
    rep = gamma02.extra_relations_check(f)
    check(all(r["rel_residual"] < 1e-6 for r in rep["relations"]),
          "an extra Gamma0(2) relation fails")
    check(rep["petersson_residual"] < 1e-10, "reduced and full Petersson norms differ")
    # reduced pairing vs full model on opposite-parity basis pairs
    space = build_coset_space(GAMMA0, 2, 8)
    W = build_W(space, 6)
    Wp, Wm = eps_split(W)
    idl = space.identity_label
    for i in range(Wp.dim):
        for j in range(Wm.dim):
            P, Q = Wp.vector(i), Wm.vector(j)
            check(gamma02.reduced_pairing(P.values[idl], Q.values[idl], 6) ==
                  pair_braces(P, Q), "reduced pairing differs from the full model")


def check_gamma06_demo():
    rep = eisenstein_period_demo("gamma06")
    check(rep["additivity_exact"], "Gamma0(6) Eisenstein additivity is not exact")
    check(rep["additivity_residual"] < 1e-10, "Gamma0(6) additivity residual too large")
    check(rep["d1_residual"] < 1e-10, "d_1 residual too large")
    check(rep["d9_matches_ln3_minus_ln2"], "d_9 != ln 3 - ln 2")


def check_cminus_classification():
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
    for N in range(1, 61):
        check(cminus_trivial(N) == rule(N), "C^- rule fails at N = %d" % N)


def check_chi_components():
    import warnings
    space = build_coset_space(GAMMA1, 5, 4)
    W = build_W(space, 2)
    total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # odd characters contribute zero
        for ch in dirichlet_characters(5):
            comp = chi_component(W, ch)
            conj = chi_component(W, ch.conjugate())
            check(comp.dim == conj.dim, "chi and its conjugate give different dimensions")
            total += comp.dim
            if ch.is_trivial():
                check(comp.dim == build_W(build_coset_space(GAMMA0, 5, 4), 2).dim,
                      "trivial chi-part differs from W over Gamma0(5)")
    check(total == W.dim, "chi-components do not add up to W")


CHECKS = [
    ("exactalg.kernels", check_exactalg_kernels),
    ("exactalg.cyclotomic", check_exactalg_cyclotomic),
    ("exactalg.bernoulli", check_bernoulli),
    ("cosets.group_action", check_coset_group_action),
    ("cosets.cusp_counts", check_cusp_counts),
    ("polyspace.pairings", check_pairing_identities),
    ("polyspace.radical_duality", check_radical_and_duality),
    ("polyspace.cminus_rule", check_cminus_classification),
    ("polyspace.chi_components", check_chi_components),
    ("polyspace.kernel_certificates", check_kernel_certificates),
    ("hecke.defining_identity", check_hecke_defining_identity),
    ("hecke.orbit_criterion", check_orbit_criterion_soundness),
    ("hecke.adjointness", check_hecke_adjointness),
    ("hecke.stability_commutativity", check_hecke_stability_and_commutativity),
    ("hecke.level_one_multiplicativity", check_level_one_multiplicativity),
    ("hecke.atkin_lehner_squares", check_atkin_lehner_squares),
    ("hecke.eps_blocks", check_eps_block_structure),
    ("analytic.thirteen_congruence", check_thirteen_congruence),
    ("analytic.eigenvalues", check_eigenvalue_consistency),
    ("analytic.lvalue_truncation", check_lvalue_truncation),
    ("analytic.omega_haberland", check_omega_parity_and_haberland_consistency),
    ("gamma02.suite", check_gamma02_suite),
    ("analytic.gamma06_demo", check_gamma06_demo),
]


def run_all(names=None, out=None) -> int:
    """Run the invariant suites; returns the number of failures."""
    import sys
    out = out or sys.stdout
    failures = 0
    for name, fn in CHECKS:
        if names and not any(s in name for s in names):
            continue
        try:
            fn()
        except Exception as exc:  # report and continue
            failures += 1
            out.write("FAIL %s: %s\n" % (name, exc))
        else:
            out.write("PASS %s\n" % name)
    return failures
