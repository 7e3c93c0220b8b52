"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints its own PASS/FAIL line (visible regardless of pytest's
capture settings), so the module doubles as a checklist.
"""

import json
import math
import os
import sys
import time
from fractions import Fraction

import pytest

from periodpoly.exactalg import DenseMatrix, QQ
from periodpoly.cosets import (GAMMA0, GAMMA1, MAT_S, build_coset_space,
                               cusp_classes, p1_normalize)
from periodpoly.polyspace import (PolyVector, build_W, build_W_extended,
                                  build_coboundary_and_D, cminus_trivial,
                                  eps_split, pair_braces, w_dimensions,
                                  wtilde_dimension, _tail_families)
from periodpoly.hecke import (common_eigen_polynomial, delta_spec,
                              delta_vee_spec, hecke_action, hecke_matrix,
                              solve_universal_hecke, theta_spec,
                              universal_hecke_element, verify_hecke_property)
from periodpoly.analytic import (NewformData, completed_lvalue,
                                 eisenstein_period_demo, eisenstein_qexp,
                                 eta_product, manin_coefficient,
                                 period_and_omega, petersson_product)
from periodpoly import gamma02
from periodpoly.verifysuite import cminus_rule


def report(num, ok, text):
    line = "ACCEPTANCE %2d: %s — %s" % (num, "PASS" if ok else "FAIL", text)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


PAPER_TABLE_PLUS = {(0, 1): (1, 0, -5), (1, 1): (5, 0, -5), (1, 3): (-8, 13, 8),
                    (1, 2): (-8, -13, 8), (1, 4): (5, 0, -5), (1, 0): (5, 0, -1)}
PAPER_TABLE_MINUS = {(0, 1): (0, 1, 0), (1, 1): (1, 2, 1), (1, 3): (-2, -3, 2),
                     (1, 2): (2, -3, -2), (1, 4): (-1, 2, -1), (1, 0): (0, 1, 0)}


def test_criterion_01_table_reproduction(space5, w5_split, level5_eigenpolys):
    t0 = time.monotonic()
    plus, minus = w5_split
    Pp = common_eigen_polynomial(plus, [(2, Fraction(-4))], parity="+")
    Pm = common_eigen_polynomial(minus, [], parity="-")
    elapsed = time.monotonic() - t0
    ok = True
    for row, exp in PAPER_TABLE_PLUS.items():
        lab = space5._label_pos[p1_normalize(5, *row)]
        ok &= Pp.values[lab] == tuple(Fraction(e) for e in exp)
    for row, exp in PAPER_TABLE_MINUS.items():
        lab = space5._label_pos[p1_normalize(5, *row)]
        ok &= Pm.values[lab] == tuple(Fraction(e) for e in exp)
    ok &= elapsed < 5.0
    report(1, ok, "Gamma0(5) k=4 table exact (12 entries, %.2fs)" % elapsed)


def test_criterion_02_periods(level5_form):
    op, om = period_and_omega(level5_form, terms=200)
    ok = (abs(op.value - (-0.0051365773j)) < 1e-7
          and abs(om.value - 0.0208651386) < 1e-7)
    report(2, ok, "omega+ = %s, omega- = %s (tol 1e-7, <=200 terms)"
           % (op.value, om.value))


def test_criterion_03_petersson(level5_form, level5_eigenpolys):
    val, per_kappa = petersson_product(level5_form, level5_form,
                                       level5_eigenpolys, level5_eigenpolys)
    vals = list(per_kappa.values())
    ok = (abs(val - 0.00014513335) < 1e-9 and abs(vals[0] - vals[1]) < 1e-10)
    report(3, ok, "(f,f) = %s (tol 1e-9; kappa agreement 1e-10)" % val)


def test_criterion_04_eigenvalue_recovery(level5_form, level5_eigenpolys):
    Pp, _ = level5_eigenpolys
    ok = True
    for n in range(1, 31):
        lam = manin_coefficient(Pp, universal_hecke_element(n),
                                delta_spec(GAMMA0, 5, n), n)
        ok &= lam == level5_form.qseries.coeff(n)
    oracle = eta_product([(1, 4), (5, 4)], 101)
    t0 = time.monotonic()
    lam101 = manin_coefficient(Pp, universal_hecke_element(101),
                               delta_spec(GAMMA0, 5, 101), 101)
    elapsed = time.monotonic() - t0
    ok &= lam101 == oracle.coeff(101) and elapsed < 5.0
    report(4, ok, "manin coefficients exact for n <= 30 and n = 101 "
           "(lambda_101 = %s in %.2fs)" % (lam101, elapsed))


def test_criterion_05_congruences(space5, level5_form, level5_eigenpolys):
    Pp, _ = level5_eigenpolys
    w = 2
    ok = True
    for l in range(space5.size):
        for n in range(1, w):
            ratio = Pp.values[l][w - n] * Fraction((-1) ** (w - n), math.comb(w, n))
            ok &= ratio.numerator % 13 == 0
    e4 = eisenstein_qexp(4, 1, 12)
    side = e4 - e4.dilate(5)
    for n in range(1, 11):
        diff = level5_form.qseries.coeff(n) - side.coeff(n)
        ok &= diff.denominator == 1 and diff.numerator % 13 == 0
    report(5, ok, "13-divisibility of interior period ratios and "
           "a_n = a_n(E4 - E4(5z)) mod 13 for n <= 10, exact")


def test_criterion_06_dimensions():
    t0 = time.monotonic()
    sp100 = build_coset_space(GAMMA0, 100, 6)
    dims = w_dimensions(sp100, 4)
    C100, _ = build_coboundary_and_D(sp100, 4)
    elapsed = time.monotonic() - t0
    ok = (dims == (150, 78, 72) and sp100.size == 180
          and (dims[0] - C100.dim) // 2 == 66 and elapsed < 600)
    for N in range(1, 31):
        for k in (2, 3, 4, 8):
            kind = GAMMA1 if k % 2 else GAMMA0
            sp = build_coset_space(kind, N, k)
            C, D = build_coboundary_and_D(sp, k - 2)
            if sp.degenerate:
                ok &= C.dim == 0
                continue
            cs = cusp_classes(sp)
            e = len(cs)
            e_reg = sum(1 for c in cs.classes if c.regular)
            expected = e - 1 if k == 2 else (e if k % 2 == 0 else e_reg)
            ok &= C.dim == expected
            ok &= D.dim == (e if k % 2 == 0 else e_reg)
    for (N, k, dim_m) in ((1, 12, 2), (5, 4, 3), (6, 2, 3)):
        sp = build_coset_space(GAMMA0, N, k)
        ok &= build_W_extended(sp, k - 2).dim == 2 * dim_m
    report(6, ok, "Gamma0(100) k=6 gives 78/72/66/180 in %.1fs; "
           "C-dimension lemma for N <= 30, k in {2,3,4,8}; "
           "dim Wtilde = 2 dim M_k at three points" % elapsed)


def test_criterion_07_cminus_classification():
    ok = all(cminus_trivial(N) == cminus_rule(N) for N in range(1, 201))
    report(7, ok, "(C_w)^- triviality matches N = 2^e N' rule for N <= 200")


def test_criterion_08_pairing_structure():
    ok = True
    for (N, k) in ((2, 8), (5, 4), (6, 2)):
        sp = build_coset_space(GAMMA0, N, k)
        w = k - 2
        W = build_W(sp, w)
        C, _ = build_coboundary_and_D(sp, w)
        Wt = build_W_extended(sp, w)
        for i in range(C.dim):
            for j in range(W.dim):
                ok &= pair_braces(C.vector(i), W.vector(j)) == 0
        gram = DenseMatrix(QQ, [[pair_braces(W.vector(i), W.vector(j))
                                 for j in range(W.dim)] for i in range(W.dim)])
        ok &= gram.rank() == W.dim - C.dim
        gram2 = DenseMatrix(QQ, [[pair_braces(Wt.vector(i), Wt.vector(j))
                                  for j in range(Wt.dim)] for i in range(Wt.dim)])
        ok &= gram2.rank() == Wt.dim
        for fam in _tail_families(sp, w):
            fam = [fam.get(l, 0) for l in range(sp.size)]
            vals = []
            for l in range(sp.size):
                l1, _ = sp.act(l, MAT_S.inverse())
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
                ok &= pair_braces(P, Q) == rhs
    report(8, ok, "C perp W, Gram ranks, Wtilde nondegeneracy and the exact "
           "duality closed form at (2,8), (5,4), (6,2)")


def test_criterion_09_hecke_identities(w5_split):
    ok = True
    for n in range(1, 13):
        el = solve_universal_hecke(n, n)
        ok &= verify_hecke_property(el, n)[0]
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
                ok &= pair_braces(images[i], vecs[j]) == \
                    pair_braces(vecs[i], vee_images[j])
    sp5 = build_coset_space(GAMMA0, 5, 4)
    Wt5 = build_W_extended(sp5, 2)
    t2 = universal_hecke_element(2)
    sd, sv = delta_spec(GAMMA0, 5, 2), delta_vee_spec(GAMMA0, 5, 2)
    vecs = Wt5.vectors()
    images = [hecke_action(P, t2, sd) for P in vecs]
    vee_images = [hecke_action(Q, t2, sv) for Q in vecs]
    for i in range(Wt5.dim):
        for j in range(Wt5.dim):
            ok &= pair_braces(images[i], vecs[j]) == \
                pair_braces(vecs[i], vee_images[j])
    W5 = build_W(sp5, 2)
    mats = {n: hecke_matrix(W5, universal_hecke_element(n), delta_spec(GAMMA0, 5, n))
            for n in (2, 3, 5, 6)}
    for n in mats:
        for m in mats:
            if n < m and math.gcd(n, m) == 1:
                ok &= mats[n] * mats[m] == mats[m] * mats[n]
    sp1 = build_coset_space(GAMMA0, 1, 12)
    W1 = build_W(sp1, 10)
    ms = {n: hecke_matrix(W1, universal_hecke_element(n), delta_spec(GAMMA0, 1, n))
          for n in (2, 3, 6)}
    ok &= ms[2] * ms[3] == ms[6]
    # invariance under independently solved elements
    plus, _ = w5_split
    a = common_eigen_polynomial(plus, [(2, Fraction(-4))], parity="+")
    b = common_eigen_polynomial(plus, [(2, Fraction(-4))], parity="+",
                                element_for=lambda p: solve_universal_hecke(p, p, variant=1))
    c = common_eigen_polynomial(plus, [(2, Fraction(-4))], parity="+",
                                element_for=lambda p: solve_universal_hecke(p, p))
    ok &= a.values == b.values == c.values
    report(9, ok, "defining identity n <= 12, adjointness on W and Wtilde, "
           "commutativity, multiplicativity, element-choice independence")


def test_criterion_10_traces():
    sp1 = build_coset_space(GAMMA0, 1, 12)
    W1 = build_W(sp1, 10)
    tr2 = hecke_matrix(W1, universal_hecke_element(2), delta_spec(GAMMA0, 1, 2)).trace()
    sp6 = build_coset_space(GAMMA0, 6, 2)
    W6 = build_W(sp6, 0)
    tr5 = hecke_matrix(W6, universal_hecke_element(5), delta_spec(GAMMA0, 6, 5)).trace()
    sp2 = build_coset_space(GAMMA0, 2, 8)
    W2 = build_W(sp2, 6)
    mth = hecke_matrix(W2, universal_hecke_element(2), theta_spec(GAMMA0, 2, 2))
    al_ok = mth * mth == DenseMatrix.identity(QQ, W2.dim).scaled(Fraction(2 ** 6))
    ok = tr2 == 2001 and tr5 == 18 and al_ok
    report(10, ok, "tr(W|T~2) = %s at level 1 k 12, tr(W|T~5) = %s at "
           "Gamma0(6) k 2, Atkin-Lehner square = 2^6 id" % (tr2, tr5))


def _data_file(name):
    return os.path.join(os.path.dirname(__file__), "data", name)


def test_criterion_11_gamma02_relations(level2_form):
    r0, _ = gamma02.fy_generator_periods(8, 1)
    ok = r0 == Fraction(-8, 51)
    rep = gamma02.extra_relations_check(level2_form)
    worst = max(r["rel_residual"] for r in rep["relations"])
    ok &= worst < 1e-6
    ok &= rep["petersson_residual"] < 1e-10
    extra = []
    for k in (10, 14):
        path = _data_file("newform_2_%d.json" % k)
        if os.path.exists(path):
            with open(path) as fh:
                f = NewformData.from_json(json.load(fh))
            repk = gamma02.extra_relations_check(f)
            ok &= max(r["rel_residual"] for r in repk["relations"]) < 1e-6
            extra.append(k)
    report(11, ok, "extra relations at k=8 (worst rel residual %.2e), "
           "(2/C_8) r_0(R_1) = -8/51 exact%s"
           % (worst, ", plus supplied k in %s" % extra if extra else ""))


def test_criterion_12_eisenstein_demos():
    rep = eisenstein_period_demo("gamma06")
    full = eisenstein_period_demo("fulllevel:12")
    ok = (rep["d1_residual"] < 1e-10 and rep["additivity_exact"]
          and rep["additivity_residual"] < 1e-10
          and rep["d9_matches_ln3_minus_ln2"]
          and full["residual"] < 1e-8)
    report(12, ok, "Gamma0(6) demo (d1 = C ln t, additivity, d9) and "
           "full-level k=12 membership residual %.2e" % full["residual"])
