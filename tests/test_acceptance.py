"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints its own PASS/FAIL line (visible regardless of pytest's
capture settings), so the module doubles as a checklist.  A criterion that
a ``verify`` check states on the same or a wider grid lives there only and
runs as tests/test_verify.py::test_check[<check name>]: 05 is
analytic.thirteen_congruence, 08 polyspace.radical_duality, 09 the hecke
checks, 11 gamma02.suite.  The traces of 10 are tests/test_hecke.py::
TestMatrices and its Atkin-Lehner square hecke.atkin_lehner_squares.  No
check states what stays here: the paper's table and numbers with their
timings, n = 101, the dimensions, the C^- rule up to N = 200 and the
full-level Eisenstein demo.
"""

import sys
import time
from fractions import Fraction

from periodpoly.cosets import GAMMA0, GAMMA1, build_coset_space, cusp_classes
from periodpoly.polyspace import (build_W_extended, build_coboundary_and_D, cminus_trivial,
                                  w_dimensions)
from periodpoly.hecke import common_eigen_polynomial, universal_hecke_element
from periodpoly.analytic import (eisenstein_period_demo, eta_product, manin_coefficient,
                                 period_and_omega, petersson_product)
from periodpoly.verifysuite import cminus_rule

from p1_reference import p1_normalize


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


def test_criterion_04_eigenvalue_recovery(level5_eigenpolys):
    # n <= 30 is the verify check analytic.eigenvalues
    Pp, _ = level5_eigenpolys
    oracle = eta_product([(1, 4), (5, 4)], 101)
    t0 = time.monotonic()
    lam101 = manin_coefficient(Pp, universal_hecke_element(101))
    elapsed = time.monotonic() - t0
    ok = lam101 == oracle.coeff(101) and elapsed < 5.0
    report(4, ok, "manin coefficient exact for n = 101 "
           "(lambda_101 = %s in %.2fs)" % (lam101, elapsed))


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


def test_criterion_12_eisenstein_demos():
    # the Gamma0(6) demo is the verify check analytic.gamma06_demo
    full = eisenstein_period_demo("fulllevel:12")
    report(12, full["residual"] < 1e-8,
           "full-level k=12 membership residual %.2e" % full["residual"])
