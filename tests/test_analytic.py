import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly.cosets import GAMMA0, build_coset_space
from periodpoly.polyspace import build_W, eps_split
from periodpoly.hecke import universal_hecke_element
from periodpoly.analytic import (AnalyticError, LogSymbol, NewformData,
                                 QSeries, completed_lvalue,
                                 eisenstein_period_demo, eisenstein_qexp,
                                 eta_product, incomplete_gamma, log_of_rational,
                                 lvalue_at_one, manin_coefficient,
                                 period_and_omega, petersson_product,
                                 zeta_negative_odd, zeta_numeric,
                                 zeta_prime_negative_even)


def fricke_sign_report(f: NewformData, terms: int = 100) -> dict:
    """Consistency data for the supplied sign: centre value and stability."""
    k = f.weight
    centre = None
    if k % 2 == 0:
        centre = completed_lvalue(f, k // 2, terms)
    half = completed_lvalue(f, max(1, k // 2 - 1), terms)
    full = completed_lvalue(f, max(1, k // 2 - 1), min(2 * terms, f.qseries.order))
    return {
        "sign": f.fricke_sign,
        "centre_forced_zero": (k % 2 == 0) and ((1j) ** k * f.fricke_sign == -1),
        "centre_value": None if centre is None else centre.value,
        "doubling_change": abs(full.value - half.value),
        "error_estimate": half.err,
        "stable": abs(full.value - half.value) <= half.err,
    }


def brute_eta24_coeffs(order):
    """Independent expansion of prod (1-q^n)^24 by repeated polynomial mult."""
    poly = [1] + [0] * order
    for n in range(1, order + 1):
        # multiply by (1 - q^n)^24 term by term
        factor = [0] * (order + 1)
        for i in range(0, order // n + 1):
            factor[i * n] = math.comb(24, i) * (-1) ** i if i <= 24 else 0
        out = [0] * (order + 1)
        for i, a in enumerate(poly):
            if a:
                for j, b in enumerate(factor):
                    if b and i + j <= order:
                        out[i + j] += a * b
        poly = out
    return poly


def series_product(x, y):
    """The product of two truncated q-series, to the lesser order."""
    n = min(x.order, y.order)
    out = [x.a0 * y.coeffs[m - 1] + y.a0 * x.coeffs[m - 1]
           + sum(x.coeffs[i - 1] * y.coeffs[m - i - 1] for i in range(1, m)
                 if x.coeffs[i - 1])
           for m in range(1, n + 1)]
    return QSeries(x.a0 * y.a0, out)


def reference_eta_product(factors, order):
    """q^(sum t r / 24) prod_n (1 - q^(t n))^r by binary powering of QSeries."""
    total = sum(Fraction(t * r, 24) for t, r in factors)
    assert total.denominator == 1 and total > 0
    offset = int(total)
    prod = QSeries(1, [Fraction(0)] * order)
    for t, r in factors:
        factor = _reference_unit_power(_reference_pentagonal(order).dilate(t), r)
        prod = series_product(prod, factor)
    out = [Fraction(0)] * order
    if offset <= order:
        out[offset - 1] = prod.a0
        for m in range(1, order - offset + 1):
            out[offset + m - 1] = prod.coeffs[m - 1]
    return QSeries(0, out)


def _reference_unit_power(series, r):
    n = series.order
    if r < 0:
        inv = [Fraction(0)] * n
        for m in range(1, n + 1):
            acc = -series.coeffs[m - 1]
            for i in range(1, m):
                acc -= series.coeffs[i - 1] * inv[m - i - 1]
            inv[m - 1] = acc
        return _reference_unit_power(QSeries(1, inv), -r)
    out = QSeries(1, [Fraction(0)] * n)
    base, e = series, r
    while e:
        if e & 1:
            out = series_product(out, base)
        e >>= 1
        if e:
            base = series_product(base, base)
    return out


def _reference_pentagonal(order):
    out = [Fraction(0)] * order
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= order:
                out[e - 1] += (-1) ** j
        j += 1
    return QSeries(1, out)


@st.composite
def eta_factor_lists(draw):
    """Factor lists with an integral positive leading exponent."""
    factors = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(-8, 12)),
                            max_size=4))
    s = sum(t * r for t, r in factors)
    r0 = (-s) % 24 if s > 0 else 24 - s
    factors.insert(draw(st.integers(0, len(factors))), (1, r0))
    return factors


class TestQSeries:
    def test_truncation_is_strict(self):
        s = QSeries(0, [1, 2, 3])
        assert s.coeff(3) == 3
        with pytest.raises(AnalyticError):
            s.coeff(4)

    def test_arithmetic(self):
        a = QSeries(1, [1, 0, 2])
        b = QSeries(0, [0, 1, 1])
        assert (a + b).coeffs == (Fraction(1), Fraction(1), Fraction(3))
        assert (a - b).a0 == 1
        prod = series_product(a, b)
        # (1 + q + 2q^3)(q^2 + q^3): q^2 coeff = 1, q^3 coeff = 1 + 1
        assert prod.coeff(2) == 1 and prod.coeff(3) == 2

    def test_dilate(self):
        s = QSeries(5, [1, 2, 3, 4, 5, 6])
        d = s.dilate(2)
        assert d.a0 == 5
        assert [d.coeff(m) for m in range(1, 7)] == [0, 1, 0, 2, 0, 3]


class TestEtaProduct:
    def test_level5_newform(self):
        f = eta_product([(1, 4), (5, 4)], 5)
        assert [f.coeff(m) for m in range(1, 6)] == [1, -4, 2, 8, -5]

    def test_discriminant_start(self):
        f = eta_product([(1, 24)], 2)
        assert f.coeff(1) == 1 and f.coeff(2) == -24

    def test_level2_form(self):
        f = eta_product([(1, 8), (2, 8)], 2)
        assert f.coeff(1) == 1 and f.coeff(2) == -8

    def test_against_brute_force(self):
        order = 12
        f = eta_product([(1, 24)], order)
        brute = brute_eta24_coeffs(order - 1)
        for m in range(1, order + 1):
            assert f.coeff(m) == brute[m - 1]

    def test_fractional_exponent_rejected(self):
        with pytest.raises(AnalyticError):
            eta_product([(1, 1)], 5)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(AnalyticError):
            eta_product([(1, -24)], 5)

    def test_multiplier_and_order_rejected(self):
        with pytest.raises(AnalyticError):
            eta_product([(0, 24), (1, 24)], 5)
        with pytest.raises(AnalyticError):
            eta_product([(1, 24)], 0)

    @pytest.mark.parametrize("N,k", [(1, 12), (2, 8), (3, 6), (5, 4), (11, 2)])
    def test_eigen_sweep_forms_match_reference(self, N, k):
        # eta(z)^k eta(Nz)^k; N = 2 is also the Gamma0(2) weight-8 form
        factors = [(1, k), (N, k)]
        f, ref = eta_product(factors, 1000), reference_eta_product(factors, 1000)
        assert (f.a0, f.coeffs, f.order) == (ref.a0, ref.coeffs, ref.order)

    def test_quotient_matches_reference(self):
        # eta(2z)^24 / eta(z)^24 goes through the division path
        factors = [(2, 24), (1, -24)]
        f, ref = eta_product(factors, 200), reference_eta_product(factors, 200)
        assert f.coeffs == ref.coeffs and f.coeff(1) == 1 and f.coeff(2) == 24

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(eta_factor_lists(), st.integers(1, 150))
    def test_random_factor_lists_match_reference(self, factors, order):
        f, ref = eta_product(factors, order), reference_eta_product(factors, order)
        assert (f.a0, f.coeffs, f.order) == (ref.a0, ref.coeffs, ref.order)


class TestEisenstein:
    def test_k2_t6(self):
        e = eisenstein_qexp(2, 6, 8)
        assert e.a0 == Fraction(5, 24)
        assert e.coeff(1) == 1

    def test_plain_e4(self):
        e = eisenstein_qexp(4, 1, 8)
        assert e.coeff(2) == 9
        assert e.a0 == Fraction(1, 240)

    def test_k2_t2(self):
        e = eisenstein_qexp(2, 2, 8)
        assert e.coeff(2) == 1  # sigma_1(2) - 2 sigma_1(1)

    def test_odd_weight_rejected(self):
        with pytest.raises(AnalyticError):
            eisenstein_qexp(3, 1)


class TestIncompleteGamma:
    def test_base_case(self):
        for x in (0.3, 1.0, 7.5):
            assert abs(incomplete_gamma(1, x) - math.exp(-x)) < 1e-15

    def test_two_recurrence_steps(self):
        assert abs(incomplete_gamma(3, 1.0) - 5 / math.e) < 1e-12

    def test_small_x_limit(self):
        assert abs(incomplete_gamma(2, 1e-8) - 1.0) < 1e-7

    def test_invalid_args(self):
        with pytest.raises(AnalyticError):
            incomplete_gamma(0, 1.0)
        with pytest.raises(AnalyticError):
            incomplete_gamma(2, 0.0)


class TestCompletedLValue:
    def test_paper_values(self, level5_form):
        assert abs(completed_lvalue(level5_form, 3).value - 0.0051365773) < 1e-8
        assert abs(completed_lvalue(level5_form, 2).value - 0.0104325693) < 1e-8

    def test_doubling_within_error(self, level5_form, level2_form):
        for f in (level5_form, level2_form):
            for s in range(1, f.weight):
                a = completed_lvalue(f, s, 50)
                b = completed_lvalue(f, s, 100)
                assert abs(b.value - a.value) <= a.err

    def test_range_validation(self, level5_form):
        with pytest.raises(AnalyticError):
            completed_lvalue(level5_form, 0)
        with pytest.raises(AnalyticError):
            completed_lvalue(level5_form, 4)

    def test_noncuspidal_rejected(self):
        f = NewformData(1, 4, eisenstein_qexp(4, 1, 20), 1)
        with pytest.raises(AnalyticError):
            completed_lvalue(f, 2)

    def test_fricke_report(self, level5_form):
        rep = fricke_sign_report(level5_form)
        assert rep["stable"]
        assert not rep["centre_forced_zero"]  # i^4 * (+1) = +1


class TestPeriods:
    def test_omegas(self, level5_form):
        op, om = period_and_omega(level5_form)
        assert abs(op.value - (-0.0051365773j)) < 1e-7
        assert abs(om.value - 0.0208651386) < 1e-7

    def test_parity_of_omegas(self, level5_form, level2_form):
        for f in (level5_form, level2_form):
            k = f.weight
            op, om = period_and_omega(f)
            assert abs((op.value / (1j) ** (k + 1)).imag) < 1e-9 * abs(op.value)
            assert abs((om.value / (1j) ** k).imag) < 1e-9 * abs(om.value)


class TestPetersson:
    def test_paper_norm(self, level5_form, level5_eigenpolys):
        val, per_kappa = petersson_product(level5_form, level5_form,
                                           level5_eigenpolys, level5_eigenpolys)
        assert abs(val - 0.00014513335) < 1e-9
        vals = list(per_kappa.values())
        assert abs(vals[0] - vals[1]) < 1e-10

    def test_unconjugated_pairing_vanishes(self, level5_form, level5_eigenpolys):
        from periodpoly.polyspace import pair_braces
        Pp, Pm = level5_eigenpolys
        op, om = period_and_omega(level5_form)
        total = (op.value * om.value * complex(pair_braces(Pp, Pm))
                 + om.value * op.value * complex(pair_braces(Pm, Pp)))
        assert abs(total) < 1e-9
        assert pair_braces(Pp, Pp) == 0  # same parity, even weight


class TestManin:
    def test_lambda_1(self, level5_eigenpolys):
        Pp, _ = level5_eigenpolys
        t1 = universal_hecke_element(1)
        assert manin_coefficient(Pp, t1) == 1

    def test_small_eigenvalues(self, level5_form, level5_eigenpolys):
        Pp, _ = level5_eigenpolys
        for n in (2, 3, 5):
            lam = manin_coefficient(Pp, universal_hecke_element(n))
            assert lam == level5_form.qseries.coeff(n)

    def test_all_n_up_to_30(self, level5_form, level5_eigenpolys):
        Pp, _ = level5_eigenpolys
        for n in range(1, 31):
            lam = manin_coefficient(Pp, universal_hecke_element(n))
            assert lam == level5_form.qseries.coeff(n)

    def test_unnormalized_rejected(self, level5_eigenpolys):
        Pp, _ = level5_eigenpolys
        with pytest.raises(AnalyticError):
            manin_coefficient(Pp.scale(2), universal_hecke_element(2))


class TestCongruences:
    def test_thirteen_divides_interior_periods(self, space5, level5_eigenpolys):
        Pp, _ = level5_eigenpolys
        w = 2
        for l in range(space5.size):
            for n in range(1, w):
                coeff = Pp.values[l][w - n]
                ratio = coeff * Fraction((-1) ** (w - n), math.comb(w, n))
                assert ratio.denominator in (1, 2)
                assert ratio.numerator % 13 == 0

    def test_eisenstein_congruence(self, level5_form):
        e4 = eisenstein_qexp(4, 1, 12)
        side = e4 - e4.dilate(5)
        for n in range(1, 11):
            diff = level5_form.qseries.coeff(n) - side.coeff(n)
            assert diff.denominator == 1
            assert diff.numerator % 13 == 0


class TestZeta:
    def test_even_values(self):
        assert abs(zeta_numeric(2) - math.pi ** 2 / 6) < 1e-13
        assert abs(zeta_numeric(4) - math.pi ** 4 / 90) < 1e-13

    def test_apery(self):
        assert abs(zeta_numeric(3) - 1.2020569031595942854) < 1e-13

    def test_negative_odd(self):
        assert zeta_negative_odd(1) == Fraction(-1, 12)
        assert zeta_negative_odd(2) == Fraction(1, 120)

    def test_zeta_prime(self):
        assert abs(zeta_prime_negative_even(1)
                   - (-zeta_numeric(3) / (4 * math.pi ** 2))) < 1e-16


class TestLogSymbols:
    def test_log_of_rational(self):
        assert log_of_rational(Fraction(3, 2)) == LogSymbol(-1, 1)
        assert log_of_rational(Fraction(6)) == LogSymbol(1, 1)
        with pytest.raises(AnalyticError):
            log_of_rational(Fraction(5))

    def test_limit_rule(self):
        assert lvalue_at_one([(1, 1), (-1, 2)]) == LogSymbol(1, 0)
        with pytest.raises(AnalyticError):
            lvalue_at_one([(1, 1), (1, 2)])  # coefficients must cancel


class TestDemos:
    def test_gamma06_cusp_partition(self):
        # the cusp classes in the paper's representative indexing:
        # {A1}, {A9, A12}, {A6, A7, A11}, the remaining six
        from periodpoly.analytic import gamma06_coset_list
        from periodpoly.cosets import cusp_classes
        space = build_coset_space(GAMMA0, 6, 2)
        reps = gamma06_coset_list()
        pos = {space.label_of_row(A.c, A.d)[0]: j + 1 for j, A in enumerate(reps)}
        parts = {frozenset(pos[l] for l in cl.labels)
                 for cl in cusp_classes(space).classes}
        assert parts == {frozenset({1}), frozenset({9, 12}),
                         frozenset({6, 7, 11}),
                         frozenset({2, 3, 4, 5, 8, 10})}

    def test_gamma06(self):
        rep = eisenstein_period_demo("gamma06")
        assert rep["sigma"] == [3, 4, 1, 2, 7, 10, 5, 12, 11, 6, 9, 8]
        assert rep["tau"] == [1, 4, 3, 2, 10, 7, 6, 8, 9, 5, 11, 12]
        assert rep["d9_matches_ln3_minus_ln2"]
        assert rep["additivity_exact"]
        assert rep["additivity_residual"] < 1e-10
        assert rep["d1_residual"] < 1e-10
        # decomposition rho+(E_2^6) = C(P1 ln6 + P2 ln3 + P3 ln2)
        c6 = rep["coefficients"][6]
        assert c6 == [LogSymbol(1, 1), LogSymbol(0, 1), LogSymbol(1, 0)]

    def test_fulllevel(self):
        rep = eisenstein_period_demo("fulllevel:12")
        assert rep["dim_wtilde"] == 4
        assert rep["residual"] < 1e-8

    @pytest.mark.parametrize("k", range(4, 22, 2))
    def test_fulllevel_residual_read_at_the_pivot_rows(self, k):
        # E_k's vector against the member of Wtilde that agrees with it at
        # Wtilde's pivot rows; the vector norms run from 2e-3 to 6 here
        rep = eisenstein_period_demo("fulllevel:%d" % k)
        assert rep["dim_wtilde"] >= 2 and rep["residual"] < 1e-12

    def test_unknown_case(self):
        with pytest.raises(AnalyticError):
            eisenstein_period_demo("nonsense")


class TestNewformFile:
    def test_round_trip_bit_exact(self, tmp_path, level5_form):
        doc = level5_form.to_json()
        text = json.dumps(doc, sort_keys=True, indent=2)
        back = NewformData.from_json(json.loads(text))
        assert json.dumps(back.to_json(), sort_keys=True, indent=2) == text
        assert back.qseries.coeffs == level5_form.qseries.coeffs

    def test_malformed_rejected(self):
        with pytest.raises(AnalyticError):
            NewformData.from_json({"level": 5})

    def test_bad_sign_rejected(self):
        with pytest.raises(AnalyticError):
            NewformData(5, 4, QSeries(0, [1]), 2)

    def test_quadratic_character_round_trip(self):
        from periodpoly.cosets import dirichlet_characters
        quad = next(ch for ch in dirichlet_characters(5) if ch.order == 2)
        f = NewformData(5, 3, QSeries(0, [Fraction(1), Fraction(-1)]), 1, quad)
        doc = f.to_json()
        assert doc["character"]["modulus"] == 5
        back = NewformData.from_json(doc)
        assert back.character is not None
        for a in (1, 2, 3, 4):
            assert back.character(a) == quad(a)

    def test_nonreal_character_not_stored(self):
        from periodpoly.cosets import dirichlet_characters
        quartic = next(ch for ch in dirichlet_characters(5) if ch.order == 4)
        f = NewformData(5, 3, QSeries(0, [Fraction(1), Fraction(-1)]), 1, quartic)
        with pytest.raises(AnalyticError):
            f.to_json()
