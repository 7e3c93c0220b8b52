"""The Gamma0(2) specialization.

With coset representatives {I, U, U^2} the period relations express P(U)
and P(U^2) through the principal part P(I), which satisfies the single
relation P(I)|(ST - ST^(-1))(1+S) = 0.  On principal parts the Haberland
pairing collapses to <P(I)|(T - T^(-1)), Q(I)> for opposite-parity pairs,
and the generator periods have closed Bernoulli forms, which makes the
extra relations on even periods of cusp forms fully explicit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exactalg import DenseMatrix, PeriodPolyError, QQ, bernoulli, kernel_basis
from .cosets import MAT_S, MAT_T, MAT_TINV, MAT_U, MAT_U2, GAMMA0, build_coset_space
from .polyspace import (PolyVector, build_W, pair_vw,
                        pair_braces, slash_columns, slash_poly)
from .analytic import (NewformData, completed_lvalue, period_and_omega,
                       haberland_constant)
from .hecke import common_eigen_polynomial


class Gamma02Error(PeriodPolyError):
    pass


LEVEL2_WEIGHTS = (8, 10, 14)


def _space(k: int):
    return build_coset_space(GAMMA0, 2, k)


def principal_relation_matrix(w: int) -> DenseMatrix:
    """Matrix of p -> p|(ST - ST^(-1))(1 + S) on V_w."""
    cols = slash_columns([(MAT_S * MAT_T, 1), (MAT_S * MAT_TINV, -1),
                          (MAT_S * MAT_T * MAT_S, 1), (MAT_S * MAT_TINV * MAT_S, -1)], w)
    return DenseMatrix(QQ, [list(row) for row in zip(*cols)])


def principal_space(w: int) -> DenseMatrix:
    """Basis of U_w, the polynomials satisfying the principal relation."""
    return kernel_basis(principal_relation_matrix(w))


def to_principal(P: PolyVector) -> tuple:
    """Extract P(I) from an element of W_w^{Gamma0(2)}.

    Raises when the remaining components are not the ones reconstructed
    from the period relations.
    """
    space = P.space
    if space.N != 2 or space.kind != GAMMA0:
        raise Gamma02Error("principal parts are specific to Gamma0(2)")
    p = P.values[space.identity_label]
    if from_principal(p, P.w, space).values != P.values:
        raise Gamma02Error("vector violates the reconstruction identities")
    return p


def from_principal(p: Sequence, w: int, space=None) -> PolyVector:
    """Rebuild the full vector: P(U) = -P(I)|S, P(U^2) = -P(U)|U - P(I)|U^2."""
    if space is None:
        space = _space(w + 2)
    p = tuple(p)
    pU = tuple(-x for x in slash_poly(p, MAT_S, w))
    pU2 = tuple(-x - y for x, y in zip(slash_poly(pU, MAT_U, w),
                                       slash_poly(p, MAT_U2, w)))
    vals = [None] * 3
    vals[space.identity_label] = p
    vals[space.label_of_row(1, 0)[0]] = pU
    vals[space.label_of_row(1, 1)[0]] = pU2
    return PolyVector(space, w, vals)


def reduced_pairing(p: Sequence, q: Sequence, w: int):
    """<p|(T - T^(-1)), q> on principal parts.

    For opposite-parity elements of W this equals the full pairing {P, Q},
    so the refined Haberland formula reads
    3 C_k (f, g) = <P_f^+ | T - T^(-1), conj(P_g^-)>.
    """
    diff = [a - b for a, b in zip(slash_poly(tuple(p), MAT_T, w),
                                  slash_poly(tuple(p), MAT_TINV, w))]
    return pair_vw(diff, tuple(q), w)


# ----------------------------------------------------------------------
# closed-form generator periods

def fy_generator_periods(k: int, n: int) -> tuple:
    """((2/C_k) r_0(R_n), (2/C_k) r_w(R_n)) for Gamma0(2), exact rationals.

    n odd with 0 < n < w = k - 2.  The sign convention absorbs the missing
    minus in the source normalization: R_n = -(C_k/2) R_{Gamma,w,n}.
    """
    w = k - 2
    if k % 2 or k <= 2:
        raise Gamma02Error("weight must be even and > 2")
    if n % 2 == 0 or not 0 < n < w:
        raise Gamma02Error("n must be odd with 0 < n < w")
    return (_r0_normalized(k, n), -_r0_normalized(k, w - n) / Fraction(2) ** n)


def _r0_normalized(k: int, n: int) -> Fraction:
    N = Fraction(2)
    w = k - 2
    nt = w - n
    alpha = (1 - N ** (-n - 1)) / (1 - N ** (-k))
    val = (-N ** nt * bernoulli(nt + 1) / (nt + 1)
           + Fraction(k) / bernoulli(k)
           * (bernoulli(n + 1) / (n + 1)) * (bernoulli(nt + 1) / (nt + 1))
           * alpha / N)
    if w == n + 1:
        val += Fraction(1, w)
    return val


# ----------------------------------------------------------------------
# extra relations for cusp forms on Gamma0(2)

def period_vector(f: NewformData, terms: int = 200) -> list:
    """r_j(f) = i^(j+1) Lambda(j+1, f) for j = 0..w, as complex numbers."""
    w = f.weight - 2
    out = []
    for j in range(w + 1):
        lv = completed_lvalue(f, j + 1, terms)
        out.append((1j) ** (j + 1) * lv.value)
    return out


def s_combination(r: Sequence, n: int):
    """s_n = sum over j <= n with n - j odd of C(n, j) r_j."""
    return sum(math.comb(n, j) * r[j] for j in range(n + 1) if (n - j) % 2 == 1)


def extra_relations_check(f: NewformData, terms: int = 200,
                          perturb: float = 0.0) -> dict:
    """Residuals of the two extra relations on even periods, a = 0 and w.

    r_a(f) = sum_{n odd} C(w,n) s_{w-n}(f) (2/C_k) r_a(R_n).  A nonzero
    ``perturb`` offsets r_0 to serve as a negative control.  The report
    also cross-checks the reduced-pairing Petersson value against the full
    Haberland computation.
    """
    k = f.weight
    if k not in LEVEL2_WEIGHTS:
        raise Gamma02Error("supported weights on Gamma0(2): %s" % (LEVEL2_WEIGHTS,))
    if f.level != 2:
        raise Gamma02Error("extra relations are for level 2")
    w = k - 2
    r = period_vector(f, terms)
    if perturb:
        r[0] += perturb
    rows = []
    for a in (0, w):
        lhs = r[a]
        rhs = 0j
        for n in range(1, w, 2):
            r0n, rwn = fy_generator_periods(k, n)
            gen = r0n if a == 0 else rwn
            rhs += math.comb(w, n) * s_combination(r, w - n) * complex(gen)
        denom = max(abs(lhs), abs(rhs), 1e-300)
        rows.append({"a": a, "lhs": lhs, "rhs": rhs,
                     "abs_residual": abs(lhs - rhs),
                     "rel_residual": abs(lhs - rhs) / denom})
    report = {"weight": k, "relations": rows}
    if not perturb:
        report.update(_petersson_cross_check(f, terms))
    return report


def _petersson_cross_check(f: NewformData, terms: int) -> dict:
    k = f.weight
    w = k - 2
    space = _space(k)
    Wp, Wm = build_W(space, w, 1), build_W(space, w, -1)
    lam3 = f.qseries.coeff(3)
    eigendata = [(3, lam3)]
    Pm = common_eigen_polynomial(Wm, eigendata if Wm.dim > 1 else [], parity="-")
    Pp = common_eigen_polynomial(Wp, eigendata, parity="+")
    op, om = period_and_omega(f, terms)
    braces_full = pair_braces(Pp, Pm)
    braces_reduced = reduced_pairing(Pp.values[space.identity_label],
                                     Pm.values[space.identity_label], w)
    if braces_full != braces_reduced:
        raise Gamma02Error("reduced pairing disagrees with the full model")
    c3 = 3 * haberland_constant(k)
    full = op.value * om.value.conjugate() * complex(braces_full) / c3
    reduced = op.value * om.value.conjugate() * complex(braces_reduced) / c3
    return {
        "petersson_full": full,
        "petersson_reduced": reduced,
        "petersson_residual": abs(full - reduced),
        "braces_value": braces_full,
    }
