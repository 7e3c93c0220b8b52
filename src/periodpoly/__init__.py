"""Period polynomials of modular forms for congruence subgroups.

Exact-arithmetic construction of the spaces of period polynomials, the
Haberland-type pairings on them and the universal Hecke action, together
with the numerical layer that recovers Hecke eigenvalues, period
normalizations and Petersson norms from completed L-values.
"""

from .exactalg import (ApproxComplex, Cyclotomic, CyclotomicField, DenseMatrix,
                       PeriodPolyError, QQ, bernoulli, kernel_basis)
from .cosets import (GAMMA0, GAMMA1, Character, CosetSpace, CuspSet, Mat2,
                     build_coset_space, cusp_classes, dirichlet_characters)
from .polyspace import (ExtPolyVector, PolyVector, Subspace, build_W,
                        build_W_extended, build_coboundary_and_D, chi_component,
                        cminus_trivial, coboundary_and_D_dimensions, eps_split,
                        pair_braces, pair_induced, pair_vw, period_dimensions, slash_poly,
                        w_dimensions, wtilde_dimension)
from .hecke import (GroupRingElement, HeckeOperator, SigmaSpec,
                    common_eigen_polynomial, delta_spec, delta_vee_spec,
                    diamond_spec, hecke_action, hecke_matrix, resolve_sigma_coset,
                    theta_spec, tn_infinity, universal_hecke_element,
                    verify_hecke_property)
from .analytic import (LValue, NewformData, QSeries, completed_lvalue,
                       eisenstein_period_demo, eisenstein_qexp, eta_product,
                       incomplete_gamma, manin_coefficient, period_and_omega,
                       petersson_product)
from .gamma02 import extra_relations_check, fy_generator_periods

__version__ = "0.1.0"
