"""Exact symbolic computation for the quantized coordinate ring of SL(2)
and the standard Podles quantum sphere.

The package provides exact arithmetic over the field of rational functions
in the deformation parameter q (scalars), confluent rewriting to ordered
monomial bases in the preset algebras (ncalg), the Hopf structure maps and
Sweedler tensor calculus (hopf), the Koszul resolution of the counit module
with its reduction calculus and truncated Ext (koszul), Hochschild cochain
machinery with twisted coboundaries and character actions (hochschild), the
weight-graded twisted bimodule family, functionals of one Functional type
with convolution, and the averaging projection (duality), a structured
verification suite (checks), and a CLI (cli).
"""

from .scalars import (NumericField, RationalFunction, SYMBOLIC, SymbolicField,
                      arith, q_bracket, specialize)
from .ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, Grading, NCPoly,
                    embed_podles, express_in_podles, filtration_basis,
                    get_algebra, grade_decompose, multiply, normal_form,
                    parse_expr, podles_degree, qsl2_degree, qsl2_weight)
from .hopf import (Tensor, antipode, b_coproduct, coideal_membership, counit,
                   coproduct, left_coaction, project_pi, rho, rho_check)
from .koszul import (KoszulComplex, TruncatedMap, exactness_check,
                     ext_counit_module, koszul_d2_d1_zero, nu_closed_form,
                     nu_reduce, nu_reduce_oracle, zeta_matrix)
from .hochschild import (Bimodule, Cochain, character_action, h0_expected,
                         h0_twisted_center, hochschild_b, sigma_map,
                         twisted_d, xi)
from .duality import (Functional, beta_projection, convolution,
                      gamma_functional, omega_basis, omega_membership,
                      omega_product_check, sigma_inverse_check, transes_check)

__version__ = "0.1.0"
