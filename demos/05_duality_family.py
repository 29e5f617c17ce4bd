"""The twisted bimodule family, convolution, and the averaging projection.

The family omega(n, m) consists of the coaction-weight-n part of the
coordinate ring with the right action twisted by S^(2m).  Products compose
the indices; the Haar-averaged projection beta retracts the ring onto the
sphere; and the convolution identity chi * gamma = counit yields an
explicit left inverse for the modular-type automorphism sigma.
"""

from qsphere import (Functional, beta_projection, convolution,
                     get_algebra, omega_basis, omega_product_check,
                     parse_expr, sigma_inverse_check, transes_check)
from qsphere.hochschild import sigma_map
from qsphere.ncalg import PODLES, QSL2

A = get_algebra(QSL2)
B = get_algebra(PODLES)

print("== the omega family ==")
for n in (-1, 0, 1, 2):
    names = [A.render_word(m) for m in omega_basis(n, 2)]
    print(f"  weight {n:+d}, length <= 2: {names}")

print()
print("products compose the weights (and the twists on the action side):")
r = omega_product_check(1, 0, -1, 1, 3)
print("  omega(1,0) x omega(-1,1) -> omega(0,1):",
      r["membership_failures"], "membership failures,",
      "spanning defects", r["spanning_defects"])

print()
print("== the averaging projection ==")
for text in ("a", "b*c", "a*d", "b^2*c^2 + d"):
    p = parse_expr(text, A)
    print(f"  beta({text}) = {beta_projection(p).render()}")

print()
print("== convolution and the left inverse of sigma ==")
print("  torus characters convolve by multiplying parameters:")
conv = convolution(Functional.char_A(A.field.q_power(1)),
                   Functional.char_A(A.field.q_power(2)))
print("    (X_q * X_q2)(a) =", conv(A.gen("a")).render())

r = transes_check(4)
print("  chi * gamma = counit on the sphere up to length 4:", r["pass"])

print("  sigma scales rays and gamma-averaging undoes it:")
r = sigma_inverse_check(3)
print("    rays + roundtrips up to length 3:", r["pass"])
y1 = B.gen("y1")
print("    e.g. sigma(y1) =", sigma_map(y1).render(),
      " and the inverse returns y1")
