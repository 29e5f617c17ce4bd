"""Hopf structure maps and the sphere as a right coideal subalgebra.

Coproducts and antipodes on the coordinate ring, the quotient onto Laurent
polynomials, and the coaction test that carves out the quantum sphere.
"""

from qsphere import (antipode, coideal_membership, coproduct, counit,
                     embed_podles, get_algebra, left_coaction, project_pi)
from qsphere.ncalg import PODLES, QSL2, filtration_basis

A = get_algebra(QSL2)
B = get_algebra(PODLES)

print("== coproducts ==")
for g in ("a", "b", "c", "d"):
    print(f"  Delta({g}) =", coproduct(A.gen(g)).render())
print("  Delta(y-1) =", coproduct(B.gen("y-1")).render())

print()
print("== counit and antipode ==")
print("  eps(a) =", counit(A.gen("a")).render(), "  eps(b) =", counit(A.gen("b")).render())
print("  S(b) =", antipode(A.gen("b")).render())
print("  S^2 scales the sphere rays: S^2(y1) =", antipode(B.gen("y1"), 2).render())

print()
print("== the Laurent quotient ==")
print("  pi(a) =", project_pi(A.gen("a")).render(),
      "  pi(ad) =", project_pi(A.gen("a") * A.gen("d")).render(),
      "  pi(b) =", project_pi(A.gen("b")).render())

print()
print("== the sphere inside the coordinate ring ==")
print("an element belongs to the sphere iff its left coaction is trivial:")
bc = A.gen("b") * A.gen("c")
print("  coact(bc) =", left_coaction(bc).render(), "-> member:", coideal_membership(bc))
print("  coact(b)  =", left_coaction(A.gen("b")).render(), "-> member:", coideal_membership(A.gen("b")))

print()
print("every sphere basis monomial up to length 4 passes, and stays inside")
print("under S^2 and S^-2:")
count = 0
for m in filtration_basis(B, 4):
    e = embed_podles(B.monomial(m))
    assert coideal_membership(e)
    assert coideal_membership(antipode(e, 2))
    assert coideal_membership(antipode(e, -2))
    count += 1
print(f"  checked {count} monomials: all inside")
print("e.g. the generator images: y-1 = ca, y0 = bc, y1 = bd;")
print("  embed(y0^2) =", embed_podles(B.gen("y0") ** 2).render())
