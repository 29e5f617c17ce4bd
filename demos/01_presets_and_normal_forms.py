"""Normal forms in the preset algebras.

Walks through the four built-in algebras, shows the defining rewrite rules
in action, and checks that reduction strategies agree (confluence) on a few
deliberately awkward words.
"""

from qsphere import get_algebra, parse_expr, grade_decompose, podles_degree
from qsphere.ncalg import LAURENT, PODLES, QSL2, SMASH_Z2, filtration_basis

A = get_algebra(QSL2)
B = get_algebra(PODLES)

print("== the quantized coordinate ring of SL(2) ==")
print("generators a, b, c, d;  the two 'determinant' relations rewrite both")
print("orderings of a and d:")
for text in ("d*a", "a*d", "b*a", "d*c"):
    print(f"  {text:6} -> {parse_expr(text, A).render()}")

print()
print("a word mixing everything (b*d*a*c) reduces to the ordered basis:")
print("  b*d*a*c ->", parse_expr("b*d*a*c", A).render())

print()
print("== the standard Podles quantum sphere ==")
print("generators y-1, y0, y1 with the quadratic exchange relations:")
for text in ("y1*y-1", "y-1*y1", "y1*y0", "y-1*y0"):
    print(f"  {text:7} -> {parse_expr(text, B).render()}")

z1 = parse_expr("y1 + y0", B)
zm1 = parse_expr("y-1 + y0", B)
rel = zm1 * z1 - (z1 * zm1).scale(B.field.q_power(2))
print("the shifted generators z1 = y1+y0, z-1 = y-1+y0 q-commute:")
print("  z-1*z1 - q^2*z1*z-1 =", rel.render())

print()
print("== gradings ==")
p = parse_expr("y1 + y0 + 3*y-1^2", B)
print("degree components of y1 + y0 + 3*y-1^2:")
for d, comp in grade_decompose(p, podles_degree()).items():
    print(f"  degree {d:+d}: {comp.render()}")

print()
print("== filtration bases ==")
for alg_id, N in ((PODLES, 2), (LAURENT, 2), (SMASH_Z2, 2)):
    alg = get_algebra(alg_id)
    names = [alg.render_word(m) for m in filtration_basis(alg, N)]
    print(f"  {alg_id:9} length <= {N}: {names}")

print()
print("== confluence spot checks ==")
for alg in (A, B):
    word = tuple(range(len(alg.gens))) * 2
    left = alg.reduce_terms({word: alg.field.one}, "leftmost")
    right = alg.reduce_terms({word: alg.field.one}, "rightmost")
    print(f"  {alg.id}: leftmost == rightmost on a scrambled word:",
          left == right)
