"""Hochschild cochains: both coboundaries, the conjugating map, and the
character action.

Cochains are sparse tables extended multilinearly; the derived cochains
(b phi, d phi, xi phi, X phi) evaluate lazily and exactly, so composite
identities can be checked pointwise on any argument window.
"""

import random

from qsphere import get_algebra
from qsphere.duality import Functional
from qsphere.hochschild import (Bimodule, Cochain, argument_window,
                                character_action, cochains_equal,
                                hochschild_b, random_cochain, twisted_d, xi)
from qsphere.ncalg import PODLES, podles_word
from qsphere.scalars import Q

B = get_algebra(PODLES)
MB = Bimodule("B")
MT = Bimodule("BxA")

print("== the standard coboundary ==")
phi = Cochain(0, MB, {(): B.gen("y0")}, 0)
b_phi = hochschild_b(phi)
v = b_phi.eval_words((podles_word(0, 1),))
print("  for the constant 0-cochain at y0: (b phi)(y1) = y1*y0 - y0*y1 =",
      v.render())

rng = random.Random(2024)
psi = random_cochain(rng, 1, MT, support=2, entries=3)
bb = hochschild_b(hochschild_b(psi))
window = argument_window(3, 1)
print("  b(b psi) vanishes on a degree-3 window:",
      all(MT.is_zero(bb.eval_words(ws)) for ws in window))

print()
print("== the twisted coboundary and the conjugating map ==")
dd = twisted_d(twisted_d(psi))
print("  d(d psi) vanishes on the same window:",
      all(MT.is_zero(dd.eval_words(ws)) for ws in window))
lhs = hochschild_b(xi(psi))
rhs = xi(twisted_d(psi))
win = argument_window(2, 1) + argument_window(2, 2)[:20]
print("  conjugation law b(xi psi) = xi(d psi):",
      cochains_equal(lhs, rhs, win))
rt = xi(xi(psi), inverse=True)
print("  xi then its inverse restores psi:",
      cochains_equal(rt, psi, list(psi.table)))

print()
print("== the character action ==")
X = Functional.char_A(Q ** 2)
acted = character_action(X, psi)
lhs = hochschild_b(character_action(X, psi))
rhs = character_action(X, hochschild_b(psi))
print("  b(X psi) = X(b psi):",
      cochains_equal(lhs, rhs, argument_window(2, 1)))
Y = Functional.char_A(Q ** -1)
# the convolution of two torus characters is the one at the product
lhs = character_action(Functional.char_A(X.t * Y.t), psi)
rhs = character_action(X, character_action(Y, psi))
print("  (XY) psi = X(Y psi) with parameters multiplying:",
      cochains_equal(lhs, rhs, argument_window(1, 2)))
