"""Differential tests of the closed-form Hopf calculus on PBW words.

The QSL2 word product (ncalg._qsl2_product behind mul_words) is compared
with the two-letter rewriting system, and the per-word antipode with a
letter-by-letter product of generator images normalised by rewriting, so
neither side of a comparison goes through the code it checks.
"""

import pytest

from qsphere.hopf import antipode
from qsphere.ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, NCPoly,
                           embed_podles, express_in_podles, filtration_basis,
                           get_algebra)
from qsphere.scalars import SYMBOLIC, NumericField

FIELDS = [SYMBOLIC, NumericField("3/2")]


@pytest.mark.parametrize("field", FIELDS, ids=["symbolic", "q=3/2"])
def test_qsl2_mul_words_matches_rewriting(field):
    A = get_algebra(QSL2, field)
    basis = filtration_basis(A, 4)
    assert len(basis) ** 2 == 3025
    for w1 in basis:
        for w2 in basis:
            want = A.reduce_terms({w1 + w2: field.one})
            got = A.mul_words(w1, w2)
            # the term order matters too: it fixes the insertion order of
            # every sum built from the product, and so the report bytes
            assert list(got.items()) == list(want.items()), (w1, w2)


# images of the generators under S and S^-1, as (coefficient, word) pairs
# over the generator indices of each preset (QSL2: a, d, b, c)
def _images(field):
    qp, one, neg = field.q_power, field.one, -field.one
    return {
        QSL2: {1: [(one, (1,)), (one, (0,)), (-qp(-1), (2,)), (-qp(1), (3,))],
               -1: [(one, (1,)), (one, (0,)), (-qp(1), (2,)), (-qp(-1), (3,))]},
        LAURENT: {1: [(one, (1,)), (one, (0,))],
                  -1: [(one, (1,)), (one, (0,))]},
        # S(y) = -yx = xy and S^-1(y) = -xy
        SMASH_Z2: {1: [(one, (0,)), (one, (0, 1))],
                   -1: [(one, (0,)), (neg, (0, 1))]},
    }


def _oracle_once(p, images):
    """S or S^-1 of p, an anti-algebra map: the product of the generator
    images in reversed order, normalised by rewriting."""
    alg = p.alg
    out = {}
    for w, c in p.terms.items():
        free = ()
        for g in reversed(w):
            ic, iw = images[g]
            c = c * ic
            free = free + iw
        for rw, rc in alg.reduce_terms({free: alg.field.one}).items():
            out[rw] = out.get(rw, alg.field.zero) + c * rc
    return alg.poly(out)


def _oracle(p, power, images):
    for _ in range(abs(power)):
        p = _oracle_once(p, images[1 if power > 0 else -1])
    return p


@pytest.mark.parametrize("field", FIELDS, ids=["symbolic", "q=3/2"])
@pytest.mark.parametrize("alg_id", [QSL2, LAURENT, SMASH_Z2])
def test_antipode_per_word_matches_generator_images(field, alg_id):
    alg = get_algebra(alg_id, field)
    images = _images(field)[alg_id]
    for w in filtration_basis(alg, 6):
        p = NCPoly(alg, {w: field.one})
        for power in (1, -1, 2, -2, 3, -3):
            got = antipode(p, power)
            assert len(got.terms) == 1
            assert got == _oracle(p, power, images), (alg_id, w, power)


@pytest.mark.parametrize("field", FIELDS, ids=["symbolic", "q=3/2"])
def test_podles_even_antipode_matches_embedding_round_trip(field):
    B = get_algebra(PODLES, field)
    for w in filtration_basis(B, 6):
        p = NCPoly(B, {w: field.q_power(1)})
        for power in (2, -2, 4, -4):
            want = express_in_podles(antipode(embed_podles(p), power))
            assert antipode(p, power) == want, (w, power)
