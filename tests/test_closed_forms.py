"""Differential tests of the closed-form Hopf calculus on PBW words.

The QSL2 word product (ncalg._qsl2_product behind mul_words) is compared
with the two-letter rewriting system, the per-word antipode and the sphere
embedding with a letter-by-letter product of generator images normalised
by rewriting, and the leg-wise tensor products (hopf.leg_product) with a
naive loop over rewritten products, so neither side of a comparison goes
through the code it checks.
"""

import random

import pytest

from qsphere.hochschild import Bimodule
from qsphere.hopf import Tensor, antipode
from qsphere.ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, NCPoly,
                           embed_podles, express_in_podles, filtration_basis,
                           get_algebra, qsl2_weight)
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


# the sphere generators inside QSL2 (generator indices a=0, d=1, b=2, c=3):
# y0 -> bc, y1 -> bd, y-1 -> ca
_SPHERE_GEN_IMAGES = {0: (2, 3), 1: (2, 1), 2: (3, 0)}


@pytest.mark.parametrize("field", FIELDS, ids=["symbolic", "q=3/2"])
def test_embedding_matches_rewriting_of_generator_images(field):
    B = get_algebra(PODLES, field)
    A = B.ctx.A
    basis = filtration_basis(B, 8)
    assert len(basis) == 81
    for w in basis:
        p = NCPoly(B, {w: field.one})
        free = sum((_SPHERE_GEN_IMAGES[g] for g in w), ())
        assert embed_podles(p).terms == A.reduce_terms({free: field.one}), w
        assert express_in_podles(embed_podles(p)) == p, w
    # the linear extension on one element with every word and coefficients
    # q^k, k = 0, 1, ..., 80
    x = NCPoly(B, {w: field.q_power(k) for k, w in enumerate(basis)})
    assert express_in_podles(embed_podles(x)) == x


@pytest.mark.parametrize("field", FIELDS, ids=["symbolic", "q=3/2"])
def test_express_in_podles_rejects_nonzero_weight(field):
    A = get_algebra(QSL2, field)
    weight = qsl2_weight()
    words = [w for w in filtration_basis(A, 4) if weight.of_word(w) != 0]
    assert len(words) == 46  # of the 55 basis words
    for w in words:
        with pytest.raises(ValueError):
            express_in_podles(NCPoly(A, {w: field.one}))


def _naive_leg_product(t1, t2, left_alg, right_alg):
    """sum c1*c2 * (l1 l2) (x) (r1 r2) over all pairs of terms, each leg
    product normalised by rewriting the concatenated words."""
    field = left_alg.field
    out = {}
    for (l1, r1), c1 in t1.items():
        for (l2, r2), c2 in t2.items():
            left = left_alg.reduce_terms({l1 + l2: field.one})
            right = right_alg.reduce_terms({r1 + r2: field.one})
            for lw, cl in left.items():
                for rw, cr in right.items():
                    k = (lw, rw)
                    out[k] = out.get(k, field.zero) + c1 * c2 * cl * cr
    return {k: c for k, c in out.items() if not field.is_zero(c)}


def _random_terms(rng, field, left_alg, right_alg, size):
    pool_l = filtration_basis(left_alg, 2)
    pool_r = filtration_basis(right_alg, 2)
    terms = {}
    for _ in range(size):
        c = field.q_power(rng.randint(-2, 2)) * field.from_int(
            rng.choice((-2, -1, 1, 2)))
        terms[(rng.choice(pool_l), rng.choice(pool_r))] = c
    return terms


@pytest.mark.parametrize("field", FIELDS, ids=["symbolic", "q=3/2"])
def test_tensor_products_match_naive_loop(field):
    rng = random.Random(9)
    A = get_algebra(QSL2, field)
    ctx = A.ctx
    for L, R in ((A, A), (ctx.B, A), (ctx.C, A), (ctx.Z2, ctx.Z2)):
        for _ in range(6):
            t1 = _random_terms(rng, field, L, R, 3)
            t2 = _random_terms(rng, field, L, R, 3)
            got = Tensor(L, R, t1) * Tensor(L, R, t2)
            assert got.terms == _naive_leg_product(t1, t2, L, R), (t1, t2)
            assert all(not field.is_zero(c) for c in got.terms.values())


@pytest.mark.parametrize("field", FIELDS, ids=["symbolic", "q=3/2"])
def test_bxa_actions_match_naive_loop(field):
    rng = random.Random(11)
    M = Bimodule("BxA", field)
    B, A = M.B, M.A
    for _ in range(12):
        v = Tensor(B, A, _random_terms(rng, field, B, A, 3))
        w = rng.choice(filtration_basis(B, 2))
        want = _naive_leg_product({(w, ()): field.one}, v.terms, B, A)
        assert M.left_word(w, v).terms == want, (w, v.terms)
        a = {aw: c for (_, aw), c in _random_terms(rng, field, B, A, 3).items()}
        want = _naive_leg_product(v.terms, {((), aw): c for aw, c in a.items()},
                                  B, A)
        assert M.right_A(v, NCPoly(A, a)).terms == want, (a, v.terms)
