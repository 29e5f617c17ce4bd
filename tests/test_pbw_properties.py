"""Algebraic laws of the word-level Hopf calculus on random basis words:
associativity of products, multiplicativity of the word coproduct and the
antipode reversing products."""

import pytest

from qsphere.hopf import Tensor, _cop_word, antipode
from qsphere.ncalg import (LAURENT, PODLES, QSL2, SMASH_Z2, NCPoly,
                           filtration_basis, get_algebra)
from qsphere.scalars import SYMBOLIC, NumericField

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_settings = hypothesis.settings(max_examples=60, deadline=None)
_fields = st.sampled_from([SYMBOLIC, NumericField("3/2")])


def _words(alg, N):
    return st.sampled_from(filtration_basis(alg, N))


def _mono(alg, w):
    return NCPoly(alg, {w: alg.field.one})


@st.composite
def _triples(draw, alg_id, N):
    alg = get_algebra(alg_id, draw(_fields))
    words = _words(alg, N)
    return alg, draw(words), draw(words), draw(words)


@_settings
@hypothesis.given(st.one_of(_triples(QSL2, 6), _triples(PODLES, 6)))
def test_mul_words_is_associative(triple):
    alg, w1, w2, w3 = triple
    x, y, z = (_mono(alg, w) for w in (w1, w2, w3))
    assert (x * y) * z == x * (y * z)


@_settings
@hypothesis.given(_triples(QSL2, 4))
def test_cop_word_is_an_algebra_map(triple):
    A, w1, w2, _ = triple

    def delta(p):
        t = Tensor.zero(A, A)
        for w, c in p.terms.items():
            for (lw, rw), cc in _cop_word(A, w).items():
                t.add_term(lw, rw, c * cc)
        return t

    x, y = _mono(A, w1), _mono(A, w2)
    assert delta(x * y) == delta(x) * delta(y)


@_settings
@hypothesis.given(st.one_of(_triples(QSL2, 6), _triples(LAURENT, 6),
                            _triples(SMASH_Z2, 6)),
                  st.sampled_from([1, -1, 3, -3]))
def test_antipode_reverses_products(triple, power):
    alg, w1, w2, _ = triple
    x, y = _mono(alg, w1), _mono(alg, w2)
    assert antipode(x * y, power) == antipode(y, power) * antipode(x, power)
