"""The exact-rational fast mode must agree with the symbolic mode."""

import re
from fractions import Fraction

import pytest

from qsphere import checks
from qsphere.hochschild import Bimodule
from qsphere.hopf import Tensor, _cop_word, b_coproduct_word, left_coaction
from qsphere.koszul import ext_counit_module, nu_reduce, nu_reduce_oracle
from qsphere.linalg import Echelon
from qsphere.ncalg import (PODLES, QSL2, Context, Memo, filtration_basis,
                           get_algebra, parse_expr, podles_index,
                           podles_word)
from qsphere.scalars import (NumericField, QValue, RationalFunction, SYMBOLIC,
                             SymbolicField, specialize)

Q0 = Fraction(3, 2)
NUM = NumericField(Q0)


def test_normal_forms_commute_with_specialization():
    Bs = get_algebra(PODLES, SYMBOLIC)
    Bn = get_algebra(PODLES, NUM)
    for text in ("y1*y-1", "y-1*y1*y0 - 2*y0^3", "(y0 + y1)*(y0 + y-1)"):
        sym = parse_expr(text, Bs)
        num = parse_expr(text, Bn)
        assert set(sym.terms) == set(num.terms)
        for w, c in sym.terms.items():
            assert specialize(c, Q0) == num.terms[w]


def test_nu_reduction_specialized():
    Bn = get_algebra(PODLES, NUM)
    for (i, j) in ((1, 1), (2, -2), (1, 3), (0, -4)):
        red = nu_reduce(Bn.monomial(podles_word(i, j)))
        assert red == nu_reduce_oracle(i, j, NUM)
        sym = nu_reduce(get_algebra(PODLES, SYMBOLIC).monomial(podles_word(i, j)))
        assert set(red) == set(sym)
        for w, c in sym.items():
            assert specialize(c, Q0) == red[w]


def test_ext_specialized():
    r = ext_counit_module(5, NUM)
    assert r["dims"] == (0, 0, 1)
    assert all(v == 0 for v in r["character"].values())


def test_checks_agree_across_modes():
    fast = [
        ("confluence", dict(seed=1, trials=60, maxlen=6), NUM),
        ("h0-grid", dict(imax=2, jmax=1), NUM),
        ("omega-products", dict(N=2), NUM),
        ("convolution-transes", dict(maxlen=3, seed=1), NUM),
        ("sigma-inverse", dict(N=3), NumericField(-2)),
    ]
    for name, kwargs, field in fast:
        sym = checks.CHECKS[name](field=SYMBOLIC, **kwargs)
        num = checks.CHECKS[name](field=field, **kwargs)
        assert sym["pass"] == num["pass"] is True, name


def test_equal_numeric_fields_share_presets():
    other = NumericField("3/2")
    assert other == NUM and hash(other) == hash(NUM)
    assert NUM != NumericField(2) and NUM != SYMBOLIC
    B1, B2 = get_algebra(PODLES, NUM), get_algebra(PODLES, other)
    assert B1 is B2
    assert B1.gen("y0") + B2.gen("y1") == parse_expr("y0 + y1", B1)


def test_equal_fields_share_one_context():
    A = get_algebra(QSL2, SymbolicField())
    assert SymbolicField() == SYMBOLIC and hash(SymbolicField()) == hash(SYMBOLIC)
    assert A is get_algebra(QSL2, SYMBOLIC)
    assert A.gen("a") + get_algebra(QSL2, SYMBOLIC).gen("a") == \
        A.gen("a").scale(2)
    ctx = get_algebra(PODLES, NumericField("3/2")).ctx
    assert ctx is get_algebra(QSL2, NumericField(Fraction(3, 2))).ctx
    assert ctx is not A.ctx and SYMBOLIC != NUM
    for alg_id, alg in ctx.presets.items():
        assert alg.ctx is ctx and alg is get_algebra(alg_id, NUM)
    with pytest.raises(ValueError):
        get_algebra("SL3", NUM)


def test_symbolic_and_numeric_contexts_share_no_cache_entry():
    sym, num = get_algebra(QSL2, SYMBOLIC), get_algebra(QSL2, NUM)
    for w in filtration_basis(sym, 3):
        _cop_word(sym, w)
        _cop_word(num, w)
    for alg, kind in ((sym, RationalFunction), (num, QValue)):
        assert alg._cop_cache
        for cop in alg._cop_cache.values():
            assert all(type(c) is kind for c in cop.values())
    # every Memo of both contexts and their presets, filled at level 2
    memos = {}
    for field, kind in ((SYMBOLIC, RationalFunction), (NUM, QValue)):
        ctx = get_algebra(QSL2, field).ctx
        for alg in ctx.presets.values():
            basis = filtration_basis(alg, 2)
            for w1 in basis:
                for w2 in basis:
                    alg.mul_words(w1, w2)
                if alg is not ctx.B:
                    _cop_word(alg, w1)
        for w in filtration_basis(ctx.A, 2):
            left_coaction(ctx.A.monomial(w))
        carrier = Bimodule("BxA", field)
        unit = Tensor(ctx.B, ctx.A, {((), ()): field.one})
        for w in filtration_basis(ctx.B, 2):
            b_coproduct_word(ctx.B, w)
            nu_reduce(ctx.B.monomial(w))
            nu_reduce_oracle(*podles_index(w), field)
            carrier.ad_word(w, unit)
        owners = [("ctx", ctx)] + list(ctx.presets.items())
        memos[field] = {(name, attr): m for name, owner in owners
                        for attr, m in vars(owner).items()
                        if isinstance(m, Memo)}
        assert len(memos[field]) == 4 * 3 + 8
        # the two Memos that hold words: (l, m, n) -> QSL2 word and QSL2
        # word -> (sphere word, q-exponent)
        for attr in ("_word_cache", "_express_cache"):
            memo = memos[field]["ctx", attr]
            assert all(type(v) is tuple for v in memo.values())
        for key, memo in memos[field].items():
            assert memo or key == (PODLES, "_cop_cache")
            for value in memo.values():
                assert all(type(c) is kind for c in _scalars(value))
    assert memos[SYMBOLIC].keys() == memos[NUM].keys()
    assert all(m is not memos[NUM][k] for k, m in memos[SYMBOLIC].items())


def _memo_attrs(owner):
    return {attr for attr, m in vars(owner).items() if isinstance(m, Memo)}


def test_context_docstring_lists_each_memo_once():
    # the Context docstring lists each cache with its function once, as
    # ctx.<attr> or preset.<attr> at the start of a line
    named = re.findall(r"^\s*(ctx|preset)\.(\w+)\s", Context.__doc__, re.M)
    assert len(named) == len(set(named))
    ctx = get_algebra(QSL2, NUM).ctx
    assert _memo_attrs(ctx) == {attr for owner, attr in named if owner == "ctx"}
    for alg in ctx.presets.values():
        assert _memo_attrs(alg) == {attr for owner, attr in named
                                    if owner == "preset"}


def _scalars(value):
    """The field elements held by one cache entry."""
    if isinstance(value, Echelon):
        return [c for row in value.rows.values() for c in row.values()]
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return value
    if isinstance(value, tuple):    # a filtration basis, a word or an
        return []                   # expressed word holds no scalar
    return [value]
