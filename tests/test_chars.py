"""Contracts of the chi / delta / xi / zeta formula gadgets."""

import random
from fractions import Fraction
from math import gcd

import pytest

from mvgames import (Var, catalog_lookup, characteristic, evaluate,
                     mcnaughton_hat, pseudo_char, zeta)
from mvgames import chars
from mvgames.chars import has_pseudo_char
from mvgames.errors import SemanticError
from _pl import pl_eval, pl_of_formula, pl_peaks_exactly_at
from conftest import random_formula

F = Fraction
STD_L = catalog_lookup("STD_L")


def _values_on_chain(formula, alg):
    return tuple(evaluate(formula, alg, {"x": x}) for x in alg.domain_elements())


def test_pseudo_char_dense_grid():
    chi = pseudo_char(STD_L, F(1, 2))
    assert evaluate(chi, STD_L, {"x": F(1, 2)}) == 1
    for k in range(1001):
        x = F(k, 1000)
        if x != F(1, 2):
            assert evaluate(chi, STD_L, {"x": x}) < 1


def test_pseudo_char_on_chain_with_constants():
    alg = catalog_lookup("L_4_C")
    chi = pseudo_char(alg, F(3, 4))
    values = _values_on_chain(chi, alg)
    assert values == (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 4))
    assert [v == 1 for v in values] == [False, False, False, True, False]


def test_pseudo_char_at_one_is_trivial():
    chi = pseudo_char(STD_L, F(1))
    for k in range(0, 33):
        x = F(k, 32)
        assert (evaluate(chi, STD_L, {"x": x}) == 1) == (x == 1)


def test_has_pseudo_char_builds_no_gadget(monkeypatch):
    # The rule decides; only pseudo_char builds the formula it names.
    def no_build(*args):
        raise AssertionError("a gadget was built")

    monkeypatch.setattr(chars, "mcnaughton_hat", no_build)
    monkeypatch.setattr(chars, "app", no_build)
    lm = catalog_lookup("L_4")
    assert [has_pseudo_char(lm, F(k, 4)) for k in range(5)] == [True] * 5
    assert not has_pseudo_char(lm, F(1, 3))
    assert [has_pseudo_char(catalog_lookup("G_4"), F(k, 4)) for k in range(5)] == \
        [True, False, False, False, True]


def test_pseudo_char_unsupported():
    with pytest.raises(SemanticError):
        pseudo_char(catalog_lookup("G_4"), F(1, 2))   # no constant, not MV
    with pytest.raises(SemanticError):
        pseudo_char(catalog_lookup("L_4"), F(1, 3))   # outside the domain


def test_hat_examples():
    assert mcnaughton_hat(1, 1) == Var("x")
    xi12 = mcnaughton_hat(1, 2)
    assert evaluate(xi12, STD_L, {"x": F(1, 2)}) == F(1, 2)
    for k in range(65):
        x = F(k, 64)
        if x != F(1, 2):
            assert evaluate(xi12, STD_L, {"x": x}) < F(1, 2)
    xi25 = mcnaughton_hat(2, 5)
    assert evaluate(xi25, STD_L, {"x": F(2, 5)}) == F(1, 5)
    assert pl_peaks_exactly_at(pl_of_formula(xi25), F(2, 5), F(1, 5))


def test_hat_preconditions():
    with pytest.raises(SemanticError):
        mcnaughton_hat(2, 4)
    with pytest.raises(SemanticError):
        mcnaughton_hat(0, 3)
    with pytest.raises(SemanticError):
        mcnaughton_hat(4, 3)


def test_hats_up_to_denominator_8():
    # Exact piecewise-linear maximization: peak 1/n at m/n, strictly below
    # everywhere else; cross-checked on the 1/64 grid with the evaluator.
    for n in range(1, 9):
        for m in range(1, n + 1):
            if gcd(m, n) != 1:
                continue
            hat = mcnaughton_hat(m, n)
            graph = pl_of_formula(hat)
            assert pl_peaks_exactly_at(graph, F(m, n), F(1, n))
            for k in range(65):
                x = F(k, 64)
                assert evaluate(hat, STD_L, {"x": x}) == pl_eval(graph, x)


def test_characteristic_on_l4():
    alg = catalog_lookup("L_4")
    assert _values_on_chain(characteristic(alg, F(1, 2)), alg) == \
        (F(0), F(0), F(1), F(0), F(0))
    assert _values_on_chain(characteristic(alg, F(1)), alg) == \
        (F(0), F(0), F(0), F(0), F(1))
    assert _values_on_chain(characteristic(alg, F(0)), alg) == \
        (F(1), F(0), F(0), F(0), F(0))


def test_characteristic_routes():
    # delta route on Godel chains with constants and delta
    alg = catalog_lookup("G_n_C_DELTA", 6)
    values = _values_on_chain(characteristic(alg, F(1, 3)), alg)
    assert values == tuple(F(1) if F(k, 6) == F(1, 3) else F(0) for k in range(7))
    # two-valued: plain pseudo-characteristic formulas suffice
    bool2 = catalog_lookup("BOOL2")
    assert _values_on_chain(characteristic(bool2, F(0)), bool2) == (F(1), F(0))
    assert _values_on_chain(characteristic(bool2, F(1)), bool2) == (F(0), F(1))


def test_characteristic_unavailable_on_infinite_mv_chain():
    with pytest.raises(SemanticError):
        characteristic(STD_L, F(1, 2))
    with pytest.raises(SemanticError):
        characteristic(catalog_lookup("G_4_C"), F(1, 2))  # no delta, no MV power


@pytest.mark.parametrize("alg_id, a, message", [
    ("G_3", F(1, 3), "no characteristic formula for 1/3 in G_3"),
    ("STD_G", F(1, 3), "no characteristic formula for 1/3 in STD_G"),
    ("STD_L", F(1, 2), "no characteristic formula for 1/2 in STD_L"),
    ("STD_L", F(0), "no characteristic formula for 0 in STD_L"),
    ("L_4", F(1, 3), "1/3 is not in the domain of L_4"),
])
@pytest.mark.parametrize("rule", [False, True], ids=["characteristic", "rule"])
def test_characteristic_error_texts(alg_id, a, message, rule):
    # The route is chosen before chi_a's rule is derived: G_3 has no chi at
    # 1/3 either, but the error names the characteristic formula.
    alg = catalog_lookup(alg_id)
    with pytest.raises(SemanticError) as info:
        chars.characteristic_rule(alg, a) if rule else characteristic(alg, a)
    assert str(info.value) == message


def test_pseudo_char_error_text():
    with pytest.raises(SemanticError) as info:
        pseudo_char(catalog_lookup("G_3"), F(1, 3))
    assert str(info.value) == "no pseudo-characteristic formula for 1/3 in G_3"


def test_characteristic_exhaustive_small_chains():
    for n in range(1, 9):
        alg = catalog_lookup("L_n", n)
        for k in range(n + 1):
            a = F(k, n)
            values = _values_on_chain(characteristic(alg, a), alg)
            assert values == tuple(F(1) if F(j, n) == a else F(0)
                                   for j in range(n + 1))


def test_zeta_examples():
    alg = catalog_lookup("L_n", 5)
    z = zeta(5, F(2, 5), F(3, 5))
    assert evaluate(z, alg, {"x": F(2, 5)}) == F(3, 5)
    zero = zeta(5, F(2, 5), F(0))
    assert evaluate(zero, alg, {"x": F(2, 5)}) == 0


def test_zeta_preconditions():
    with pytest.raises(SemanticError):
        zeta(4, F(2, 4), F(1, 4))       # not prime
    with pytest.raises(SemanticError):
        zeta(5, F(0), F(1, 5))          # endpoint
    with pytest.raises(SemanticError):
        zeta(5, F(1, 3), F(1, 5))       # off the chain


@pytest.mark.parametrize("args, message", [
    ((4, F(1, 4), F(1, 4)), "zeta needs a prime chain size, got 4"),
    ((4, F(0), F(1, 3)), "zeta needs a prime chain size, got 4"),
    ((5, F(0), F(1, 5)), "zeta needs a = p/5 strictly inside the chain, got 0"),
    ((5, F(1), F(1, 5)), "zeta needs a = p/5 strictly inside the chain, got 1"),
    ((5, F(1, 3), F(1, 3)), "zeta needs a = p/5 strictly inside the chain, got 1/3"),
    ((5, F(2, 5), F(1, 3)), "zeta needs b on the chain with denominator 5, got 1/3"),
    ((5, F(2, 5), F(6, 5)), "zeta needs b on the chain with denominator 5, got 6/5"),
    ((5, F(2, 5), F(-1, 5)), "zeta needs b on the chain with denominator 5, got -1/5"),
])
def test_zeta_error_texts(args, message):
    # Checked in this order: m, then a, then b.
    with pytest.raises(SemanticError) as info:
        zeta(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("m, b, message", [
    (6, F(1, 6), "zeta needs a prime chain size, got 6"),
    (5, F(1, 3), "zeta needs b on the chain with denominator 5, got 1/3"),
    (5, F(6, 5), "zeta needs b on the chain with denominator 5, got 6/5"),
])
def test_zeta_rule_checks_m_and_b_as_zeta_does(m, b, message):
    with pytest.raises(SemanticError) as info:
        chars.zeta_rule(m, b)
    assert str(info.value) == message


def test_zeta_exhaustive_small_primes():
    for m in (2, 3, 5, 7):
        alg = catalog_lookup("L_n", m)
        for p in range(1, m):
            for q in range(m + 1):
                z = zeta(m, F(p, m), F(q, m))
                assert evaluate(z, alg, {"x": F(p, m)}) == F(q, m)


def test_pl_oracle_agrees_with_evaluator(seed):
    rng = random.Random(seed)
    ops = ["and", "or", "imp", "neg", "and_strong", "oplus", "ominus"]
    for _ in range(60):
        f = random_formula(rng, ["x"], depth=4, ops=ops)
        graph = pl_of_formula(f)
        for k in range(33):
            x = F(k, 32)
            assert pl_eval(graph, x) == evaluate(f, catalog_lookup("STD_QL"), {"x": x})
