"""Catalog algebras: operation tables, closure, subreducts."""

import random
from fractions import Fraction

import pytest

from mvgames import catalog_lookup, is_subreduct
from mvgames.algebra import ARITY, parse_rational, format_rational
from mvgames.errors import InputError

FINITE_IDS = [("BOOL2", None), ("L_n", 3), ("L_n", 4), ("L_n_C", 4),
              ("G_n", 4), ("G_n_C", 4), ("G_n_C_DELTA", 4)]
INFINITE_IDS = ["STD_L", "STD_L_DELTA", "STD_QL", "STD_QL_DELTA", "STD_G",
                "STD_QG", "STD_QG_DELTA", "STD_PL", "STD_PL_DELTA",
                "STD_QPL_DELTA", "STD_LPI", "STD_LPIH"]


def test_lukasiewicz_tables():
    alg = catalog_lookup("STD_L")
    x, y = Fraction(7, 10), Fraction(6, 10)
    assert alg.ops["and_strong"](x, y) == Fraction(3, 10)
    assert alg.ops["imp"](x, y) == Fraction(9, 10)
    assert alg.ops["neg"](x) == Fraction(3, 10)
    assert alg.ops["oplus"](x, y) == 1
    assert alg.ops["ominus"](x, y) == Fraction(1, 10)


def test_imp_reflexive_everywhere():
    rng = random.Random(7)
    for alg_id in ["STD_L", "STD_G", "STD_PL"]:
        alg = catalog_lookup(alg_id)
        for _ in range(50):
            x = Fraction(rng.randint(0, 24), 24)
            assert alg.ops["imp"](x, x) == 1


def test_godel_and_product_tables():
    assert catalog_lookup("STD_G").ops["imp"](
        Fraction(7, 10), Fraction(6, 10)) == Fraction(6, 10)
    assert catalog_lookup("STD_PL").ops["odot"](
        Fraction(2, 3), Fraction(3, 5)) == Fraction(2, 5)
    assert catalog_lookup("STD_LPIH").ops["imp_pi"](
        Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 2)
    assert catalog_lookup("STD_LPI").ops["imp_pi"](Fraction(1, 4), Fraction(1, 2)) == 1


def test_chain_oplus_saturates():
    assert catalog_lookup("L_4_C").ops["oplus"](Fraction(1, 2), Fraction(3, 4)) == 1


def test_catalog_errors():
    with pytest.raises(InputError):
        catalog_lookup("STD_NOPE")
    with pytest.raises(InputError):
        catalog_lookup("L_n")          # missing n
    with pytest.raises(InputError):
        catalog_lookup("L_n", 0)
    with pytest.raises(InputError):
        catalog_lookup("L_4_C_DELTA")  # not a catalog combination
    with pytest.raises(InputError):
        catalog_lookup("G_4_DELTA")


@pytest.mark.parametrize("identifier,n", FINITE_IDS)
def test_closure_exhaustive(identifier, n):
    alg = catalog_lookup(identifier, n)
    domain = alg.domain_elements()
    for name in alg.connectives:
        if ARITY[name] == 1:
            for x in domain:
                assert alg.contains(alg.ops[name](x))
        else:
            for x in domain:
                for y in domain:
                    assert alg.contains(alg.ops[name](x, y))


@pytest.mark.parametrize("identifier", INFINITE_IDS)
def test_residuation_anchors(identifier, seed):
    alg = catalog_lookup(identifier)
    rng = random.Random(seed)
    for _ in range(1000):
        x = Fraction(rng.randint(0, 60), 60)
        y = Fraction(rng.randint(0, 60), 60)
        assert (alg.ops["imp"](x, y) == 1) == (x <= y)
        assert (alg.ops["and"](x, y) == 1) == (x == 1 and y == 1)
        assert (alg.ops["or"](x, y) == 1) == (x == 1 or y == 1)


def test_lukasiewicz_identities(seed):
    alg = catalog_lookup("STD_L")
    rng = random.Random(seed)
    for _ in range(300):
        x = Fraction(rng.randint(0, 48), 48)
        y = Fraction(rng.randint(0, 48), 48)
        assert alg.ops["neg"](alg.ops["neg"](x)) == x
        lhs = alg.ops["oplus"](x, y)
        rhs = alg.ops["neg"](alg.ops["and_strong"](alg.ops["neg"](x), alg.ops["neg"](y)))
        assert lhs == rhs


def test_delta_idempotent(seed):
    alg = catalog_lookup("STD_QPL_DELTA")
    rng = random.Random(seed)
    for _ in range(200):
        x = Fraction(rng.randint(0, 32), 32)
        d = alg.ops["delta"](x)
        assert d in (Fraction(0), Fraction(1))
        assert alg.ops["delta"](d) == d


def test_subreduct_relations():
    l4 = catalog_lookup("L_4")
    std_l = catalog_lookup("STD_L")
    assert is_subreduct(l4, std_l)
    assert is_subreduct(l4, l4)
    assert is_subreduct(std_l, std_l)
    assert not is_subreduct(std_l, catalog_lookup("G_4"))
    assert not is_subreduct(catalog_lookup("G_4"), std_l)   # imp disagrees
    assert is_subreduct(catalog_lookup("G_4"), catalog_lookup("STD_G"))
    assert is_subreduct(catalog_lookup("BOOL2"), catalog_lookup("STD_PL"))
    assert is_subreduct(l4, catalog_lookup("L_8"))
    assert not is_subreduct(l4, catalog_lookup("L_7"))      # 1/4 not on the 7-chain
    assert is_subreduct(std_l, catalog_lookup("STD_QPL_DELTA"))
    assert not is_subreduct(catalog_lookup("STD_QL"), std_l)  # constants lost
    assert is_subreduct(catalog_lookup("L_4_C"), catalog_lookup("STD_QL"))


def test_chain_domains():
    l4 = catalog_lookup("L_4")
    assert l4.domain_elements() == tuple(Fraction(k, 4) for k in range(5))
    assert catalog_lookup("BOOL2").domain_elements() == (Fraction(0), Fraction(1))
    assert not l4.contains(Fraction(1, 3))
    assert catalog_lookup("STD_L").contains(Fraction(1, 3))


def reference_contains(alg, value):
    """Membership on Fractions: in [0, 1] and, on a chain, value * n integral."""
    value = Fraction(value)
    if not 0 <= value <= 1:
        return False
    return alg.chain is None or (value * alg.chain).denominator == 1


def test_contains_matches_fraction_reference():
    algebras = ([catalog_lookup(i, n) for i, n in FINITE_IDS]
                + [catalog_lookup("L_n", n) for n in (1, 2, 6, 12)]
                + [catalog_lookup(i) for i in INFINITE_IDS])
    values = [Fraction(n, d) for d in (1, 2, 3, 4, 5, 6, 8, 12, 10**20 + 39)
              for n in range(-d - 1, 2 * d + 2, max(1, d // 7))]
    values += [-1, 0, 1, 2, True, False]
    for alg in algebras:
        for value in values:
            assert alg.contains(value) == reference_contains(alg, value), (alg, value)
    l6 = catalog_lookup("L_n", 6)
    assert l6.contains(Fraction(1, 3)) and not l6.contains(Fraction(1, 4))
    assert l6.contains(0) and l6.contains(1) and not l6.contains(2)
    assert not catalog_lookup("STD_L").contains(Fraction(-1, 10**20 + 39))


def test_constant_availability():
    assert catalog_lookup("L_4_C").has_constant(Fraction(3, 4))
    assert not catalog_lookup("L_4").has_constant(Fraction(3, 4))
    assert catalog_lookup("L_4").has_constant(Fraction(1))
    assert catalog_lookup("STD_QL").has_constant(Fraction(5, 7))
    assert not catalog_lookup("STD_L").has_constant(Fraction(5, 7))


def test_rational_round_trip():
    assert format_rational(parse_rational("6/8")) == "3/4"
    assert format_rational(parse_rational("2")) == "2"
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("x")
