"""Representation constructors and exhaustive verification."""

import random
from fractions import Fraction

import pytest

from mvgames import (MixedProfile, catalog_lookup, find_mixed_2p,
                     logical_to_strategic, matching_pennies, new_technology,
                     pure_ne_scan, verify_mixed, verify_representation)
from mvgames.errors import SemanticError
from mvgames.game import make_game
from mvgames.represent import (Affine, Representation, Table,
                               represent_binary_boolean, represent_binary_chain,
                               represent_binary_general, represent_general,
                               represent_rational_gmc_delta, represent_rational_lm,
                               represent_rational_qg_delta,
                               representation_from_json, representation_to_json)
from conftest import random_binary_game, random_rational_game

F = Fraction
MP = matching_pennies().strategic
NT = new_technology(F(1))


def _transferred_pure_ne(rep):
    source_ne = {rep.encode(p) for p in pure_ne_scan(rep.source)}
    target_table = logical_to_strategic(rep.target)
    target_ne = {tuple(rep.target.strategies[i][k] for i, k in enumerate(ids))
                 for ids in pure_ne_scan(target_table)}
    return source_ne, target_ne


def test_nt_hand_written_pairing_passes():
    report = verify_representation(NT.representation)
    assert report.ok and report.affine
    assert NT.representation.g == Affine(F(2), F(-1))


def test_injected_fault_is_reported():
    rep = NT.representation
    broken = Representation(rep.source, rep.target, rep.coding, Affine(F(2), F(-2)))
    report = verify_representation(broken)
    assert not report.ok
    assert report.counterexample is not None
    assert "player" in report.message


def test_matching_pennies_boolean():
    rep = represent_binary_boolean(MP)
    assert rep.target.algebra.id == "BOOL2"
    assert verify_representation(rep).ok
    source_ne, target_ne = _transferred_pure_ne(rep)
    assert source_ne == target_ne == set()


def test_matching_pennies_chain_is_boolean_sized():
    rep = represent_binary_chain(MP)
    assert rep.target.algebra.id == "L_1"
    assert verify_representation(rep).ok


def test_binary_boolean_variable_counts():
    game = make_game((3, 2, 5), lambda p: (0, 0, 1) if sum(p) % 2 else (1, 1, 0))
    rep = represent_binary_boolean(game)
    assert tuple(len(b) for b in rep.target.variables) == (2, 1, 3)
    assert verify_representation(rep).ok


def test_single_strategy_player_controls_no_variables():
    game = make_game((1, 2), lambda p: (F(p[1]), F(1 - p[1])))
    rep = represent_binary_boolean(game)
    assert rep.target.variables[0] == ()
    assert rep.target.strategies[0] == ((),)
    assert verify_representation(rep).ok


def test_binary_chain_three_players():
    game = make_game((2, 3, 3), lambda p: tuple(
        F(1) if (sum(p) + i) % 2 else F(-1, 2) for i in range(3)))
    rep = represent_binary_chain(game)
    assert rep.target.algebra.id == "L_2"
    flags = [len(b) == 1 for b in rep.target.variables]
    assert all(flags)
    assert verify_representation(rep).ok


def test_binary_general_specializations():
    game = random_binary_game(random.Random(5))
    boolean = represent_binary_boolean(game)
    base2 = represent_binary_general(game, 1, catalog_lookup("BOOL2"))
    assert [len(b) for b in base2.target.variables] == \
           [len(b) for b in boolean.target.variables]
    assert verify_representation(base2).ok
    m = max(game.strategy_counts) - 1
    if m >= 1:
        chain = represent_binary_chain(game)
        general = represent_binary_general(game, m, catalog_lookup("L_n", m))
        assert general.coding == chain.coding
        assert verify_representation(general).ok


def test_constant_payoff_games_rejected():
    flat = make_game((2, 2), lambda p: (F(1), F(1)))
    for constructor in (represent_binary_boolean, represent_binary_chain,
                        represent_rational_qg_delta, represent_rational_gmc_delta,
                        represent_rational_lm):
        with pytest.raises(SemanticError):
            constructor(flat)


def test_nt_qg_delta():
    rep = represent_rational_qg_delta(NT.strategic)
    assert rep.target.algebra.id == "STD_QG_DELTA"
    assert rep.g == Affine(F(2), F(-1))
    assert verify_representation(rep).ok
    source_ne, target_ne = _transferred_pure_ne(rep)
    assert source_ne == target_ne == {((F(1),), (F(1),), (F(1),))}


def test_nt_gmc_delta_chain_size():
    rep = represent_rational_gmc_delta(NT.strategic)
    assert rep.target.algebra.id == "G_4_C_DELTA"
    assert verify_representation(rep).ok
    larger = represent_rational_gmc_delta(NT.strategic, m=6)
    assert larger.target.algebra.id == "G_6_C_DELTA"
    assert verify_representation(larger).ok
    with pytest.raises(SemanticError):
        represent_rational_gmc_delta(NT.strategic, m=3)


def test_nt_prime_chain():
    for m in (7, 11, 13):
        rep = represent_rational_lm(NT.strategic, m=m)
        assert rep.target.algebra.id == f"L_{m}"
        assert verify_representation(rep).ok
        source_ne, target_ne = _transferred_pure_ne(rep)
        assert source_ne == target_ne
    default = represent_rational_lm(NT.strategic)
    assert default.target.algebra.id == "L_5"   # smallest admissible prime
    assert verify_representation(default).ok
    with pytest.raises(SemanticError):
        represent_rational_lm(NT.strategic, m=6)
    with pytest.raises(SemanticError):
        represent_rational_lm(NT.strategic, m=3)


def test_general_on_nt_reproduces_equilibria():
    rep = represent_general(NT.strategic, catalog_lookup("L_4_C"),
                            anchors=[F(0), F(1)],
                            payoff_anchors=[F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    report = verify_representation(rep)
    assert report.ok and report.affine          # equally spaced anchors: affine table
    source_ne, target_ne = _transferred_pure_ne(rep)
    assert source_ne == target_ne == {((F(1),), (F(1),), (F(1),))}


def test_general_non_affine_table():
    game = make_game((2, 2), lambda p: (F(sum(p)), F(2 - sum(p))))
    rep = represent_general(game, catalog_lookup("L_4_C"),
                            anchors=[F(0), F(1, 2)],
                            payoff_anchors=[F(0), F(1, 4), F(1)])
    report = verify_representation(rep)
    assert report.ok and not report.affine
    source_ne, target_ne = _transferred_pure_ne(rep)
    assert source_ne == target_ne


def test_general_insufficient_anchors():
    with pytest.raises(SemanticError):
        represent_general(NT.strategic, catalog_lookup("L_4_C"),
                          anchors=[F(0)], payoff_anchors=[F(0), F(1)])
    with pytest.raises(SemanticError):
        represent_general(NT.strategic, catalog_lookup("L_4_C"),
                          anchors=[F(0), F(1)], payoff_anchors=[F(0), F(1)])


def test_table_transform_validation():
    with pytest.raises(SemanticError):
        Table(((F(0), F(1)), (F(1, 2), F(0))))
    with pytest.raises(SemanticError):
        Affine(F(0), F(1))
    table = Table(((F(0), F(-1)), (F(1, 2), F(0)), (F(1), F(5))))
    assert not table.is_affine()


def test_representation_json_round_trip():
    rep = NT.representation
    doc = representation_to_json(rep)
    again = representation_from_json(doc, rep.source, rep.target)
    assert again == rep
    table_rep = represent_general(NT.strategic, catalog_lookup("L_4_C"),
                                  anchors=[F(0), F(1)],
                                  payoff_anchors=[F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    doc = representation_to_json(table_rep)
    assert representation_from_json(doc, table_rep.source, table_rep.target) == table_rep


def transport_profile(rep, profile: MixedProfile) -> MixedProfile:
    """Push a source mixed profile through the coding bijections."""
    vectors = []
    for i, vector in enumerate(profile.probabilities):
        image = [F(0)] * len(vector)
        for s, prob in enumerate(vector):
            image[rep.target.strategies[i].index(rep.coding[i][s])] = prob
        vectors.append(tuple(image))
    return MixedProfile(tuple(vectors))


def test_mixed_equilibria_transfer_for_affine_reps(seed):
    # Affine representations preserve mixed equilibria (both directions),
    # cross-checked with the support-enumeration oracle on 2-player games.
    rng = random.Random(seed)
    checked = 0
    while checked < 25:
        game = random_rational_game(rng)
        if game.n_players != 2:
            continue
        rep = represent_rational_lm(game)
        assert verify_representation(rep).ok
        target_table = logical_to_strategic(rep.target)
        for candidate in find_mixed_2p(game):
            assert verify_mixed(target_table, transport_profile(rep, candidate.profile))
        for candidate in find_mixed_2p(target_table):
            back = MixedProfile(tuple(
                tuple(candidate.profile.probabilities[i]
                      [rep.target.strategies[i].index(rep.coding[i][s])]
                      for s in range(len(rep.coding[i])))
                for i in range(2)))
            assert verify_mixed(game, back)
        checked += 1