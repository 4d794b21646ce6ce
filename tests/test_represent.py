"""Representation constructors and exhaustive verification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (App, Const, LogicalGame, MixedProfile, StrategicGame, Var,
                     catalog_lookup, find_mixed_2p, logical_to_strategic,
                     matching_pennies, new_technology, payoff, pure_ne_scan,
                     verify_mixed, verify_representation)
from mvgames.algebra import format_rational
from mvgames.errors import SemanticError
from mvgames.game import game_from_json, make_game
from mvgames.represent import (Affine, Representation, Table, VerificationReport,
                               represent_binary_boolean, represent_binary_chain,
                               represent_binary_general, represent_general,
                               represent_rational_gmc_delta, represent_rational_lm,
                               represent_rational_qg_delta,
                               representation_from_json, representation_to_json)
from conftest import PAYOFF_POOL, random_binary_game, random_rational_game

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


def reference_verify_representation(rep):
    """The check by one `payoff` call per profile and one application of g
    per cell, on a table no fill reads: `verify_representation` must report
    the same first counterexample, with the same message."""
    affine = rep.is_affine()
    for profile in rep.source.profiles():
        try:
            values = payoff(rep.target, rep.encode(profile))
        except SemanticError as exc:
            return VerificationReport(False, affine, (profile, None, None, None),
                                      f"profile {profile}: {exc}")
        for i in range(rep.source.n_players):
            expected = rep.source.payoff(profile, i)
            try:
                actual = rep.g(values[i])
            except SemanticError as exc:
                return VerificationReport(False, affine, (profile, i, expected, None),
                                          f"profile {profile}, player {i + 1}: {exc}")
            if actual != expected:
                return VerificationReport(
                    False, affine, (profile, i, expected, actual),
                    f"profile {profile}, player {i + 1}: "
                    f"g(phi) = {actual} but f = {expected}")
    return VerificationReport(True, affine)


def _same_report(make):
    """`make()` builds a fresh representation (so neither check reads a
    table the other filled); both checks must report alike."""
    report = verify_representation(make())
    assert report == reference_verify_representation(make())
    return report


def _with_payoffs(rep, change):
    """`rep` with its source payoffs rewritten by `change(profile, values)`."""
    payoffs = {p: change(p, values) for p, values in rep.source.payoffs.items()}
    source = StrategicGame(rep.source.strategy_names, payoffs)
    return Representation(source, rep.target, rep.coding, rep.g)


def test_verify_matches_reference_on_injected_payoff_faults(battery):
    rng = random.Random(5)
    methods = [represent_rational_qg_delta, represent_rational_lm, represent_rational_gmc_delta]
    failed = 0
    for k, (game, _) in enumerate(battery[:30]):
        method = methods[k % 3]
        profiles = list(game.profiles())
        faults = {profiles[rng.randrange(len(profiles))]: rng.randrange(game.n_players)
                  for _ in range(rng.randint(0, 2))}

        def make():
            return _with_payoffs(method(game), lambda p, values: tuple(
                v + F(1, 7) if faults.get(p) == i else v for i, v in enumerate(values)))
        report = _same_report(make)
        assert report.ok == (not faults)
        failed += not report.ok
    assert failed > 10


def test_verify_over_rows_matches_reference_on_every_method(battery):
    rng = random.Random(11)
    chain2, chain5c = catalog_lookup("L_n", 2), catalog_lookup("L_n_C", 5)
    methods = [represent_rational_qg_delta, represent_rational_gmc_delta, represent_rational_lm,
               lambda game: represent_general(game, chain5c, [F(k, 5) for k in range(4)],
                                              [F(k, 5) for k in range(6)])]
    binary = [represent_binary_boolean, represent_binary_chain,
              lambda game: represent_binary_general(game, 2, chain2)]
    over_rows = failed = 0
    for k, (rational, two_valued) in enumerate(battery[:35]):
        method, game = (methods[k % 4], rational) if k % 7 < 4 else (binary[k % 3], two_valued)
        profiles = list(game.profiles())
        faults = {profiles[rng.randrange(len(profiles))]: rng.randrange(game.n_players)
                  for _ in range(rng.randint(0, 2))}

        def make():
            return _with_payoffs(method(game), lambda p, values: tuple(
                v - F(1, 3) if faults.get(p) == i else v for i, v in enumerate(values)))
        rep = make()
        report = verify_representation(rep)
        assert report == reference_verify_representation(make())
        assert report.ok == (not faults)
        over_rows += rep.target.payoff_table.rows is not None
        failed += not report.ok
    assert over_rows > 30 and failed > 10


def test_verify_matches_reference_when_table_transform_raises():
    game = make_game((2, 3), lambda p: (F(p[0] + p[1]), F(2 - p[1])))

    def make(drop):
        rep = represent_general(game, catalog_lookup("L_4_C"), [F(0), F(1, 4), F(1, 2)],
                                [F(k, 4) for k in range(5)])
        points = rep.g.points[:drop] + rep.g.points[drop + 1:]
        return Representation(rep.source, rep.target, rep.coding, Table(points))
    for drop in range(4):
        report = _same_report(lambda: make(drop))
        assert not report.ok and "payoff transform undefined at" in report.message
        assert report.counterexample[3] is None


def test_verify_matches_reference_with_affine_transforms():
    for g in (Affine(F(2), F(-1)), Affine(F(2), F(-2)), Affine(F(1), F(-1)),
              Affine(F(3, 2), F(-1, 2))):
        def make():
            bundle = new_technology(F(1))
            return Representation(bundle.strategic, bundle.logical,
                                  bundle.representation.coding, g)
        report = _same_report(make)
        assert report.ok == (g == Affine(F(2), F(-1))) and report.affine


def test_verify_matches_reference_when_a_payoff_formula_fails_to_compile():
    strategies = ((F(0),), (F(1),))
    game = make_game((2, 2), lambda p: (F(p[0]), F(p[1])))
    for bad in (App("delta", (Var("a"),)), App("and", (Var("a"), Const(F(1, 3))))):
        def make():
            target = LogicalGame(catalog_lookup("L_n", 2), (("a",), ("b",)),
                                 (strategies, strategies), (bad, Var("b")))
            return Representation(game, target, (strategies, strategies), Affine(F(1), F(0)))
        report = _same_report(make)
        assert not report.ok and report.counterexample == ((0, 0), None, None, None)


def _payoff_literal(v: Fraction, doubled: bool) -> str:
    """`v` as a payoff literal, in lowest terms or with both terms doubled."""
    return f"{2 * v.numerator}/{2 * v.denominator}" if doubled else format_rational(v)


_L5C = catalog_lookup("L_n_C", 5)
DRAWN_METHODS = {
    "vi": represent_rational_qg_delta,
    "vi_gmc": represent_rational_gmc_delta,
    "vi_lm": represent_rational_lm,
    "vii": lambda game: represent_general(game, _L5C, [F(k, 5) for k in range(4)],
                                          [F(k, 5) for k in range(6)]),
    "ab_i": represent_binary_boolean,
    "ab_ii": represent_binary_chain,
    "ab_iii": lambda game: represent_binary_general(game, 2, catalog_lookup("L_n", 2)),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_verify_matches_reference_on_drawn_games(data):
    # Equal payoffs are one shared object, a `Fraction` built per cell, or
    # parsed from "1/2" and "2/4" alike; the check keys cells on payoff
    # objects, so it must report what the per-cell reference reports.
    counts = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3), label="counts")
    counts[0] = max(counts[0], 2)
    levels = sorted(data.draw(st.lists(st.sampled_from(PAYOFF_POOL), min_size=2, max_size=5,
                                       unique=True), label="levels"))
    profiles = list(itertools.product(*map(range, counts)))
    size = len(profiles) * len(counts)
    picks = data.draw(st.lists(st.integers(0, len(levels) - 1), min_size=size, max_size=size),
                      label="picks")
    picks[:2] = [0, len(levels) - 1]       # at least two payoff values
    objects = data.draw(st.sampled_from(["shared", "per cell", "parsed"]), label="objects")
    cells = iter(picks)
    if objects == "parsed":
        doc = {"players": len(counts),
               "strategies": [[f"s{k}" for k in range(c)] for c in counts],
               "payoffs": [[_payoff_literal(levels[next(cells)], data.draw(st.booleans()))
                            for _ in counts] for _ in profiles]}
        game = game_from_json(doc)
    else:
        def value(v):
            return v if objects == "shared" else F(v.numerator, v.denominator)
        game = StrategicGame(tuple(tuple(f"s{k}" for k in range(c)) for c in counts),
                             {p: tuple(value(levels[next(cells)]) for _ in counts)
                              for p in profiles})
    values = game.payoff_values()
    names = [name for name in sorted(DRAWN_METHODS) if name.startswith("ab") == (len(values) == 2)]
    method = DRAWN_METHODS[data.draw(st.sampled_from(names), label="method")]
    faults = data.draw(st.lists(st.tuples(st.sampled_from(profiles),
                                          st.integers(0, len(counts) - 1),
                                          st.sampled_from(PAYOFF_POOL + [F(1, 7)])),
                                max_size=2), label="faults")
    transform = data.draw(st.sampled_from(["as built", "shifted", "dropped point"]),
                          label="transform")
    drop = data.draw(st.integers(0, len(values) - 1), label="drop")

    def make():
        rep = method(game)
        g = rep.g
        if transform == "shifted":
            g = Affine(g.slope, g.shift + F(1, 2)) if isinstance(g, Affine) else \
                Table(tuple((x, y + 1) for x, y in g.points))
        elif transform == "dropped point" and isinstance(g, Table):
            g = Table(g.points[:drop] + g.points[drop + 1:])
        fault_at = {(p, i): F(v.numerator, v.denominator) for p, i, v in faults}
        return _with_payoffs(Representation(game, rep.target, rep.coding, g),
                             lambda p, row: tuple(fault_at.get((p, i), v)
                                                  for i, v in enumerate(row)))
    rep = make()
    assert verify_representation(rep) == reference_verify_representation(make())
    assert rep.target.payoff_table.rows is not None


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


@pytest.mark.parametrize("player, codes, message", [
    (0, ((F(0),),), "player 1: coding must cover every strategy"),
    (1, ((F(1),), (F(1),)), "player 2: coding must be a bijection onto the target strategies"),
    (2, ((F(0),), (F(1, 2),)), "player 3: coding must be a bijection onto the target strategies"),
    (0, ((0.0,), (1.0,)), "player 1: coding must be a bijection onto the target strategies"),
    (1, (F(0), F(1)), "player 2: coding must be a bijection onto the target strategies"),
    (0, ((1,), (F(0),)), None),             # equal values as other objects, swapped
    (2, ((F(0, 5),), (F(4, 4),)), None),
])
def test_coding_must_be_a_bijection_onto_the_target_strategies(player, codes, message):
    rep = NT.representation
    coding = rep.coding[:player] + (codes,) + rep.coding[player + 1:]
    if message is None:
        assert Representation(rep.source, rep.target, coding, rep.g).coding[player] == codes
        return
    with pytest.raises(SemanticError) as info:
        Representation(rep.source, rep.target, coding, rep.g)
    assert str(info.value) == message


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