"""The named sample games reproduce their published payoff tables."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from mvgames import (evaluate, love_and_hate, matching_pennies, new_technology,
                     payoff, verify_representation, vickrey)
from mvgames.cli import main
from mvgames.errors import SemanticError
from mvgames.game import game_to_json, make_game

F = Fraction


def test_new_technology_tables():
    game = new_technology(F(1)).strategic
    expected = {
        (1, 1, 1): (0, 0, 0),
        (1, 0, 1): (F(1, 2), -1, F(1, 2)),
        (0, 1, 1): (-1, F(1, 2), F(1, 2)),
        (0, 0, 1): (F(-1, 2), F(-1, 2), 1),
        (1, 1, 0): (F(1, 2), F(1, 2), -1),
        (1, 0, 0): (1, F(-1, 2), F(-1, 2)),
        (0, 1, 0): (F(-1, 2), 1, F(-1, 2)),
        (0, 0, 0): (0, 0, 0),
    }
    for profile, row in expected.items():
        assert game.payoffs[profile] == tuple(F(v) for v in row)
    assert all(sum(row) == 0 for row in game.payoffs.values())   # zero-sum
    scaled = new_technology(F(2)).strategic
    assert scaled.payoffs[(1, 0, 0)] == (F(2), F(-1), F(-1))


def test_new_technology_rejects_bad_edge():
    with pytest.raises(SemanticError):
        new_technology(F(0))


def test_matching_pennies_transformed_table():
    game = matching_pennies().strategic
    assert game.strategy_names == (("h", "t"), ("h", "t"))
    assert game.payoffs == {
        (0, 0): (F(1), F(0)), (0, 1): (F(0), F(1)),
        (1, 0): (F(0), F(1)), (1, 1): (F(1), F(0)),
    }


def test_love_and_hate_payoffs_match_distance():
    bundle = love_and_hate(2, 4)

    def h(x, y):
        return 2 * min(abs(x - y), 1 - abs(x - y))

    for profile in bundle.strategic.profiles():
        x, y = F(profile[0], 4), F(profile[1], 4)
        assert bundle.strategic.payoffs[profile] == (h(x, y), 1 - h(x, y))
    # eta realizes h on the chain
    alg = bundle.logical.algebra
    eta = bundle.logical.payoff_formulas[0]
    for profile in bundle.logical.profiles():
        env = bundle.logical.assignment(profile)
        assert evaluate(eta, alg, env) == h(env["v1"], env["v2"])


def test_love_and_hate_four_players_cycle():
    bundle = love_and_hate(4, 2)
    game = bundle.strategic
    profile = (0, 1, 2, 0)       # values 0, 1/2, 1, 0
    values = [F(s, 2) for s in profile]

    def h(x, y):
        return 2 * min(abs(x - y), 1 - abs(x - y))

    expected = (h(values[0], values[1]), 1 - h(values[1], values[2]),
                h(values[2], values[3]), 1 - h(values[3], values[0]))
    assert game.payoffs[profile] == expected
    assert verify_representation(bundle.representation).ok


@pytest.mark.parametrize("n, m", [(2, 2), (4, 4), (4, 6), (6, 2)])
def test_love_and_hate_payoffs_equal_the_chain_value_formula(n, m):
    # The payoffs come from strategy indices; the table and its game.json
    # bytes are those of the gap of the chain values s/m themselves.
    def h(x, y):
        return 2 * min(abs(x - y), 1 - abs(x - y))

    def payoff_vector(profile):
        values = [F(s, m) for s in profile]
        return tuple(h(values[i], values[(i + 1) % n]) if i % 2 == 0
                     else 1 - h(values[i], values[(i + 1) % n]) for i in range(n))

    game = love_and_hate(n, m).strategic
    reference = make_game(game.strategy_counts, payoff_vector, names=game.strategy_names)
    assert game.payoffs == reference.payoffs
    assert json.dumps(game_to_json(game)) == json.dumps(game_to_json(reference))


def test_love_and_hate_parameter_validation():
    for n, m in ((3, 4), (0, 4), (2, 3), (2, 0)):
        with pytest.raises(SemanticError):
            love_and_hate(n, m)


def test_vickrey_payoffs_and_formulas():
    p = [F(3, 4), F(1, 2), F(1, 4)]
    bundle = vickrey(p, F(1), F(1, 4))
    game = bundle.strategic
    # Winner pays the second-highest bid; lowest index wins ties.
    assert game.payoffs[(2, 1, 0)] == (p[0] - F(1, 4), 0, 0)
    assert game.payoffs[(2, 2, 2)] == (p[0] - F(1, 2), 0, 0)
    assert game.payoffs[(0, 4, 1)] == (0, p[1] - F(1, 4), 0)
    report = verify_representation(bundle.representation)
    assert report.ok and report.affine


@pytest.mark.parametrize("values, t, step", [
    ([F(3, 4), F(5, 8), F(1, 2)], F(1), F(1, 8)),
    ([F(3, 4), F(1, 2), F(1, 4)], F(1), F(1, 4)),
    ([F(1, 2), F(1, 2)], F(1), F(1, 2)),                   # equal values
    ([F(0), F(2, 3), F(1, 3), F(2, 3)], F(1), F(1, 3)),
    ([F(5, 2), F(7, 4)], F(3), F(3, 4)),
])
def test_vickrey_payoffs_equal_the_bid_value_formula(values, t, step):
    # The payoffs come from bid indices; the table and its game.json bytes
    # are those of the auction on the bids themselves, ties to the lowest id.
    bids = [k * step for k in range(int(t / step) + 1)]

    def payoff_vector(profile):
        chosen = [bids[k] for k in profile]
        winner = chosen.index(max(chosen))
        out = [F(0)] * len(values)
        out[winner] = values[winner] - max(b for j, b in enumerate(chosen) if j != winner)
        return tuple(out)

    game = vickrey(values, t, step).strategic
    reference = make_game(game.strategy_counts, payoff_vector, names=game.strategy_names)
    assert game.payoffs == reference.payoffs
    assert json.dumps(game_to_json(game)) == json.dumps(game_to_json(reference))


@pytest.mark.parametrize("argv, digest", [
    (["vickrey", "--p", "3/4,5/8,1/2", "--t", "1", "--grid-step", "1/8"],
     "2bbab2d35791be5f1e1936bb6579cab278c87e4b21529d7edce0040e1797e741"),
    (["love_and_hate", "--n", "4", "--m", "4"],
     "e269a9c8898cec628093eabb58faa6acbd0aa6eafc8c20c4c5e8767a66d8d319"),
])
def test_corpus_game_file_bytes_are_pinned(tmp_path, capsys, argv, digest):
    assert main(["corpus", *argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "game.json").read_bytes()).hexdigest() == digest


def test_vickrey_winner_indicator():
    bundle = vickrey([F(3, 4), F(1, 2)], F(1), F(1, 2))
    lg = bundle.logical
    # iota_i is the delta-guarded prefix of phi_i; probe via payoffs instead:
    # the loser's formula value must be exactly 1/2.
    for ids in itertools.product(range(3), repeat=2):
        profile = tuple(lg.strategies[i][k] for i, k in enumerate(ids))
        values = payoff(lg, profile)
        bids = [F(k, 2) for k in ids]
        winner = 0 if bids[0] >= bids[1] else 1
        assert values[1 - winner] == F(1, 2)
        assert values[winner] != F(1, 2) or \
            bundle.strategic.payoffs[ids][winner] == 0


def test_vickrey_parameter_validation():
    with pytest.raises(SemanticError):
        vickrey([F(1, 2)], F(1), F(1, 8))              # one bidder
    with pytest.raises(SemanticError):
        vickrey([F(1, 2), F(2)], F(1), F(1, 8))        # value above the cap
    with pytest.raises(SemanticError):
        vickrey([F(1, 2), F(1, 4)], F(1), F(3, 7))     # step does not divide t
    with pytest.raises(SemanticError):
        vickrey([F(1, 2), F(-1, 4)], F(1), F(1, 8))    # negative value
