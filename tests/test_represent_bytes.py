"""Emitted bytes of every representation constructor and of the
equilibrium encodings built on them, pinned by digest.

Each constructor runs on a few fixed seeded games; the logical-game and
representation documents it emits are serialized canonically and hashed.
The printed existence formulas of both gamma routes and the printed mixed
formulas of the small targets are hashed the same way.  A refactor of the
constructors or the encodings must leave every digest unchanged.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mvgames import App, catalog_lookup, formula
from mvgames.equilibria import build_encoding, build_gamma_weak, build_mixed_encoding
from mvgames.formula import to_text
from mvgames.game import StrategicGame, lgame_to_json
from mvgames.represent import (represent_binary_boolean, represent_binary_chain,
                               represent_binary_general, represent_general,
                               represent_rational_gmc_delta, represent_rational_lm,
                               represent_rational_qg_delta, representation_to_json)
from conftest import random_binary_game, random_logical_game, random_rational_game

F = Fraction
SEEDS = (1, 2, 3, 4)

CONSTRUCTORS = {
    "ab_i": lambda binary, rational: represent_binary_boolean(binary),
    "ab_ii": lambda binary, rational: represent_binary_chain(binary),
    "ab_iii": lambda binary, rational: represent_binary_general(
        binary, 2, catalog_lookup("L_n", 2)),
    "ab_iii_elements": lambda binary, rational: represent_binary_general(
        binary, 1, catalog_lookup("STD_QG_DELTA"), [F(0), F(1, 2)]),
    "vi": lambda binary, rational: represent_rational_qg_delta(rational),
    "vi_gmc": lambda binary, rational: represent_rational_gmc_delta(rational),
    "vi_gmc_m": lambda binary, rational: represent_rational_gmc_delta(rational, 13),
    "vi_lm": lambda binary, rational: represent_rational_lm(rational),
    "vii": lambda binary, rational: represent_general(
        rational, catalog_lookup("L_n_C", 5), [F(k, 5) for k in range(4)],
        [F(k, 5) for k in range(6)]),
}

DIGESTS = {
    "ab_i": "3950c7d6cfcb5b9619226440fd8e602390fac243656588fe2d33d6a20b9aa16e",
    "ab_ii": "b6308aac652c00294c1e272ec49f24f489670fc51b007fd0cdfe30dc0e4fc9d3",
    "ab_iii": "92001be434632b60150b89f8414b639058bc0ee2daaac2cb0480b44223588482",
    "ab_iii_elements": "5a19a83c5e17a47499c53c1f58fce7a4f4ea41553469d363cbdd2243b31ff675",
    "vi": "c6a6556f5970ef8038f3ec6afddfe06e484f14965a449223850bc5e731a88fe3",
    "vi_gmc": "706a08db724e3de0a268a3f11c933906cef34d4cca7e235d209ce4a6b6227b4a",
    "vi_gmc_m": "7460a88240ae911a0d5627de9a1204e89dc9251601020a80c245fa16eed4573a",
    "vi_lm": "9d6c80853dbd6cdaa0934017d96e1e7f1b7619d8e95afda20d3667ea9bd1162f",
    "vii": "8987f08161de695d7c1194da83184b156bb8cd11bb677afa4863a0751230df9f",
}


def _games(seed):
    rng = random.Random(seed)
    return random_binary_game(rng), random_rational_game(rng)


def _digest(build) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        rep = build(*_games(seed))
        doc = [lgame_to_json(rep.target), representation_to_json(rep)]
        h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("method", sorted(CONSTRUCTORS))
def test_emitted_bytes_are_pinned(method):
    assert _digest(CONSTRUCTORS[method]) == DIGESTS[method]


def _disjuncts(phi):
    """The parts of a left-folded disjunction, in order."""
    parts = []
    while isinstance(phi, App) and phi.op == "or":
        parts.append(phi.args[1])
        phi = phi.args[0]
    return [phi] + parts[::-1]


def _payoffs_per_cell(game: StrategicGame) -> StrategicGame:
    """`game` with each payoff its own `Fraction` object, so equal payoffs
    are no longer one object."""
    return StrategicGame(game.strategy_names, {
        profile: tuple(F(v.numerator, v.denominator) for v in row)
        for profile, row in game.payoffs.items()})


@pytest.mark.parametrize("method", ["vi", "vi_gmc", "vi_lm", "vii"])
def test_basic_games_share_one_value_node_per_payoff(method):
    # Each disjunct is (value /\ conjunct), one per profile.  Equal payoffs
    # share one value node, whether or not they are one object, and the
    # emitted bytes are the same; vi_lm's zeta gadget reads the player's own
    # variable, so there a node is per (own strategy, payoff).
    for seed in SEEDS:
        binary, rational = _games(seed)
        shared = CONSTRUCTORS[method](binary, rational)
        per_cell = CONSTRUCTORS[method](_payoffs_per_cell(binary), _payoffs_per_cell(rational))
        assert lgame_to_json(per_cell.target) == lgame_to_json(shared.target)
        for rep in (shared, per_cell):
            profiles = list(rep.source.profiles())
            for i, phi in enumerate(rep.target.payoff_formulas):
                disjuncts = _disjuncts(phi)
                assert len(disjuncts) == len(profiles)
                node_at = {}
                for profile, disjunct in zip(profiles, disjuncts):
                    y = rep.source.payoff(profile, i)
                    key = (profile[i], y) if method == "vi_lm" else y
                    assert node_at.setdefault(key, disjunct.args[0]) is disjunct.args[0]
                assert len({id(node) for node in node_at.values()}) == len(node_at)


# vi_lm is left out: its printed encodings run to megabytes (the printer
# expands the shared zeta gadgets), and its constructor digest above already
# pins its payoff formulas.  The Godel targets have no product expansion,
# so they take part in the pure encodings only.
PURE_TARGETS = ("ab_i", "ab_ii", "ab_iii", "vi", "vi_gmc", "vii")
MIXED_TARGETS = ("ab_i", "ab_ii", "ab_iii", "vii")

ENCODINGS = {
    "existence": (PURE_TARGETS, lambda lg: build_encoding(lg).existence),
    "existence_weak": (PURE_TARGETS, lambda lg: build_gamma_weak(lg).existence),
    "mixed": (MIXED_TARGETS, lambda lg: build_mixed_encoding(lg).full),
}

ENCODING_DIGESTS = {
    "existence": "22745c89a7f990736d433d621ec90e54e08cea9427feb514ee5ce128b47364f8",
    "existence_weak": "0f7e8b35182c7e108f82562d657db94c4f0399f0d67a05384b81af9e51abb4f1",
    "mixed": "b493ac998f426b4b30a14c018a0006508ccaef8f9d28e960ec4f96044ff6eb54",
}


def _encoding_digest(targets, build) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        lgs = [CONSTRUCTORS[method](*_games(seed)).target for method in targets]
        lgs.append(random_logical_game(random.Random(seed)))
        for lg in lgs:
            h.update(to_text(build(lg)).encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_encoding_bytes_are_pinned(encoding):
    assert _encoding_digest(*ENCODINGS[encoding]) == ENCODING_DIGESTS[encoding]


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_encodings_print_without_literal_copies(encoding, monkeypatch):
    # The printer reads each explicit substitution in place: with
    # `substitute` unavailable the encodings still print the pinned bytes.
    def no_copy(*args):
        raise AssertionError("the printer built a literal copy")

    monkeypatch.setattr(formula, "substitute", no_copy)
    assert _encoding_digest(*ENCODINGS[encoding]) == ENCODING_DIGESTS[encoding]
