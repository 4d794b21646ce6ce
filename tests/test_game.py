"""Game data model: payoffs, classification, invariances, file round-trips."""

import builtins
import itertools
import json
import os
import random
import stat
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (App, Const, LogicalGame, MixedProfile, StrategicGame, Subst, Var,
                     catalog_lookup, classify, dirac, logical_to_strategic,
                     love_and_hate, new_technology, parse, payoff, pure_ne_scan,
                     relevant_elements, verify_mixed, vickrey)
from mvgames.algebra import format_rational
from mvgames.errors import SemanticError
from mvgames.formula import Program, pairs
from mvgames.game import (dump_json, format_strategy, game_from_json, game_to_json,
                          lgame_from_json, lgame_to_json, load_json, make_game,
                          profile_from_json, profile_to_json, write_text)
from conftest import random_rational_game
from test_column_fill import games as column_fill_games

F = Fraction
NT = new_technology(F(1))


def _t(*values):
    return tuple((F(v),) for v in values)


def test_nt_payoffs():
    assert payoff(NT.logical, _t(1, 0, 0)) == (F(1), F(1, 4), F(1, 4))
    assert payoff(NT.logical, _t(0, 0, 0))[0] == F(1, 2)
    assert payoff(NT.logical, _t(1, 1, 1)) == (F(1, 2),) * 3


def test_payoff_rejects_off_set_profiles():
    with pytest.raises(SemanticError):
        payoff(NT.logical, _t(1, 0, "1/2"))


def test_payoff_locality():
    # Two logical games differing only in strategy sets agree wherever both play.
    lg = NT.logical
    widened = LogicalGame(lg.algebra, lg.variables,
                          tuple(block + ((F(1, 2),),) for block in lg.strategies),
                          lg.payoff_formulas)
    for profile in lg.profiles():
        assert payoff(lg, profile) == payoff(widened, profile)


def test_relevant_elements():
    assert relevant_elements(NT.logical) == (F(0), F(1))
    alg = catalog_lookup("L_4")
    chain = tuple((F(k, 4),) for k in range(5))
    full_game = LogicalGame(alg, (("v1",), ("v2",)), (chain, chain),
                            (parse("v1"), parse("v2")))
    assert relevant_elements(full_game) == tuple(F(k, 4) for k in range(5))
    singleton = LogicalGame(alg, (("v1",), ("v2",)),
                            (((F(1, 2),),), ((F(1, 2),),)),
                            (parse("v1"), parse("v2")))
    assert relevant_elements(singleton) == (F(1, 2),)


def test_classify_nt():
    flags = classify(NT.logical)
    assert flags.expressible
    assert flags.full is False
    assert flags.weakly_expressible


def test_classify_weak_and_full():
    alg = catalog_lookup("L_4")
    chain = tuple((F(k, 4),) for k in range(5))
    full_game = LogicalGame(alg, (("v1",), ("v2",)), (chain, chain),
                            (parse("v1"), parse("v2")))
    flags = classify(full_game)
    assert flags.full is True
    assert not flags.expressible and flags.weakly_expressible


def test_classify_infinite_domain_full_unknown():
    alg = catalog_lookup("STD_L")
    lg = LogicalGame(alg, (("v1",), ("v2",)),
                     (((F(0),), (F(1),)), ((F(0),), (F(1),))),
                     (parse("v1"), parse("v2")))
    flags = classify(lg)
    assert flags.full is None
    assert flags.expressible   # relevant set {0,1} has constants


def test_pure_ne_scan_logical_nt():
    # strategy ranks: (1, 1, 1) plays the values 1, 1, 1
    assert pure_ne_scan(NT.logical) == [(1, 1, 1)]


def test_single_strategy_profile_is_equilibrium():
    alg = catalog_lookup("L_4")
    lg = LogicalGame(alg, (("v1",), ("v2",)),
                     (((F(1, 2),),), ((F(1, 4),),)),
                     (parse("v1"), parse("v2")))
    assert pure_ne_scan(lg) == [(0, 0)]


def test_variable_blocks_must_be_disjoint():
    alg = catalog_lookup("L_4")
    with pytest.raises(SemanticError):
        LogicalGame(alg, (("v1",), ("v1",)),
                    (((F(0),),), ((F(0),),)), (parse("v1"), parse("v1")))


def _xy_game(*formulas):
    """A game over L_4: player 1 controls x, player 2 controls y."""
    values = tuple((F(k, 4),) for k in range(5))
    return LogicalGame(catalog_lookup("L_4"), (("x",), ("y",)), (values, values), formulas)


X, Y, GHOST = Var("x"), Var("y"), Var("ghost")
OFF_SIGNATURE = App("odot", (X, Y))     # L_4 has no odot: it does not compile


@pytest.mark.parametrize("formulas, message", [
    ((X, App("and", (Var("z"), App("or", (Var("a"), Y))))),
     "payoff formula of player 2 uses unknown variables ['a', 'z']"),
    ((App("or", (X, Var("b"))), App("and", (Var("a"), Y))),
     "payoff formula of player 1 uses unknown variables ['b']"),
    ((X, App("or", (Y, App("and", (GHOST, Const(F(0))))))),
     "payoff formula of player 2 uses unknown variables ['ghost']"),
    ((Subst(App("or", (X, Var("w"))), (("w", GHOST),)), Y),
     "payoff formula of player 1 uses unknown variables ['ghost']"),
    ((OFF_SIGNATURE, App("and", (Y, GHOST))),
     "payoff formula of player 2 uses unknown variables ['ghost']"),
    ((App("or", (OFF_SIGNATURE, GHOST)), Y),
     "payoff formula of player 1 uses unknown variables ['ghost']"),
], ids=["sorted", "first player", "folded away", "subst binding", "other does not compile",
        "same does not compile"])
def test_construction_rejects_unknown_variables(formulas, message):
    with pytest.raises(SemanticError) as info:
        _xy_game(*formulas)
    assert str(info.value) == message


@pytest.mark.parametrize("read", ["rows", "numerators", "at", "program"])
def test_a_formula_that_only_fails_to_compile_raises_at_the_first_read(read):
    lg = _xy_game(X, App("or", (Y, OFF_SIGNATURE)))
    table, first = lg.payoff_table, [F(0), F(0)]
    reads = {"rows": lambda: table.rows, "numerators": lambda: table.numerators,
             "at": lambda: table.at(pairs(first), first), "program": lambda: table.program}
    with pytest.raises(SemanticError) as info:
        reads[read]()
    assert str(info.value) == "connective 'odot' not in signature of L_4"


def test_monotone_transform_invariance(seed):
    rng = random.Random(seed)
    for _ in range(40):
        game = random_rational_game(rng)
        maps = []
        for i in range(game.n_players):
            values = sorted({row[i] for row in game.payoffs.values()})
            den = rng.randint(1, 3)
            images = [F(x, den) for x in sorted(rng.sample(range(-20, 40), len(values)))]
            maps.append(dict(zip(values, images)))
        transformed = {p: tuple(maps[i][row[i]] for i in range(game.n_players))
                       for p, row in game.payoffs.items()}
        image = StrategicGame(game.strategy_names, transformed)
        assert pure_ne_scan(game) == pure_ne_scan(image)


def test_relabeling_invariance(seed):
    rng = random.Random(seed)
    for _ in range(40):
        game = random_rational_game(rng)
        perms = [list(range(c)) for c in game.strategy_counts]
        for p in perms:
            rng.shuffle(p)
        relabeled = {
            tuple(perms[i][s] for i, s in enumerate(profile)): row
            for profile, row in game.payoffs.items()}
        image = StrategicGame(game.strategy_names, relabeled)
        expected = sorted(tuple(perms[i][s] for i, s in enumerate(ne))
                          for ne in pure_ne_scan(game))
        assert expected == sorted(pure_ne_scan(image))


def test_restriction_preserves_equilibria(seed):
    rng = random.Random(seed)
    kept_any = 0
    for _ in range(60):
        game = random_rational_game(rng)
        equilibria = pure_ne_scan(game)
        if not equilibria:
            continue
        star = rng.choice(equilibria)
        keep = [sorted({star[i]} | set(rng.sample(range(c), rng.randint(1, c))))
                for i, c in enumerate(game.strategy_counts)]
        restricted = make_game(
            [len(k) for k in keep],
            lambda profile: game.payoffs[tuple(keep[i][s]
                                               for i, s in enumerate(profile))])
        reindexed = tuple(keep[i].index(star[i]) for i in range(game.n_players))
        assert reindexed in pure_ne_scan(restricted)
        kept_any += 1
    assert kept_any > 10


def test_strategic_game_file_round_trip():
    doc = game_to_json(NT.strategic)
    assert doc["players"] == 3
    assert game_from_json(doc) == NT.strategic


@st.composite
def strategic_games(draw):
    """Payoffs from a small pool, some of them equal objects of their own."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    pool = st.sampled_from(draw(st.lists(values, min_size=1, max_size=6)))
    copies = st.one_of(pool, pool.map(lambda v: F(v.numerator, v.denominator)))
    return make_game(counts, lambda profile: [draw(copies) for _ in counts])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(strategic_games())
def test_game_file_formats_each_payoff_as_its_own_text(game):
    doc = game_to_json(game)
    assert doc["payoffs"] == [[format_rational(v) for v in game.payoffs[p]]
                              for p in game.profiles()]
    assert game_from_json(doc) == game


def test_logical_game_file_round_trip():
    doc = lgame_to_json(NT.logical)
    again = lgame_from_json(doc)
    assert again.algebra.id == NT.logical.algebra.id
    assert again.variables == NT.logical.variables
    assert again.strategies == NT.logical.strategies
    assert [payoff(again, p) for p in again.profiles()] == \
           [payoff(NT.logical, p) for p in NT.logical.profiles()]


def test_large_vi_logical_game_file_round_trip():
    from mvgames import represent_rational_qg_delta
    rng = random.Random(22)
    source = make_game((22, 22), lambda p: [F(rng.randint(0, 4), 4) for _ in p])
    lg = represent_rational_qg_delta(source).target
    doc = lgame_to_json(lg)
    again = lgame_from_json(doc)
    assert lgame_to_json(again) == doc
    for profile in [next(lg.profiles()), (lg.strategies[0][-1], lg.strategies[1][7])]:
        assert payoff(again, profile) == payoff(lg, profile)


def test_deep_payoff_formula_is_stack_safe():
    # disj_all nests left-deep, one level per disjunct: 5000 levels.
    from mvgames.formula import App, Const, Var, disj_all, to_text
    steps = 5000
    payoffs = tuple(disj_all(App("and", (Var(name), Const(F(k, steps))))
                             for k in range(steps)) for name in ("x", "y"))
    lg = LogicalGame(catalog_lookup("STD_QG"), (("x",), ("y",)),
                     (_t(0, 1), _t(0, 1)), payoffs)
    top = F(steps - 1, steps)
    assert payoff(lg, ((F(1),), (F(0),))) == (top, 0)
    assert pure_ne_scan(lg) == [(1, 1)]
    doc = lgame_to_json(lg)
    assert doc["payoff_formulas"][0] == to_text(payoffs[0])
    assert doc["payoff_formulas"][0].startswith("(" * steps)
    again = lgame_from_json(doc)
    assert payoff(again, ((F(0),), (F(1),))) == (0, top)


def test_profile_file_round_trip():
    profile = MixedProfile(((F(1, 2), F(0), F(1, 2)), (F(1), F(0), F(0))))
    doc = profile_to_json(profile)
    assert doc[0] == {"0": "1/2", "2": "1/2"}
    assert profile_from_json(doc, (3, 3)) == profile


def test_mixed_profile_validation():
    with pytest.raises(SemanticError):
        MixedProfile(((F(1, 2), F(1, 3)),))
    with pytest.raises(SemanticError):
        MixedProfile(((F(3, 2), F(-1, 2)),))
    d = dirac((2, 3), (1, 0))
    assert d.probabilities == ((F(0), F(1)), (F(1), F(0), F(0)))


def reference_profile_error(probabilities):
    """The message of the `Fraction`-sum rule, or None for a valid profile."""
    for i, vector in enumerate(probabilities):
        if any(p < 0 for p in vector):
            return f"player {i + 1}: negative probability"
        if sum(vector) != 1:
            return f"player {i + 1}: probabilities sum to {sum(vector)}, not 1"
    return None


def profile_error(probabilities):
    try:
        MixedProfile(probabilities)
    except SemanticError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("probabilities, message", [
    (((F(1),), (F(3, 2), F(-1, 2))), "player 2: negative probability"),
    (((F(1, 2), F(1)),), "player 1: probabilities sum to 3/2, not 1"),
    (((F(1, 2), F(-1, 2), F(2)),), "player 1: negative probability"),
    (((1, 0), (0, 1)), None),
    (((F(1, 3), 0, F(2, 3)),), None),
    (((1, 1),), "player 1: probabilities sum to 2, not 1"),
    (((F(1, 6), 0),), "player 1: probabilities sum to 1/6, not 1"),
    (((),), "player 1: probabilities sum to 0, not 1"),
    ((), None),
])
def test_mixed_profile_validation_messages(probabilities, message):
    # The check runs on integers over each vector's lcm; ints, mixed int and
    # Fraction entries and an empty vector read as they did under Fraction sums.
    assert profile_error(probabilities) == message
    assert reference_profile_error(probabilities) == message


@st.composite
def probability_vectors(draw):
    """Up to three vectors, each a distribution, perhaps perturbed at one
    entry and perhaps with its integral entries as ints."""
    vectors = []
    for _ in range(draw(st.integers(0, 3))):
        weights = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
        vector = [F(w, sum(weights) or 1) for w in weights]
        if draw(st.booleans()):
            vector[draw(st.integers(0, len(vector) - 1))] += draw(
                st.fractions(min_value=-1, max_value=1, max_denominator=12))
        if draw(st.booleans()):
            vector = [int(p) if p.denominator == 1 else p for p in vector]
        vectors.append(tuple(vector))
    return tuple(vectors)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(probability_vectors())
def test_mixed_profile_check_matches_fraction_sum_rule(probabilities):
    assert profile_error(probabilities) == reference_profile_error(probabilities)


def test_logical_to_strategic_matches_payoffs():
    table = logical_to_strategic(NT.logical)
    assert table.strategy_counts == (2, 2, 2)
    for ids in table.profiles():
        profile = tuple(NT.logical.strategies[i][k] for i, k in enumerate(ids))
        assert table.payoffs[ids] == payoff(NT.logical, profile)


def reference_logical_to_strategic(lg):
    """The collapse by one `Program([phi], alg).run` per formula and profile."""
    programs = [Program([phi], lg.algebra) for phi in lg.payoff_formulas]
    payoffs = {}
    for ids in itertools.product(*[range(len(block)) for block in lg.strategies]):
        env = lg.assignment(tuple(lg.strategies[i][k] for i, k in enumerate(ids)))
        payoffs[ids] = tuple(program.run(env)[0] for program in programs)
    names = tuple(tuple(map(format_strategy, block)) for block in lg.strategies)
    return StrategicGame(names, payoffs)


def _assert_collapses_as_reference(lg):
    table, reference = logical_to_strategic(lg), reference_logical_to_strategic(lg)
    assert table.strategy_names == reference.strategy_names
    assert table.payoffs == reference.payoffs
    assert list(table.payoffs) == list(reference.payoffs)


def test_logical_to_strategic_matches_reference_on_the_corpus():
    for bundle in (new_technology(F(1)), new_technology(F(3, 2)), love_and_hate(2, 4),
                   love_and_hate(4, 4), vickrey([F(3, 4), F(5, 8), F(1, 2)], F(1), F(1, 8))):
        _assert_collapses_as_reference(bundle.logical)


QUARTERS = [F(k, 4) for k in range(5)]


@st.composite
def logical_games(draw):
    """Logical games over L_4 with constants: 1-3 players of 0-2 variables
    and 1-3 strategies, so some players have one strategy (every player
    without variables has one), and formulas that read any subset of the
    variables, none included."""
    n = draw(st.integers(1, 3))
    variables = tuple(tuple(f"v{i + 1}_{j + 1}" for j in range(draw(st.integers(0, 2))))
                      for i in range(n))
    strategies = tuple(
        tuple(draw(st.lists(st.tuples(*[st.sampled_from(QUARTERS)] * len(block)),
                            min_size=1, max_size=3, unique=True)))
        for block in variables)
    leaves = st.sampled_from([Var(v) for block in variables for v in block]
                             + [Const(x) for x in QUARTERS])
    ops = st.sampled_from(["and", "or", "imp", "and_strong", "oplus", "ominus"])
    formulas = st.recursive(leaves, lambda sub: st.one_of(
        st.builds(lambda a: App("neg", (a,)), sub),
        st.builds(lambda op, a, b: App(op, (a, b)), ops, sub, sub)), max_leaves=6)
    return LogicalGame(catalog_lookup("L_4_C"), variables, strategies,
                       tuple(draw(formulas) for _ in range(n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(logical_games())
def test_logical_to_strategic_matches_reference_on_drawn_games(lg):
    _assert_collapses_as_reference(lg)


def _collapse(collapse, lg):
    try:
        game = collapse(lg)
    except SemanticError as exc:
        return str(exc)
    return game.strategy_names, list(game.payoffs.items())


# Games whose payoff formulas each read every variable: the collapse zips
# the rows of one fill.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(column_fill_games())
def test_logical_to_strategic_over_rows_matches_reference(lg):
    copy = LogicalGame(lg.algebra, lg.variables, lg.strategies, lg.payoff_formulas)
    assert _collapse(logical_to_strategic, lg) == \
        _collapse(reference_logical_to_strategic, copy)


def test_logical_to_strategic_zips_the_rows_of_representations(battery_representations):
    for method, rep in battery_representations[::9]:
        _assert_collapses_as_reference(rep.target)


def test_make_game_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    game = make_game((2,), lambda profile: (half if profile[0] else 1,))
    assert game.payoffs[(1,)][0] is half
    assert game.payoffs[(0,)] == (F(1),) and type(game.payoffs[(0,)][0]) is F


def test_dirac_equilibria_agree_with_pure(seed):
    rng = random.Random(seed)
    for _ in range(25):
        game = random_rational_game(rng)
        pure = set(pure_ne_scan(game))
        for profile in game.profiles():
            assert verify_mixed(game, dirac(game.strategy_counts, profile)) == \
                (profile in pure)


# --- output files are rewritten in place ---------------------------------------

def test_rewrite_with_shorter_text_leaves_exactly_the_new_bytes(tmp_path):
    from mvgames import love_and_hate
    path = tmp_path / "lgame.json"
    dump_json(lgame_to_json(love_and_hate(4, 4).logical), path)
    doc = lgame_to_json(NT.logical)
    new_bytes = (json.dumps(doc, indent=2) + "\n").encode()
    assert path.stat().st_size > 2 * len(new_bytes)
    dump_json(doc, path)
    assert path.read_bytes() == new_bytes
    assert lgame_to_json(lgame_from_json(load_json(path))) == doc


@pytest.mark.skipif(os.name != "posix", reason="inodes, modes and symlinks")
def test_rewrite_keeps_the_inode_mode_and_links(tmp_path):
    path, hard, soft = tmp_path / "out.txt", tmp_path / "hard.txt", tmp_path / "soft.txt"
    write_text(path, "a first, longer version\n")
    os.chmod(path, 0o640)
    os.link(path, hard)
    soft.symlink_to(path)
    inode = path.stat().st_ino
    write_text(path, "zweite\n")
    write_text(soft, "dritte \u00e4\n")
    assert soft.is_symlink() and path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() == hard.read_bytes() == "dritte \u00e4\n".encode("utf-8")


def test_write_text_never_truncates_on_open(tmp_path, monkeypatch):
    # Emptying a file on open makes ext4 (auto_da_alloc) start its writeback
    # at close, and the next rewrite of that file waits for the disk.
    calls = []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        calls.append(("os.open", flags))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        calls.append(("open", mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    for text in ("one longer line\n", "short\n"):
        write_text(tmp_path / "out.txt", text)
    opened = [flags for how, flags in calls if how == "os.open"]
    assert opened and not any(flags & os.O_TRUNC for flags in opened), calls
    assert not any(how == "open" and "w" in mode for how, mode in calls), calls
    assert (tmp_path / "out.txt").read_bytes() == b"short\n"
