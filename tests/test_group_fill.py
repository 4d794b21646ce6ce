"""The payoff table's fill on payoff formulas that read some of the players.

On random logical games over L_4_C -- 1 to 4 players, 1 to 3 strategies
each, a player with one strategy possibly controlling no variable -- each
phi_i reads a drawn set of variables: any players' variables, part of a
player's block, or none.  The fill runs the game's one payoff program over
every profile, whichever players each formula reads.  The table must read,
at every profile, what one `Program([phi], alg).run` per formula gives,
exact and over the table's scale; decide must list the equilibria that one run of
gamma's literal copy per profile finds; and verify must report a payoff
fault as a check by one run per formula and profile does, at the same
first profile.  Where phi_i do not compile, every read raises the error of
compiling them in order, whichever players they read.
"""

import dataclasses
import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (Affine, App, Const, LogicalGame, Representation, StrategicGame, Var,
                     VerificationReport, catalog_lookup, decide_pure_ne, free_variables,
                     logical_to_strategic, payoff, verify_representation)
from mvgames.equilibria import build_gamma
from mvgames.errors import SemanticError
from mvgames.formula import Program, pairs
from test_column_fill import READS, formulas, per_profile
from test_equilibria import literal_decide_pure_ne
from test_program import values_of

F = Fraction
L4C = catalog_lookup("L_4_C")
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def some_reader_games(draw):
    variables, strategies = [], []
    for i in range(draw(st.integers(1, 4))):
        count = draw(st.integers(1, 3))
        width = draw(st.integers(0 if count == 1 else 1, 2))
        block = tuple(f"v{i + 1}_{j + 1}" for j in range(width))
        tuples = st.tuples(*[st.sampled_from(values_of(L4C))] * width)
        variables.append(block)
        strategies.append(draw(st.lists(tuples, min_size=1, max_size=count, unique=True)))
    names = [name for block in variables for name in block]
    payoffs = []
    for _ in variables:     # phi_i reads exactly the names drawn for it
        own = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
        formula, binary = formulas(L4C, own)
        phi = draw(formula)
        for name in own:
            if name not in free_variables(phi):
                args = (phi, Var(name)) if draw(st.booleans()) else (Var(name), phi)
                phi = App(draw(binary), args)
        payoffs.append(phi)
    return LogicalGame(L4C, tuple(variables), tuple(strategies), tuple(payoffs))


def _copy(lg):
    return LogicalGame(lg.algebra, lg.variables, lg.strategies, lg.payoff_formulas)


def reference_verify_representation(rep):
    """The check by one `Program([phi], alg).run` per formula and profile;
    a formula that does not compile fails it at the first profile."""
    target, affine = rep.target, rep.is_affine()
    try:
        programs = [Program([phi], target.algebra) for phi in target.payoff_formulas]
    except SemanticError as exc:
        return VerificationReport(False, affine, (next(rep.source.profiles()), None, None, None),
                                  f"profile {next(rep.source.profiles())}: {exc}")
    for profile in rep.source.profiles():
        env = target.assignment(rep.encode(profile))
        phis = [program.run(env)[0] for program in programs]
        for i, (phi, expected) in enumerate(zip(phis, rep.source.payoffs[profile])):
            actual = rep.g(phi)
            if actual != expected:
                return VerificationReport(
                    False, affine, (profile, i, expected, actual),
                    f"profile {profile}, player {i + 1}: g(phi) = {actual} but f = {expected}")
    return VerificationReport(True, affine)


@PROPERTY
@given(some_reader_games(), st.data())
def test_group_fill_reads_as_the_per_profile_path(lg, data):
    table, reference = lg.payoff_table, per_profile(lg)
    scale = lcm(table.program._scale, *(x.denominator for block in lg.strategies
                                        for t in block for x in t))
    assert table.scale == scale
    assert list(zip(*table.rows)) == reference
    for r, (profile, exact) in enumerate(zip(lg.profiles(), reference)):
        values = [x for t in profile for x in t]
        assert tuple(column[r] for column in table.numerators) == \
            tuple(v.numerator * (scale // v.denominator) for v in exact)
        assert table.at(pairs(values), values) == exact

    enc = build_gamma(_copy(lg))
    assert decide_pure_ne(_copy(lg), enc) == literal_decide_pure_ne(enc)

    # A payoff fault at one or two drawn profiles of the source.
    source = logical_to_strategic(_copy(lg))
    payoffs, profiles = dict(source.payoffs), list(source.profiles())
    for _ in range(data.draw(st.integers(1, 2))):
        profile = data.draw(st.sampled_from(profiles))
        i = data.draw(st.integers(0, lg.n_players - 1))
        row = list(payoffs[profile])
        row[i] += data.draw(st.sampled_from([F(-1), F(1, 4), F(1)]))
        payoffs[profile] = tuple(row)
    rep = Representation(StrategicGame(source.strategy_names, payoffs), _copy(lg),
                         lg.strategies, Affine(1, 0))
    report = verify_representation(rep)
    assert report == reference_verify_representation(rep) and not report.ok
    assert verify_representation(dataclasses.replace(rep, source=source,
                                                     target=_copy(lg))).ok


def test_a_formula_off_the_signature_leaves_every_group_to_the_misses():
    # phi_1 reads player 1 only, phi_2 player 2 only; L_4_C has no delta.
    values = tuple((v,) for v in values_of(L4C))
    lg = LogicalGame(L4C, (("x",), ("y",)), (values, values),
                     (App("neg", (Var("x"),)), App("delta", (Var("y"),))))
    message = "connective 'delta' not in signature of L_4_C"
    assert per_profile(lg) == message
    _assert_every_read_raises(lg, message)


def _assert_every_read_raises(lg, message):
    """Every read of the table, each verb that reads it, and verify raise or
    report `message`, the error at the first profile."""
    for read in READS.values():
        with pytest.raises(SemanticError) as info:
            read(lg.payoff_table)
        assert str(info.value) == message
    for reader in (lambda: payoff(lg, next(lg.profiles())), lambda: logical_to_strategic(lg)):
        with pytest.raises(SemanticError) as info:
            reader()
        assert str(info.value) == message
    counts = [len(block) for block in lg.strategies]
    names = tuple(tuple(f"s{k}" for k in range(c)) for c in counts)
    source = StrategicGame(names, {p: (F(0),) * len(counts)
                                   for p in itertools.product(*map(range, counts))})
    rep = Representation(source, lg, lg.strategies, Affine(1, 0))
    report = verify_representation(rep)
    assert report == reference_verify_representation(rep)
    assert report.message == f"profile {(0,) * len(counts)}: {message}"


def test_two_failing_formulas_raise_the_error_of_the_first_in_order():
    # phi_1 and phi_3 read x, phi_2 reads y, and phi_2 and phi_3 do not
    # compile.  Compiled by the players they read, x first, phi_3's error
    # would come first; compiled in order, phi_2's does.
    values = tuple((v,) for v in values_of(L4C))
    lg = LogicalGame(L4C, (("x",), ("y",), ()), (values, values, ((),)),
                     (App("neg", (Var("x"),)), App("or", (Var("y"), Const(F(1, 3)))),
                      App("delta", (Var("x"),))))
    message = "constant 1/3 outside the domain of L_4_C"
    assert per_profile(lg) == message
    _assert_every_read_raises(lg, message)


def test_a_formula_folded_to_a_constant_keeps_its_variable_in_the_program():
    # phi_1 = x /\ 0 compiles to the constant 0 and x keeps its slot.
    values = tuple((v,) for v in values_of(L4C))
    lg = LogicalGame(L4C, (("x",), ("y",)), (values, values),
                     (App("and", (Var("x"), Const(F(0)))), App("neg", (Var("y"),))))
    assert "x" in [name for name, _ in lg.payoff_table.program._variables]
    assert list(zip(*lg.payoff_table.rows)) == per_profile(lg)
