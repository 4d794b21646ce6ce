"""`Table.fill` on payoff formulas that read some of the players.

On random logical games over L_4_C -- 1 to 4 players, 1 to 3 strategies
each, a player with one strategy possibly controlling no variable -- each
phi_i reads a drawn set of variables: any players' variables, part of a
player's block, or none.  The fill runs one program per group of formulas
that read the same players, over those players' strategies alone, and
spreads its columns over every profile.  The filled table must read, at
every profile, what `at` reads on a copy that no fill touches, exact and
over the table's scale; decide must list the equilibria that one run of
gamma per profile finds; and verify must report a payoff fault as a check
of one table read per profile does, at the same first profile.  Where one
phi_i does not compile, no group fills and the misses raise as before.
"""

import dataclasses
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (Affine, App, LogicalGame, Representation, StrategicGame, Var,
                     VerificationReport, catalog_lookup, decide_pure_ne, free_variables,
                     logical_to_strategic, payoff, verify_representation)
from mvgames.equilibria import build_gamma
from mvgames.errors import SemanticError
from mvgames.formula import pairs
from test_column_fill import formulas
from test_equilibria import reference_decide_pure_ne
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
    """The check by one table read per profile, on a copy no fill touches."""
    target, affine = _copy(rep.target), rep.is_affine()
    for profile in rep.source.profiles():
        try:
            phis = payoff(target, rep.encode(profile))
        except SemanticError as exc:
            return VerificationReport(False, affine, (profile, None, None, None),
                                      f"profile {profile}: {exc}")
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
    filled, cold = _copy(lg), _copy(lg)
    table = filled.payoff_table
    table.fill(filled.strategies)
    assert table.rows is not None and table.memo == {}
    assert table._exact == [{} for _ in table.formulas]
    scale = lcm(table.program._scale, *(x.denominator for block in lg.strategies
                                        for t in block for x in t))
    assert table.scale == scale
    cold.payoff_table.memo[scale] = [{} for _ in lg.payoff_formulas]
    for r, profile in enumerate(lg.profiles()):
        values = [x for t in profile for x in t]
        numerators = [x.numerator * (scale // x.denominator) for x in values]
        exact = cold.payoff_table.at(pairs(values), values)
        assert tuple(column[r] for column in table.rows) == exact
        assert tuple(column[r] for column in table.numerators) == \
            cold.payoff_table.at(pairs(values), numerators, scale)
        assert table.at(pairs(values), values) == exact

    enc = build_gamma(_copy(lg))
    assert decide_pure_ne(_copy(lg), enc) == reference_decide_pure_ne(_copy(lg), enc)

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
    assert rep.target.payoff_table.rows is not None
    assert verify_representation(dataclasses.replace(rep, source=source,
                                                     target=_copy(lg))).ok


def test_a_formula_off_the_signature_leaves_every_group_to_the_misses():
    # phi_1 reads player 1 only, phi_2 player 2 only; L_4_C has no delta.
    values = tuple((v,) for v in values_of(L4C))
    lg = LogicalGame(L4C, (("x",), ("y",)), (values, values),
                     (App("neg", (Var("x"),)), App("delta", (Var("y"),))))
    lg.payoff_table.fill(lg.strategies)
    assert lg.payoff_table.rows is None and lg.payoff_table.memo == {}
    message = "connective 'delta' not in signature of L_4_C"
    for game in (lg, _copy(lg)):
        with pytest.raises(SemanticError, match=message):
            payoff(game, ((F(0),), (F(1),)))
        with pytest.raises(SemanticError, match=message):
            logical_to_strategic(game)
