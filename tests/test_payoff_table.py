"""The payoff table a logical game shares between `payoff`, gamma and the
mixed check.

The table fills on its first read, so whichever consumer reads it first,
every answer is the one a fresh game gives; a consumer that finds the table
full runs no payoff program of its own; and a payoff formula that does not
compile raises its error at the first read.  Verify and decide fill the
table by one column run of the game's payoff program over every profile,
whichever players each formula reads, and read it by row: verify runs no
program per profile, and decide runs gamma once over all the rows, no
program run at all.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (App, Const, LogicalGame, MixedProfile, StrategicGame, Subst, Var,
                     catalog_lookup, check_mixed_ne, decide_pure_ne, evaluate,
                     logical_to_strategic, love_and_hate, new_technology, parse, payoff,
                     represent_rational_qg_delta, verify_representation)
from mvgames.equilibria import PureNEEncoding, build_encoding, satisfies_gamma
from mvgames.errors import SemanticError
from mvgames.formula import Program, substitute
from conftest import random_distribution
from test_column_fill import per_profile
from test_group_fill import reference_verify_representation
from test_program import ReferenceProgram, compiled, formulas, values_of

F = Fraction
LH44 = love_and_hate(4, 4)
NT = new_technology(F(1))


def _fresh(lg):
    """An equal game with a table of its own, still empty."""
    return LogicalGame(lg.algebra, lg.variables, lg.strategies, lg.payoff_formulas)


def _answers(lg, profiles):
    """Gamma's answer and the mixed check's at each profile, or its error
    where no product algebra accommodates the game."""
    mixed = []
    for profile in profiles:
        try:
            mixed.append(check_mixed_ne(lg, profile))
        except SemanticError as exc:
            mixed.append(str(exc))
    return decide_pure_ne(lg), mixed


def _cases(battery_representations):
    yield LH44.representation
    yield NT.representation         # three players
    for index, (_, rep) in enumerate(battery_representations):
        if index % 25 == 0:
            yield rep


def test_answers_do_not_depend_on_who_fills_the_table(seed, battery_representations):
    rng = random.Random(seed)
    for rep in _cases(battery_representations):
        counts = [len(block) for block in rep.target.strategies]
        profiles = [MixedProfile(tuple(random_distribution(rng, c) for c in counts))]
        cold = _answers(_fresh(rep.target), profiles)
        after_verify = dataclasses.replace(rep, target=_fresh(rep.target))
        assert verify_representation(after_verify).ok
        after_table = _fresh(rep.target)
        logical_to_strategic(after_table)
        for lg in (after_verify.target, after_table):
            assert _answers(lg, profiles) == cold


def _programs_run(monkeypatch):
    """The programs run from now on, once per run; `Program.run` and every
    read off the table's rows go through `_execute`."""
    ran = []
    execute = Program._execute

    def spy(self, scale, inputs):
        ran.append(self)
        return execute(self, scale, inputs)

    monkeypatch.setattr(Program, "_execute", spy)
    return ran


# love_and_hate's phi_i read 2 of 4 players' variables, new_technology's read
# every variable: either way the table fills in one column run and gamma runs
# once over the rows.
@pytest.mark.parametrize("rep", [LH44.representation, NT.representation],
                         ids=["love_and_hate", "new_technology"])
def test_decide_after_verify_runs_gamma_alone(monkeypatch, rep):
    rep = dataclasses.replace(rep, target=_fresh(rep.target))
    assert verify_representation(rep).ok
    enc = build_encoding(rep.target)
    ran = _programs_run(monkeypatch)
    decide_pure_ne(rep.target, enc)
    assert rep.target.payoff_table.rows is not None
    # No payoff program and no `Program.run`: one pass over the rows.
    assert ran == [] and enc.gamma_program.over_rows(rep.target.payoff_table) is not None


def test_cold_decide_runs_each_payoff_once_per_own_input(monkeypatch):
    # Each phi_i of love_and_hate(4, 4) reads 2 of the 4 variables: 25 inputs.
    lg = _fresh(LH44.logical)
    enc = build_encoding(lg)
    ran = _programs_run(monkeypatch)
    decide_pure_ne(lg, enc)
    assert len([p for p in ran if p is not enc.gamma_program]) <= 25 * lg.n_players


def test_payoff_checks_the_profile_before_the_table():
    lg = _fresh(NT.logical)
    logical_to_strategic(lg)
    with pytest.raises(SemanticError, match=r"\(Fraction\(1, 2\),\) is not a strategy "
                                            r"of player 2"):
        payoff(lg, ((F(1),), (F(1, 2),), (F(1),)))


def test_binding_outside_the_game_algebra_raises_what_the_copy_raises():
    l4 = catalog_lookup("L_4")
    lg = LogicalGame(l4, (("x",), ("y",)), (((F(0),), (F(1),)),) * 2,
                     (parse("x & y"), parse("x -> y")))
    logical_to_strategic(lg)
    call = Subst(lg.payoff_formulas[0], (("x", Var("y")), ("y", parse("c(1/3)"))))
    for gamma in (call, substitute(call, {})):
        enc = PureNEEncoding(lg, deviations=gamma, full=False, aux_q={}, variant="EXPRESSIBLE")
        assert enc.gamma is gamma   # the constant route's gamma is its deviations
        with pytest.raises(SemanticError, match="constant 1/3 outside the domain of L_4"):
            satisfies_gamma(enc, ((F(0),), (F(1),)))


def _vi(k, seed=6):
    rng = random.Random(seed)
    levels = [F(j, 4) for j in range(5)]
    names = (tuple(f"s{i}" for i in range(k)),) * 2
    source = StrategicGame(names, {(a, b): (rng.choice(levels), rng.choice(levels))
                                   for a in range(k) for b in range(k)})
    return represent_rational_qg_delta(source)


def test_verify_and_cold_decide_fill_without_per_profile_runs(monkeypatch):
    rep = _vi(6)
    ran = _programs_run(monkeypatch)
    assert verify_representation(rep).ok
    lg = _fresh(rep.target)
    enc = build_encoding(lg)
    decide_pure_ne(lg, enc)
    # Neither the payoff programs nor gamma run per profile, nor at all.
    assert ran == []
    assert rep.target.payoff_table.rows is not None and lg.payoff_table.rows is not None
    assert enc.gamma_program.over_rows(lg.payoff_table) is not None


def test_formulas_reading_some_players_fill_in_one_column_run_over_every_row(monkeypatch):
    # phi_i of love_and_hate(4, 4) reads players i and i + 1 (mod 4); the
    # table's program still runs once on columns, over all 5^4 = 625 rows.
    rep = dataclasses.replace(LH44.representation, target=_fresh(LH44.representation.target))
    ran, columns = _programs_run(monkeypatch), []
    run_columns = Program._columns

    def spy(self, lanes, inputs):
        columns.append((self, lanes, inputs))
        return run_columns(self, lanes, inputs)

    monkeypatch.setattr(Program, "_columns", spy)
    assert verify_representation(rep).ok
    table = rep.target.payoff_table
    assert len(table.rows[0]) == 5 ** 4
    assert ran == [] and len(columns) == 1
    program, lanes, inputs = columns[0]
    assert program is table.program and lanes.size == 5 ** 4 and len(inputs) == 4
    for packed in inputs.values():      # a player's variable, each of 5 values on 125 rows
        column = lanes.unpack(packed)
        assert sorted(Counter(column).values()) == [125] * 5
        assert lanes.pack(column) == packed
    enc = build_encoding(rep.target)
    decide_pure_ne(rep.target, enc)
    assert ran == [] and len(columns) == 2
    assert columns[1][0] is enc.gamma_program and columns[1][1].size == 5 ** 4
    assert enc.gamma_program.over_rows(table) is not None
    monkeypatch.undo()
    assert list(zip(*table.rows)) == per_profile(rep.target)


def test_fill_reports_the_first_failing_profile_of_the_per_profile_path():
    rep = _vi(6)
    payoffs = dict(rep.source.payoffs)
    payoffs[3, 2] = (payoffs[3, 2][0], payoffs[3, 2][1] + 1)
    payoffs[4, 1] = (payoffs[4, 1][0] - 1, payoffs[4, 1][1])
    source = StrategicGame(rep.source.strategy_names, payoffs)
    faulty = dataclasses.replace(rep, source=source, target=_fresh(rep.target))
    report = verify_representation(faulty)
    assert report == reference_verify_representation(faulty)
    assert report.counterexample[:2] == ((3, 2), 1)
    assert report.message == f"profile (3, 2), player 2: g(phi) = {payoffs[3, 2][1] - 1} " \
                             f"but f = {payoffs[3, 2][1]}"


# --- calls of a table, on one D or off it --------------------------------------
# A table with a live * or => fills once per row, over a scale that its values
# set; a table on one D fills on columns.  Either way a call's value is its
# literal copy's: a program over the table reads its calls over the rows
# (`over_rows`) and never runs at one profile, where the program compiled
# with no table, every `Subst` its literal copy, runs.  A call that binds
# another player's variable, or constants off the strategies, compiles as
# that copy.

PRODUCT_ALGEBRAS = [catalog_lookup("STD_QPL_DELTA"), catalog_lookup("STD_LPIH")]
ONE_D_ALGEBRAS = [catalog_lookup("L_4"), catalog_lookup("STD_L"), catalog_lookup("G_4_C_DELTA")]
XYZ = ("x", "y", "z")


@st.composite
def table_calls(draw):
    """A 3-player game whose phi_i each hold a `*` or `=>` in a product
    algebra, or any binary op in a one-D one, roots made of calls of them
    bound to constants and variables, and assignments on the strategies and
    off them."""
    alg = draw(st.sampled_from(PRODUCT_ALGEBRAS + ONE_D_ALGEBRAS))
    values = st.sampled_from(values_of(alg))
    strategies = tuple(tuple((v,) for v in draw(st.lists(values, min_size=1, max_size=3,
                                                         unique=True))) for _ in XYZ)
    binary = sorted(set(alg.ops) - {"neg", "delta"})
    tops = sorted({"odot", "imp_pi"} & set(alg.ops)) or binary
    payoffs = tuple(App(draw(st.sampled_from(tops)), (draw(formulas(alg)), Var(name)))
                    for name in XYZ)
    lg = LogicalGame(alg, tuple((name,) for name in XYZ), strategies, payoffs)
    binding = st.one_of(st.sampled_from([Var(name) for name in XYZ]), values.map(Const))
    calls = st.builds(lambda phi, bound: Subst(phi, tuple(bound.items())),
                      st.sampled_from(payoffs),
                      st.dictionaries(st.sampled_from(XYZ), binding, max_size=3))
    roots = draw(st.lists(calls | st.tuples(st.sampled_from(binary), calls, calls).map(
        lambda t: App(t[0], t[1:])), min_size=1, max_size=3))
    on = [dict(zip(XYZ, (t[0] for t in draw(st.tuples(*map(st.sampled_from, strategies))))))
          for _ in range(2)]
    off = [dict(zip(XYZ, draw(st.tuples(values, values, values)))) for _ in range(2)]
    return lg, roots, on + off


def test_a_product_table_fills_after_gamma_ran_its_kernel_off_one_d():
    """phi_i = x * y on STD_QPL_DELTA keeps one D in the table's program but
    not in gamma's, which runs the table's kernel on Fractions; the table's
    own fill after that still reads each row at an integer D."""
    alg = catalog_lookup("STD_QPL_DELTA")
    block = tuple((v,) for v in (F(0), F(1, 2), F(1)))
    lg = LogicalGame(alg, (("x",), ("y",)), (block, block),
                     (parse("x * y"), parse("y * x")))
    enc = build_encoding(lg)
    profile = ((F(1, 2),), (F(1),))
    assert satisfies_gamma(enc, profile) is False
    assert payoff(lg, profile) == (F(1, 2), F(1, 2))
    assert list(zip(*lg.payoff_table.rows)) == per_profile(_fresh(lg))


def _fit(call, lg):
    """Per block of a call, "own" or "constant"; None where a block binds
    another player's variable or constants off the strategies."""
    bound, kinds = dict(call.bindings), []
    for name, block in zip(XYZ, lg.strategies):
        v = bound.get(name, Var(name))
        if v == Var(name):
            kinds.append("own")
        elif type(v) is Const and (v.value,) in block:
            kinds.append("constant")
        else:
            return None
    return kinds


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table_calls())
def test_calls_of_a_table_read_their_literal_copies(case):
    lg, roots, assignments = case
    alg = lg.algebra
    expected = [[evaluate(substitute(root, {}), alg, env) for root in roots]
                for env in assignments]
    calls = [f for root in roots for f in ([root] if type(root) is Subst else root.args)]
    for call in calls:
        alone, kinds = Program([call], alg, lg.payoff_table), _fit(call, lg)
        assert len(alone._calls) == (kinds is not None and "own" in kinds)
        if kinds is None:       # the literal copy's program: its slots, in order
            assert compiled(Program, [call], alg, lg.payoff_table) == \
                compiled(Program, [substitute(call, {})], alg)
    execute, ran = Program._execute, []

    def spy(self, scale, inputs):
        ran.append((self, scale))
        return execute(self, scale, inputs)

    copies = Program(roots, alg)
    assert copies._calls == []
    for filled_first in (False, True):
        game = _fresh(lg)
        if filled_first:
            game.payoff_table.rows
        program = Program(roots, alg, game.payoff_table)
        assert compiled(Program, roots, alg, game.payoff_table) == \
            compiled(ReferenceProgram, roots, alg, game.payoff_table)
        for env, values in zip(assignments, expected):
            ran.clear()
            with mock.patch.object(Program, "_execute", spy):
                if program._calls:
                    with pytest.raises(RuntimeError, match="runs over its rows only"):
                        program.run(env)
                else:
                    assert program.run(env) == values
                assert copies.run(env) == values
            # No program runs the table's: each that runs runs its own
            # kernel alone, at an int D where it keeps one D.
            assert ran == [(p, p._kernel[0]) for p in (program, copies) if not p._calls]
            for p in (program, copies)[bool(program._calls):]:
                assert (type(p._kernel[0]) is int) == (p._base is not None)
            if alg in ONE_D_ALGEBRAS:
                assert program._base is not None and copies._base is not None
        # A table that fills after the runs has the values of its formulas.
        assert list(zip(*game.payoff_table.rows)) == per_profile(game)
        # Read over the rows, each root is its literal copy's value there.
        rows = program.over_rows(game.payoff_table)
        if rows is not None:
            scale, columns = rows
            for profile, *numerators in zip(game.profiles(), *columns):
                assert [F(n, scale) for n in numerators] == \
                    copies.run(game.assignment(profile))
