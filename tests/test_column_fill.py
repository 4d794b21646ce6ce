"""The payoff table's fill against one run per profile.

On random logical games -- 1 to 3 players, 1 to 5 strategies each, a player
with one strategy possibly controlling no variable -- whose payoff formulas
each read every variable, the table fills on its first read, whichever of
`rows`, `numerators`, `scale` or `payoff` it is, and holds exactly the values
that one `Program([phi], alg).run` per formula and profile gives: the exact
values and their numerators over the table's scale, in profile order.  A
program's call of the table on the row's own variables reads the same at
every row, through `over_rows`, and does not run; its literal copy runs
alike at any profile, as numerators over any multiple of that scale too.
A call bound to constants folds to its row's value, or off the strategies
to its literal copy's constant.  A program on one D runs on columns; one
with a live `*` or `=>` runs once per row.  Where a formula fails to
compile, every read raises what compiling the formulas in order raises;
any other fault in the fill propagates.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (App, Const, LogicalGame, Subst, Var, catalog_lookup, free_variables,
                     payoff, represent_rational_qg_delta, substitute, verify_representation)
from mvgames.algebra import Lanes
from mvgames.errors import SemanticError
from mvgames.formula import Program
from conftest import random_rational_game
from test_program import ALGEBRAS, values_of

F = Fraction
ZERO, ONE = F(0), F(1)
BIG = 10 ** 30 + 57
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def constants_of(alg):
    """Values, the lattice bounds twice as often; over D = 10^30+57 where the
    domain is infinite."""
    big = [] if alg.is_finite else [F(1, BIG), F(BIG - 1, BIG)]
    return values_of(alg) + [ZERO, ONE] + big


def formulas(alg, names):
    leaves = st.one_of(st.sampled_from([Var(n) for n in names] or [Const(ONE)]),
                       st.sampled_from(constants_of(alg)).map(Const))
    ops = set(alg.ops) | {"neg"}
    unary = sorted(op for op in ops if op in ("neg", "delta"))
    binary = sorted(ops - set(unary))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(binary), children, children).map(
                lambda t: App(t[0], (t[1], t[2]))),
            st.tuples(st.sampled_from(unary), children).map(lambda t: App(t[0], (t[1],))))

    return st.recursive(leaves, extend, max_leaves=16), st.sampled_from(binary)


@st.composite
def games(draw):
    alg = draw(st.sampled_from(ALGEBRAS))
    variables, strategies = [], []
    for i in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 5))
        width = draw(st.integers(0 if count == 1 else 1, 2))
        block = tuple(f"v{i + 1}_{j + 1}" for j in range(width))
        tuples = st.tuples(*[st.sampled_from(values_of(alg))] * width)
        variables.append(block)
        strategies.append(draw(st.lists(tuples, min_size=1, max_size=count, unique=True)))
    names = [name for block in variables for name in block]
    formula, binary = formulas(alg, names)
    shared, payoffs = draw(formula), []     # a subterm whose column outlives its first reader
    for _ in variables:
        phi = draw(formula)
        if draw(st.booleans()):
            phi = App(draw(binary), (phi, shared) if draw(st.booleans()) else (shared, phi))
        for name in names:     # every formula reads every variable
            if name not in free_variables(phi):
                args = (phi, Var(name)) if draw(st.booleans()) else (Var(name), phi)
                phi = App(draw(binary), args)
        payoffs.append(phi)
    return LogicalGame(alg, tuple(variables), tuple(strategies), tuple(payoffs))


def per_profile(lg):
    """Each profile's payoff values, from one `Program([phi], alg).run` per
    formula and profile; or the error compiling the first formula that does
    not compile raises, which is the error of compiling them all in order."""
    try:
        programs = [Program([phi], lg.algebra) for phi in lg.payoff_formulas]
    except SemanticError as exc:
        return str(exc)
    return [tuple(program.run(lg.assignment(profile))[0] for program in programs)
            for profile in lg.profiles()]


READS = {     # each read of a game's payoff table
    "rows": lambda lg: lg.payoff_table.rows,
    "numerators": lambda lg: lg.payoff_table.numerators,
    "scale": lambda lg: lg.payoff_table.scale,
    "payoff": lambda lg: payoff(lg, next(lg.profiles())),
}


@PROPERTY
@given(games(), st.sampled_from(sorted(READS)))
def test_fill_leaves_the_entries_of_the_per_profile_path(lg, first):
    table, reference = lg.payoff_table, per_profile(lg)
    if isinstance(reference, str):      # every read raises the compile error
        for read in [READS[first]] + list(READS.values()):
            with pytest.raises(SemanticError) as info:
                read(lg)
            assert str(info.value) == reference
        return
    READS[first](lg)        # the first read fills the table, whichever it is
    program = table.program
    scale = lcm(*(x.denominator for block in lg.strategies for t in block for x in t),
                *(v.denominator for values in reference for v in values),
                program._scale or 1)
    assert table.scale == scale
    assert list(zip(*table.rows)) == reference
    assert list(zip(*table.numerators)) == [tuple(v.numerator * (scale // v.denominator)
                                                  for v in values) for values in reference]
    # One call per formula on the row's own variables, read over the rows;
    # its literal copy runs per profile at D = scale and 3 * scale, where
    # the table's program keeps one D, else on Fractions.
    roots = [Subst(phi, ()) for phi in lg.payoff_formulas]
    calls, copies = Program(roots, lg.algebra, table), Program(roots, lg.algebra)
    assert len(calls._calls) == (len(lg.payoff_formulas) if table.names else 0)
    assert copies._calls == [] and calls.over_rows(table) == (scale, table.numerators)
    if calls._calls:
        with pytest.raises(RuntimeError, match="runs over its rows only"):
            calls.run(lg.assignment(next(lg.profiles())))
    for profile, exact in zip(lg.profiles(), reference):
        assert payoff(lg, profile) == exact
        env = lg.assignment(profile)
        values = [env[name] for name, _ in copies._variables]
        assert tuple(copies.run(env)) == exact
        if copies._base is None:
            assert tuple(copies._execute(None, values)) == exact
            continue
        for over in (scale, 3 * scale):     # each root over D^e, e its exponent
            numerators = [x.numerator * (over // x.denominator) for x in values]
            assert tuple(copies._execute(over, numerators)) == \
                tuple(v.numerator * (over ** e // v.denominator)
                      for v, e in zip(exact, copies._shape[2]))


def _spy(monkeypatch, name):
    """The programs that run `Program.<name>` from now on, once per run."""
    ran, method = [], getattr(Program, name)
    monkeypatch.setattr(Program, name, lambda self, *args: ran.append(self) or method(self, *args))
    return ran


def test_fill_leaves_a_live_product_to_the_misses(monkeypatch):
    # x * y, or x * x beside a formula of y alone, keeps the program off one
    # D: it runs once per row of the full product, 9 rows, and the values
    # 1/4 and 1/2 put the table over D = 4.
    pl = catalog_lookup("STD_PL")
    halves = ((F(0),), (F(1, 2),), (F(1),))
    x, y = Var("x"), Var("y")
    for payoffs, numerators in (
            ((App("odot", (x, y)), App("or", (x, y))),
             [[0, 0, 0, 0, 1, 2, 0, 2, 4], [0, 2, 4, 2, 2, 4, 4, 4, 4]]),
            ((App("odot", (x, x)), App("neg", (y,))),
             [[0, 0, 0, 1, 1, 1, 4, 4, 4], [4, 2, 0, 4, 2, 0, 4, 2, 0]])):
        lg = LogicalGame(pl, (("x",), ("y",)), (halves, halves), payoffs)
        reference = per_profile(lg)
        runs, columns = _spy(monkeypatch, "run"), _spy(monkeypatch, "_columns")
        table = lg.payoff_table
        assert table.program._scale is None
        assert list(zip(*table.rows)) == reference
        assert runs == [table.program] * 9 and columns == []
        assert table.scale == 4
        assert table.numerators == numerators
        runs.clear()
        assert [payoff(lg, p) for p in itertools.product(halves, halves)][4] == \
            (F(1, 4), F(1, 2))
        assert runs == []
        monkeypatch.undo()


def test_fill_lets_a_fault_in_the_column_run_propagate(monkeypatch):
    def broken(self, lanes, inputs):
        raise RuntimeError("column run broken")

    monkeypatch.setattr(Program, "_columns", broken)
    rep = represent_rational_qg_delta(random_rational_game(random.Random(3)))
    with pytest.raises(RuntimeError, match="column run broken"):
        verify_representation(rep)


def test_a_call_reads_the_rows_and_off_the_strategies_folds_as_its_copy(monkeypatch):
    # x takes 0 or 1 and y only 1/4: an input with x = 1/2, or y = 0, is no row.
    l4 = catalog_lookup("L_4")
    lg = LogicalGame(l4, (("x",), ("y",)), (((F(0),), (F(1),)), ((F(1, 4),),)),
                     (App("oplus", (Var("x"), Var("y"))), App("imp", (Var("y"), Var("x")))))
    table = lg.payoff_table

    def reference(values):
        env = dict(zip(("x", "y"), values))
        return tuple(Program([phi], l4).run(env)[0] for phi in lg.payoff_formulas)

    ran = _spy(monkeypatch, "_execute")
    assert table.rows == [[F(1, 4), F(1)], [F(3, 4), F(1)]]     # on columns: nothing runs
    assert ran == []
    for values, row in (([F(0), F(1, 4)], 0), ([F(1), F(1, 4)], 1),     # rows
                        ([F(1, 2), F(1, 4)], None), ([F(1), F(0)], None)):  # off them
        expected = reference(values)
        for i, phi in enumerate(lg.payoff_formulas):
            # On the row's own variables: read over the rows, never run; the
            # literal copy runs once, alone, on the strategies or off them.
            call, copy = Program([Subst(phi, ())], l4, table), Program([Subst(phi, ())], l4)
            ran.clear()
            with pytest.raises(RuntimeError, match="runs over its rows only"):
                call.run(dict(zip(("x", "y"), values)))
            assert call.over_rows(table) == (4, [table.numerators[i]])
            assert copy.run(dict(zip(("x", "y"), values))) == [expected[i]]
            assert ran == [copy]
            # Bound to constants: the row's value, or off the strategies the
            # literal copy's constant; neither leaves a call.
            bound = Subst(phi, tuple(zip(("x", "y"), map(Const, values))))
            ran.clear()
            folded = Program([bound], l4, table)
            copy = Program([substitute(bound, {})], l4)
            assert ran == [] and folded._calls == []
            assert folded._slots[folded._roots[0]] == copy._slots[copy._roots[0]] == expected[i]
            if row is not None:
                assert expected[i] == table.rows[i][row]


# --- the column run against one run per row -------------------------------------
# `_columns` runs each op once over whole packed columns; unpacked, its
# values must be those of `_execute` run row by row, with no bit set outside
# the rows' lanes, and a column read again must stay as it was.

def by_rows(program, scale, columns, size):
    """Each root's value at every row, from one `_execute` per row."""
    rows = [program._execute(scale, [column[r] for column in columns]) for r in range(size)]
    return [list(column) for column in zip(*rows)]


def by_columns(program, scale, columns, size):
    """Each root's value at every row, from one `_columns` run on `columns`
    packed; the input lists stay as they were."""
    kept = [list(column) for column in columns]
    lanes = Lanes(scale, size)
    out = program._columns(lanes, {index: lanes.pack(column) for (_, index), column
                                   in zip(program._variables, columns)})
    assert columns == kept
    values = [lanes.unpack(column) for column in out]
    assert [lanes.pack(column) for column in values] == out   # nothing past the lanes
    return values


XS, YS = Var("x"), Var("y")
# Formula over x and y and their columns as numerators over 4 in L_4 on 6
# rows; `and` is 0 where either side is 0 and the other side where one is 4.
SIDES = {
    "absorbing default on the left": (
        App("and", (XS, YS)), [0, 4, 0, 0, 0, 0], [1, 2, 3, 4, 2, 2]),
    "absorbing default on the right": (
        App("and", (XS, YS)), [1, 2, 3, 4, 2, 2], [0, 4, 0, 0, 0, 0]),
    "unit default, the kept column dies here": (
        App("and", (XS, YS)), [4, 2, 4, 4, 4, 3], [1, 3, 0, 3, 2, 3]),
    "unit default, the kept column is read again": (
        App("or", (App("and", (XS, YS)), YS)), [4, 2, 4, 4, 4, 4], [1, 3, 0, 3, 3, 3]),
    "x op x, x read again": (
        App("or", (App("and_strong", (XS, XS)), XS)), [4, 2, 4, 4, 4, 4], None),
    "a side with no exceptions": (
        App("and", (XS, YS)), [4, 2, 2, 1, 2, 2], [4] * 6),
}


@pytest.mark.parametrize("case", SIDES)
def test_each_side_choice_computes_the_rows_of_one_run_per_row(case):
    f, x, y = SIDES[case]
    program = Program([f], catalog_lookup("L_4"))
    given = {"x": x, "y": y}
    columns = [given[name] for name, _ in program._variables]
    assert by_columns(program, 4, columns, 6) == by_rows(program, 4, columns, 6)


@st.composite
def column_runs(draw):
    """A program on one D with no calls, and a column per variable; a
    variable that is also a root has its column read to the end."""
    alg = draw(st.sampled_from([a for a in ALGEBRAS if not {"odot", "imp_pi"} & set(a.ops)]))
    ops = set(alg.ops) | {"neg"}
    unary = sorted(op for op in ops if op in ("neg", "delta"))
    binary = sorted(ops - set(unary))
    over_variables = st.recursive(st.sampled_from([XS, YS, Var("z")]), lambda children: st.one_of(
        st.tuples(st.sampled_from(binary), children, children).map(
            lambda t: App(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(unary), children).map(lambda t: App(t[0], (t[1],)))),
        max_leaves=10)
    roots = draw(st.lists(over_variables | formulas(alg, ["x", "y", "z"])[0],
                          min_size=1, max_size=3))
    roots += draw(st.lists(st.sampled_from([XS, YS]), max_size=2))
    try:
        program = Program(roots, alg)
    except SemanticError:
        program = None
    size = draw(st.integers(1, 6))
    values = st.sampled_from(values_of(alg) + [ZERO, ONE] * 2)
    columns = [draw(st.lists(values, min_size=size, max_size=size))
               for _ in (program._variables if program else ())]
    return program, size, columns


@PROPERTY
@given(column_runs())
def test_columns_compute_what_one_run_per_row_computes(case):
    program, size, columns = case
    if program is None:
        return
    scale = lcm(program._scale, *(v.denominator for column in columns for v in column))
    columns = [[v.numerator * (scale // v.denominator) for v in column] for column in columns]
    assert by_columns(program, scale, columns, size) == by_rows(program, scale, columns, size)
