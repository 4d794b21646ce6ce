"""The compiled formula program against a plain recursive evaluator.

`reference` below is the textbook compositional semantics, written here and
not imported from the package: it folds nothing, shares nothing and raises
the same `SemanticError` messages.  Random formulas over every catalog
algebra family, rich in the constants 0 and 1, make every folding rule of
`Program` fire; the program must agree with `reference` on every value and
on every error.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (App, Const, Subst, Var, catalog_lookup, evaluate, free_variables,
                     parse, substitute, to_text)
from mvgames.algebra import INTEGER_TWINS
from mvgames.equilibria import build_encoding, build_mixed_encoding, check_mixed_ne
from mvgames.errors import SemanticError
from mvgames.formula import _ABSORBING, _UNIT, Program, Table, _post_order
from mvgames.game import LogicalGame, MixedProfile, logical_to_strategic, make_game
from mvgames.oracle import expected_payoffs
from mvgames.represent import (represent_rational_gmc_delta, represent_rational_lm,
                               represent_rational_qg_delta)
from conftest import random_distribution, random_logical_game, random_rational_game

F = Fraction
ZERO, ONE = F(0), F(1)
NAMES = ("x", "y", "z")
ALGEBRAS = [catalog_lookup(name) for name in (
    "BOOL2", "G_3", "G_4_C", "G_4_C_DELTA", "L_3", "L_4_C", "STD_L", "STD_L_DELTA",
    "STD_QL", "STD_QL_DELTA", "STD_G", "STD_QG", "STD_QG_DELTA", "STD_PL",
    "STD_PL_DELTA", "STD_QPL_DELTA", "STD_LPI", "STD_LPIH")]
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def reference(f, alg, env):
    if isinstance(f, Var):
        if f.name not in env:
            raise SemanticError(f"unknown variable {f.name!r}")
        if not alg.contains(env[f.name]):
            raise SemanticError(
                f"assignment {f.name} = {env[f.name]} outside the domain of {alg.id}")
        return env[f.name]
    if isinstance(f, Const):
        if not alg.contains(f.value):
            raise SemanticError(f"constant {f.value} outside the domain of {alg.id}")
        return f.value
    args = [reference(a, alg, env) for a in f.args]
    if f.op in alg.ops:
        return alg.ops[f.op](*args)
    if f.op == "neg" and "imp" in alg.ops:
        return alg.ops["imp"](args[0], ZERO)
    raise SemanticError(f"connective {f.op!r} not in signature of {alg.id}")


def values_of(alg):
    if alg.is_finite:
        return list(alg.domain_elements())
    return [ZERO, ONE, F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(2, 5)]


def formulas(alg):
    leaves = st.one_of(st.sampled_from([Var(n) for n in NAMES]),
                       st.sampled_from([Const(ZERO), Const(ONE)]),
                       st.sampled_from(values_of(alg)).map(Const))
    ops = set(alg.ops) | {"neg"}
    unary = sorted(op for op in ops if op in ("neg", "delta"))
    binary = sorted(ops - set(unary))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(binary), children, children).map(
                lambda t: App(t[0], (t[1], t[2]))),
            st.tuples(st.sampled_from(unary), children).map(lambda t: App(t[0], (t[1],))))

    return st.recursive(leaves, extend, max_leaves=24)


@st.composite
def cases(draw):
    alg = draw(st.sampled_from(ALGEBRAS))
    roots = draw(st.lists(formulas(alg), min_size=1, max_size=3))
    env = {n: draw(st.sampled_from(values_of(alg))) for n in NAMES}
    return alg, roots, env


@PROPERTY
@given(cases())
def test_program_matches_reference(case):
    alg, roots, env = case
    expected = [reference(f, alg, env) for f in roots]
    assert Program(roots, alg).run(env) == expected
    assert [evaluate(f, alg, env) for f in roots] == expected
    # Reloaded text has no sharing left; hash-consing must not change values.
    assert Program([parse(to_text(f)) for f in roots], alg).run(env) == expected


@PROPERTY
@given(cases(), st.sampled_from(NAMES))
def test_program_raises_what_reference_raises(case, missing):
    alg, roots, env = case
    del env[missing]
    try:
        expected = [reference(f, alg, env) for f in roots]
    except SemanticError as exc:
        with pytest.raises(SemanticError) as info:
            Program(roots, alg).run(env)
        assert str(info.value) == str(exc)
    else:
        assert Program(roots, alg).run(env) == expected


@pytest.mark.parametrize("op", sorted(INTEGER_TWINS, key=lambda fn: fn.__name__),
                         ids=lambda fn: fn.__name__)
@PROPERTY
@given(st.sampled_from([1, 2, 12, 1000003]).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, d), st.integers(0, d))))
def test_integer_twin_is_the_scaled_op(op, case):
    d, a, b = case
    twin = INTEGER_TWINS[op](d)
    if op.__code__.co_argcount == 1:
        pairs = [(twin(a), op(F(a, d))), (twin(b), op(F(b, d)))]
    else:
        pairs = [(twin(a, b), op(F(a, d), F(b, d)))]
    for got, value in pairs:
        assert type(got) is int and got == d * value


# Runs of one program whose assignments' denominators change from run to
# run; L_4_C takes chain elements.  A live odot carries its slots over
# powers of D, and a live => keeps the Fraction ops.
STEPS = {name: [F(1, 3), F(2, 7), F(1, 1000003), F(1, 3)]
         for name in ("STD_QG_DELTA", "STD_QL_DELTA", "STD_PL", "STD_PL_DELTA",
                      "STD_QPL_DELTA", "STD_LPI", "STD_LPIH")}
STEPS["L_4_C"] = [F(1, 4), F(1, 2), ONE, F(3, 4), F(1, 4)]


def run_steps(program, alg, roots):
    for value in STEPS[alg.id]:
        env = {"x": value, "y": ONE - value, "z": ONE}
        got = program.run(env)
        assert got == [reference(f, alg, env) for f in roots]
        assert all(type(v) is Fraction for v in got)


@PROPERTY
@given(st.sampled_from(sorted(STEPS)).flatmap(lambda name: st.tuples(
    st.just(catalog_lookup(name)),
    st.lists(formulas(catalog_lookup(name)), min_size=1, max_size=3))))
def test_program_follows_changing_denominators(case):
    alg, roots = case
    run_steps(Program(roots, alg), alg, roots)


# A live * or => leaves the program off one D (`_scale` None), so no
# calling program or column fill reads it on that D.
@pytest.mark.parametrize("name, text, product_live", [
    ("STD_PL", "(x * y) \\/ z", True),
    ("STD_PL", "((x * 0) \\/ y) + (x * 1)", False),
    ("STD_PL", "(c(1/2) * c(2/3)) -> x", False),
    ("STD_LPI", "(x => y) /\\ x", True),
    ("STD_LPI", "(c(1/2) => c(1/3)) + (x & ~y)", False),
])
def test_product_connectives_keep_fraction_ops_only_while_live(name, text, product_live):
    alg, roots = catalog_lookup(name), [parse(text)]
    program = Program(roots, alg)
    assert (program._scale is None) == product_live
    run_steps(program, alg, roots)


# Roots whose numerators lie over D, D^2 and D^3.
EXPONENTS = {"x": 1, "x * y": 2, "(x * y) * z": 3, "(x * y) + z": 2, "(x * y) -> z": 2}
PRODUCT_ALGEBRAS = ["STD_PL", "STD_PL_DELTA", "STD_QPL_DELTA", "STD_LPIH"]


@PROPERTY
@given(st.sampled_from(PRODUCT_ALGEBRAS).flatmap(lambda name: st.tuples(
    st.just(catalog_lookup(name)),
    st.lists(st.sampled_from(sorted(EXPONENTS)), min_size=1, max_size=4),
    st.lists(formulas(catalog_lookup(name)), max_size=2),
    st.booleans())))
def test_product_programs_run_on_integers_over_powers_of_d(case):
    alg, texts, extra, with_pi = case
    roots = [parse(text) for text in texts] + extra
    if with_pi and "imp_pi" in alg.ops:
        roots.append(parse("(x * y) => z"))
    program = Program(roots, alg)
    pi_live = any(fn is alg.ops.get("imp_pi") for fn, _, _ in program._code)
    if with_pi and "imp_pi" in alg.ops:
        assert pi_live
    # A live * puts the program off one D, but on integers unless a => is live.
    if texts != ["x"] * len(texts):
        assert program._scale is None
    assert (program._base is None) == pi_live
    run_steps(program, alg, roots)
    assert (program._kernel[0] is None) == pi_live
    assert program._kernel[4][:len(texts)] == [EXPONENTS[text] for text in texts]


# Denominators that move D back and forth: 1000003 and 7 each need a D the
# other's does not divide, so the kernel is bound again at a D it had before.
REBINDS = [1000003, 7, 1000003]


def spread(counts, d):
    """Per block, 1/d on every strategy but the last, which takes the rest
    (a Dirac profile where d is too small)."""
    return MixedProfile(tuple((F(1, d),) * (c - 1) + (1 - F(c - 1, d),) if d >= c - 1
                              else (ZERO,) * (c - 1) + (ONE,) for c in counts))


@st.composite
def rebind_cases(draw):
    """(program, its roots, algebra, table, assignments): formulas over a
    product algebra with a live * (slots over D^2 and D^3), and sometimes
    a live => (the Fraction kernel), or a small game's mixed trace and calls
    of its payoff table; their denominators move D back and forth."""
    denominators = REBINDS + draw(st.lists(st.sampled_from([1, 2, 3, 6, 7, 10 ** 20 + 39]),
                                           min_size=1, max_size=4))
    if draw(st.booleans()):
        alg = catalog_lookup(draw(st.sampled_from(PRODUCT_ALGEBRAS)))
        roots = draw(st.lists(formulas(alg), max_size=2)) + [parse("(x * y) * (z + x)")]
        if "imp_pi" in alg.ops and draw(st.booleans()):
            roots.append(parse("(x * y) => z"))
        table = None
        steps = [{"x": F(1, d), "y": ONE - F(1, d), "z": F(1, 2)} for d in denominators]
    else:
        lg = random_logical_game(random.Random(draw(st.integers(0, 2 ** 32))))
        enc = build_mixed_encoding(lg)
        assert enc.algebra is lg.algebra
        # Each payoff formula read at the players' first probabilities: calls
        # the table runs, on its rows or off them, where the trace's fold.
        firsts = [(name, Var(block[0])) for names, block in zip(lg.variables, enc.prob_vars)
                  for name in names]
        alg, table = enc.algebra, lg.payoff_table
        roots = [root for _, root in enc.trace] + [Subst(phi, tuple(firsts))
                                                   for phi in lg.payoff_formulas]
        counts = [len(block) for block in lg.strategies]
        steps = [enc.assignment(spread(counts, d)) for d in denominators]
    return Program(roots, alg, table), roots, alg, table, steps


@PROPERTY
@given(rebind_cases())
def test_one_program_rebinding_per_d_equals_a_fresh_program_per_run(case):
    program, roots, alg, table, steps = case
    scales = []
    for env in steps:
        got = program.run(env)
        assert [(v, type(v)) for v in got] == \
            [(v, type(v)) for v in Program(roots, alg, table).run(env)]
        scales.append(program._kernel[0])
    # The kernel went back to the D of 1000003 after one for 7, or stayed
    # on the Fraction ops.
    assert scales[0] == scales[2] != scales[1] or scales == [None] * len(steps)


def test_a_program_builds_its_kernel_shape_once(monkeypatch):
    # A run at a new D scales the constants and makes one op per kind of the
    # shape; the exponents, the kinds and the code are built once.
    alg = catalog_lookup("STD_QPL_DELTA")
    roots = [parse(text) for text in ("((x * y) * z) + (x -> c(1/2))", "(x * y) \\/ ~z",
                                      "D (x + y)", "(y * c(1/3)) & (x * y)")]
    program = Program(roots, alg)
    made = []
    op = Program._op
    monkeypatch.setattr(Program, "_op", lambda self, *kind: made.append(kind) or op(self, *kind))
    shape = scale = None
    for d in REBINDS + [3, 7]:
        env = {"x": F(1, d), "y": F(2, 5), "z": ONE - F(1, d)}
        assert program.run(env) == [reference(f, alg, env) for f in roots]
        shape = shape or program._shape
        kinds, code, exponents = program._shape
        assert program._shape is shape and program._kernel[4] is exponents
        assert exponents == [3, 2, 1, 2]
        bound, scale = scale != program._kernel[0], program._kernel[0]
        assert made == ([(scale, *kind) for kind in kinds] if bound else [])
        assert len(program._kernel[1]) == len(kinds) < len(code) == len(program._code)
        made.clear()
    assert scale == 7 * 30


L4 = catalog_lookup("L_4")
X = Var("x")


@pytest.mark.parametrize("op, constant, on_left, result", [
    ("and", ZERO, False, ZERO), ("and", ONE, True, X),
    ("or", ZERO, True, X), ("or", ONE, False, ONE),
    ("and_strong", ZERO, True, ZERO), ("and_strong", ONE, False, X),
    ("oplus", ZERO, False, X), ("oplus", ONE, True, ONE),
    ("odot", ZERO, True, ZERO), ("odot", ONE, False, X),
    ("imp", ZERO, True, ONE), ("imp", ONE, False, ONE),
])
def test_each_identity_folds(op, constant, on_left, result):
    alg = catalog_lookup("STD_QPL_DELTA")
    args = (Const(constant), X) if on_left else (X, Const(constant))
    program = Program([App(op, args)], alg)
    assert program._code == []
    env = {"x": F(2, 7)}
    assert program.run(env) == [env["x"] if result is X else result]


def test_folding_compares_no_fractions(monkeypatch):
    # A vi representation of a 7x7 game: its payoff DNF folds constant
    # arguments thousands of times, each decided on numerators.
    rng = random.Random(7)
    levels = [F(j, 4) for j in range(5)]
    game = make_game((7, 7), lambda profile: [rng.choice(levels) for _ in profile])
    lg = represent_rational_qg_delta(game).target
    calls = []
    eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(b) or eq(a, b))
    program = Program(lg.payoff_formulas, lg.algebra)
    monkeypatch.undo()
    assert calls == [] and program._code


# The error-carrying subterm s sits where folding discards it: s /\ 0,
# s -> 1 and 0 -> s all fold to a constant without looking at s.
SHAPES = {
    "s /\\ 0": lambda s: App("and", (s, Const(ZERO))),
    "s -> 1": lambda s: App("imp", (s, Const(ONE))),
    "0 -> s": lambda s: App("imp", (Const(ZERO), s)),
}
ERRORS = {
    "unknown variable": (Var("ghost"), "unknown variable 'ghost'"),
    "assignment outside the domain": (Var("y"), "assignment y = 1/3 outside the domain of L_4"),
    "constant outside the domain": (App("or", (X, Const(F(1, 3)))),
                                    "constant 1/3 outside the domain of L_4"),
    "connective outside the signature": (App("odot", (X, X)),
                                         "connective 'odot' not in signature of L_4"),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("error", ERRORS)
def test_folding_hides_no_error(shape, error):
    subterm, message = ERRORS[error]
    f = SHAPES[shape](subterm)
    env = {"x": F(1, 4), "y": F(1, 3)}
    for attempt in (lambda: evaluate(f, L4, env),
                    lambda: Program([Var("x"), f], L4).run(env),
                    lambda: reference(f, L4, env)):
        with pytest.raises(SemanticError) as info:
            attempt()
        assert str(info.value) == message


def test_mixed_trace_equals_separate_evaluations(seed):
    rng = random.Random(seed)
    for _ in range(6):
        lg = random_logical_game(rng)
        enc = build_mixed_encoding(lg)
        profile = MixedProfile(tuple(random_distribution(rng, len(block))
                                     for block in lg.strategies))
        env = enc.assignment(profile)
        ok, trace = check_mixed_ne(lg, profile, enc=enc)
        # names and order, spelled out here
        names = []
        for i, block in enumerate(lg.strategies):
            names += [f"probdistr_{i + 1}", f"expected_{i + 1}"]
            names += [f"dev_{i + 1}_{rank}" for rank in range(len(block))]
        assert [name for name, _ in trace] == names + ["formula"]
        # each value as its root evaluated on its own
        assert trace == [(name, evaluate(f, enc.algebra, env)) for name, f in enc.trace]
        assert ok == (trace[-1][1] == ONE)
        # dev_i_r is the implication "i's payoff after deviating to r ->
        # i's expected payoff", with the payoffs from the payoff table
        table = logical_to_strategic(lg)
        values = dict(trace)
        for i, (block, expected) in enumerate(zip(lg.strategies,
                                                  expected_payoffs(table, profile))):
            assert values[f"expected_{i + 1}"] == expected
            for rank in range(len(block)):
                vectors = list(profile.probabilities)
                vectors[i] = tuple(ONE if k == rank else ZERO for k in range(len(block)))
                deviated = expected_payoffs(table, MixedProfile(tuple(vectors)))[i]
                assert values[f"dev_{i + 1}_{rank}"] == min(ONE, ONE - deviated + expected)


# --- explicit substitution -----------------------------------------------------
# A Subst must behave as its literal copy, substitute(f, {}): the same
# text, free variables, values and errors, whether its bindings are
# constants, variables or compound formulas (copied), however Substs nest
# and however many of them share a body.

def substituted(alg, pool):
    """Formulas with Subst nodes over the bodies in `pool`, shared by
    identity.  Binding constants may lie outside a chain's domain and
    connectives may include odot, outside most signatures."""
    leaves = st.one_of(st.sampled_from([Var(n) for n in NAMES]),
                       st.sampled_from(values_of(alg) + [F(2, 5)]).map(Const))
    binary = sorted(set(alg.ops) - {"neg", "delta"}) + ["odot"]

    def extend(children):
        bindings = st.dictionaries(st.sampled_from(NAMES), st.one_of(leaves, leaves, children),
                                   max_size=3)
        return st.one_of(
            st.tuples(st.sampled_from(pool) | children, bindings).map(
                lambda t: Subst(t[0], tuple(t[1].items()))),
            st.tuples(st.sampled_from(binary), children, children).map(
                lambda t: App(t[0], (t[1], t[2]))))

    return st.recursive(st.sampled_from(pool) | leaves, extend, max_leaves=8)


@st.composite
def subst_cases(draw):
    alg = draw(st.sampled_from(ALGEBRAS))
    pool = draw(st.lists(formulas(alg), min_size=1, max_size=2))
    pool.append(App("imp", (pool[0], App("or", (Var("x"), Var("y"))))))
    roots = draw(st.lists(substituted(alg, pool), min_size=1, max_size=3))
    calls = st.dictionaries(st.sampled_from(NAMES), st.sampled_from([Var(n) for n in NAMES])
                            | st.sampled_from(values_of(alg)).map(Const), max_size=2)
    roots += [Subst(body, tuple(draw(calls).items())) for body in pool]
    env = {n: draw(st.sampled_from(values_of(alg))) for n in NAMES}
    return alg, roots, env


def outcome(roots, alg, env):
    try:
        return Program(roots, alg).run(env)
    except SemanticError as exc:
        return str(exc)


@PROPERTY
@given(subst_cases(), st.sampled_from(NAMES + (None,)))
def test_subst_behaves_as_its_literal_copy(case, missing):
    alg, roots, env = case
    literal = [substitute(f, {}) for f in roots]
    assert [to_text(f) for f in roots] == [to_text(f) for f in literal]
    assert [parse(to_text(f)) for f in roots] == literal
    assert [free_variables(f) for f in roots] == [free_variables(f) for f in literal]
    if missing is not None:
        del env[missing]
    # A live x * y puts the program off one D; without odot and => every
    # program runs on one D.
    for extra in ([App("odot", (Var("x"), Var("y")))] if "odot" in alg.ops else [], []):
        got = outcome(roots + extra, alg, env)
        assert got == outcome(literal + extra, alg, env)
        if type(got) is str:
            continue
        assert got == [reference(f, alg, env) for f in literal + extra]
        assert all(type(v) is Fraction for v in got)
        if extra or not {"odot", "imp_pi"} & set(alg.ops):
            assert (Program(roots + extra, alg)._scale is None) == bool(extra)


W, GHOST = Var("w"), Var("ghost")
QUARTER = Const(F(1, 4))
SUBST_ERRORS = {
    "binding constant outside the domain": (
        Subst(App("or", (X, W)), (("w", Const(F(1, 3))),)),
        "constant 1/3 outside the domain of L_4"),
    "connective outside the signature in the body": (
        Subst(App("or", (W, App("odot", (X, X)))), (("w", QUARTER),)),
        "connective 'odot' not in signature of L_4"),
    "unassigned free variable of the body": (
        Subst(App("and", (W, GHOST)), (("w", QUARTER),)),
        "unknown variable 'ghost'"),
    # The copy's first error in its own order, not the body's or the bindings'.
    "binding constant before the body's connective": (
        Subst(App("and", (W, App("odot", (X, X)))), (("w", Const(F(1, 3))),)),
        "constant 1/3 outside the domain of L_4"),
    "body's connective before the binding constant": (
        Subst(App("and", (App("odot", (X, X)), W)), (("w", Const(F(1, 3))),)),
        "connective 'odot' not in signature of L_4"),
    "bound variable before the body's free one": (
        Subst(App("and", (X, GHOST)), (("x", Var("phantom")),)),
        "unknown variable 'phantom'"),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("error", SUBST_ERRORS)
def test_subst_raises_what_its_copy_raises(shape, error):
    subst, message = SUBST_ERRORS[error]
    f = SHAPES[shape](subst)
    env = {"x": F(1, 4), "y": F(1, 3)}
    for attempt in (lambda: Program([Var("x"), f], L4).run(env),
                    lambda: Program([Var("x"), substitute(f, {})], L4).run(env),
                    lambda: evaluate(f, L4, env)):
        with pytest.raises(SemanticError) as info:
            attempt()
        assert str(info.value) == message


def test_run_checks_every_assigned_value_on_every_run():
    # In-domain Fractions repeat (equal values, new objects too), ints mix
    # in, and out-of-domain values come between them: each run raises
    # exactly when the reference does, with its text.
    alg = catalog_lookup("L_4")
    roots = [parse("x \\/ (y & ~z)"), parse("x -> z")]
    program = Program(roots, alg)
    steps = [(F(1, 4), F(1, 2), ONE), (F(1, 3), F(1, 2), ONE), (F(1, 4), F(1, 2), ONE),
             (F(2, 8), 1, 0), (F(1, 4), F(1, 2), F(5, 4)), (F(1, 4), 2, 0), (0, 1, F(1, 2)),
             (F(1, 4), -1, 0), (F(3, 4), F(1, 2), F(1, 3)), (F(3, 4), F(1, 2), F(1, 4))]
    raised = 0
    for values in steps * 2:
        env = dict(zip(NAMES, values))
        try:
            expected = [reference(f, alg, env) for f in roots]
        except SemanticError as exc:
            with pytest.raises(SemanticError) as info:
                program.run(env)
            assert str(info.value) == str(exc)
            raised += 1
        else:
            assert program.run(env) == expected
    assert raised == 2 * 5


# --- the compile against the walk it replaced ------------------------------------
# `ReferenceProgram` is the compile as it was written over `_post_order`, one
# generator step per node and a tuple of argument slots per connective; a
# `Subst` that is not a call of the payoff table compiles its literal copy,
# built by `substitute`, and each call is derived on its own, by comparing
# values.  The inline walk must build the same program from every formula:
# the same slots in the same order, variables, code, calls, roots, scale and
# error text.

def reference_fold_identity(op, args, x, y, one):
    if op == "imp":
        return one if (x is not None and x == 0) or (y is not None and y == 1) else None
    if op not in _UNIT:
        return None
    value, constant, other = (x, args[0], args[1]) if x is not None else (y, args[1], args[0])
    if value == _ABSORBING[op]:
        return constant
    if value == _UNIT[op]:
        return other
    return None


class ReferenceProgram(Program):
    def __init__(self, roots, alg, table=None, fixed=None):
        self.algebra = alg
        ops, fixed = alg.ops, fixed or {}
        known, shape, consed, ref, copies = [], [], {}, {}, []
        payoffs = {} if table is None else {id(f): i for i, f in enumerate(table.formulas)}

        def new(value, what):
            known.append(value)
            shape.append(what)
            return len(shape) - 1

        def constant(value):
            key = (value.numerator, value.denominator)
            index = consed.get(key)
            if index is None:
                index = consed[key] = new(value, None)
            return index

        def literal(value):
            if not alg.contains(value):
                raise SemanticError(f"constant {value} outside the domain of {alg.id}")
            return constant(value)

        def variable(name):
            index = consed.get(name)
            if index is None:
                index = consed[name] = literal(fixed[name]) if name in fixed else new(None, name)
            return index

        def call(node):
            """A call of the payoff table, or None: the literal copy compiles.
            Each block is the row's own or one strategy's constants, found by
            comparing values; a constant call's row is its strategies'
            position in the product, and a block's stride the count of the
            later blocks' profiles.  Any other call keeps its gathers alone."""
            i = payoffs.get(id(node.body))
            if i is None:
                return None
            try:
                table.program
            except SemanticError:
                return None
            bound, start, own, gathers, ts = dict(node.bindings), 0, set(), [], []
            for j, block in enumerate(table.strategies):
                names = table.names[start:start + len(block[0])]
                start += len(names)
                inputs = [bound.get(name, Var(name)) for name in names]
                if table.algebra is alg and all(v == Var(name) and name not in fixed
                                                for v, name in zip(inputs, names)):
                    own.update(names)
                    ts.append(0)
                    continue
                if not all(type(v) is Const or type(v) is Var and v.name in fixed
                           for v in inputs):
                    return None
                values = tuple(v.value if type(v) is Const else fixed[v.name] for v in inputs)
                if values not in [tuple(t) for t in block]:
                    return None
                t = [tuple(t) for t in block].index(values)
                ts.append(t)
                stride = 1
                for later in table.strategies[j + 1:]:
                    stride *= len(later)
                gathers.append((stride, len(block), t))
            if not own:
                row = list(itertools.product(*(range(len(b)) for b in table.strategies))).index(
                    tuple(ts))
                return constant(table.rows[i][row])
            return new(None, (table, (), i, gathers))

        def compile_nodes(nodes):
            for f in _post_order(nodes):
                if type(f) is Var:
                    ref[id(f)] = variable(f.name)
                    continue
                if type(f) is Const:
                    ref[id(f)] = literal(f.value)
                    continue
                if type(f) is Subst:
                    index = call(f)
                    if index is None:
                        copies.append(substitute(f, {}))    # held, so its ids stay unique
                        compile_nodes(copies[-1:])
                        index = ref[id(copies[-1])]
                    ref[id(f)] = index
                    continue
                op, fn, fargs = f.op, ops.get(f.op), f.args
                args = (ref[id(fargs[0])],) if len(fargs) == 1 else \
                    (ref[id(fargs[0])], ref[id(fargs[1])])
                if fn is None:
                    if op != "neg" or "imp" not in ops:
                        raise SemanticError(f"connective {op!r} not in signature of {alg.id}")
                    op, fn = "imp", ops["imp"]
                    args += (constant(ZERO),)
                key = (op, *args)
                index = consed.get(key)
                if index is None:
                    x, y = known[args[0]], known[args[-1]]
                    if x is not None and y is not None:
                        index = constant(fn(x, y) if len(args) == 2 else fn(x))
                    elif x is not None or y is not None:
                        index = reference_fold_identity(op, args, x, y, one)
                    if index is None:
                        index = new(None, (fn, args))
                    consed[key] = index
                ref[id(f)] = index

        one = constant(ONE)
        compile_nodes(roots)
        roots = [ref[id(f)] for f in roots]
        live = [False] * len(shape)
        for r in roots:
            live[r] = True
        for index in range(len(shape) - 1, -1, -1):
            if live[index] and type(shape[index]) is tuple:
                for a in shape[index][1]:
                    live[a] = True
        self._slots = known
        self._variables = [(what, index) for index, what in enumerate(shape)
                           if type(what) is str]
        code = [(what[0], index, *what[1:]) for index, what in enumerate(shape)
                if live[index] and type(what) is tuple]
        self._calls = [i for i in code if type(i[0]) is Table]
        self._code = [i for i in code if type(i[0]) is not Table]
        self._roots = roots
        self._product = ops.get("odot")
        self._base = lcm(*(v.denominator for v in known if v is not None)) \
            if all(i[0] in INTEGER_TWINS or i[0] is self._product for i in self._code) else None
        self._scale = None if any(i[0] is self._product for i in self._code) else self._base
        self._kernel = None


def compiled(make, *args, **kwargs):
    """What a compile built, tables by their formulas' text, or its error."""
    try:
        p = make(*args, **kwargs)
    except SemanticError as exc:
        return str(exc)
    calls = [(tuple(map(to_text, c[0].formulas)), c[0].names, *c[1:]) for c in p._calls]
    return p._slots, p._variables, p._code, calls, p._roots, p._base, p._scale


@st.composite
def compile_cases(draw):
    """Substitution cases (shared bodies, constants outside a chain, odot
    outside most signatures), with ~ (lowered to x -> 0 in a Godel algebra),
    x op x and a node under two parents; some names fixed to a value."""
    alg, roots, _ = draw(subst_cases())
    op = draw(st.sampled_from(sorted(set(alg.ops) - {"neg", "delta"})))
    s, t = roots[0], roots[-1]
    roots += [App("neg", (s,)), App(op, (s, s)),
              App(op, (App(op, (s, t)), App(op, (t, App("neg", (s,))))))]
    fixed = draw(st.dictionaries(st.sampled_from(NAMES),
                                 st.sampled_from(values_of(alg) + [F(2, 5)]), max_size=2))
    return alg, draw(st.permutations(roots)), fixed


def reference_free_variables(f, memo=None):
    """Names in first-occurrence, left-to-right order, by recursion on the
    literal copy, in which every `Subst` is carried out."""
    memo = {} if memo is None else memo
    if id(f) not in memo:
        if type(f) is Subst:
            names = reference_free_variables(substitute(f, {}), memo)
        elif type(f) is App:
            names = list(dict.fromkeys(n for a in f.args for n in reference_free_variables(a, memo)))
        else:
            names = [f.name] if type(f) is Var else []
        memo[id(f)] = f, names     # holding f keeps its id unique
    return memo[id(f)][1]


@PROPERTY
@given(compile_cases())
def test_compile_and_free_variables_match_their_references(case):
    alg, roots, fixed = case
    expected = compiled(ReferenceProgram, roots, alg, fixed=fixed)
    assert compiled(Program, roots, alg, fixed=fixed) == expected
    for f in roots:
        assert free_variables(f) == reference_free_variables(f)
    # A compiled program's variables are its formulas', folded away or not:
    # a logical game checks its payoff formulas' names on these.
    roots = roots + [App("and", (App("or", (roots[0], Var("w"))), Const(ZERO)))]
    try:
        names = {n for n, _ in Program(roots, alg)._variables}
    except SemanticError:
        return
    assert names == set().union(*map(free_variables, roots))


def test_compile_of_encodings_over_a_payoff_table_is_unchanged(seed):
    # Gamma on both routes (the weak one fixes each q_a) and the mixed trace,
    # each reading the game's payoff table.
    rng = random.Random(seed)
    cases = []
    for _ in range(4):
        lg = random_logical_game(rng)
        cases.append((lg, [root for _, root in build_mixed_encoding(lg).trace], {}))
        cases.append((lg, [build_encoding(lg).gamma], {}))
    for represent in (represent_rational_qg_delta, represent_rational_lm,
                      represent_rational_gmc_delta):
        lg = represent(random_rational_game(rng)).target
        enc = build_encoding(lg)
        cases.append((lg, [enc.gamma], {name: a for a, name in enc.aux_q.items()}))
    assert any(fixed for _, _, fixed in cases)
    for lg, roots, fixed in cases:
        expected = compiled(ReferenceProgram, roots, lg.algebra, lg.payoff_table, fixed)
        assert compiled(Program, roots, lg.algebra, lg.payoff_table, fixed) == expected


def test_a_fixed_name_of_the_row_s_own_block_is_its_constant(seed):
    # A call left unbound reads the row's own variables, except a name the
    # program fixes: a block fixed whole is that strategy's constants, and a
    # block fixed in part is no call, so the literal copy compiles, and it
    # reads the unfixed names over the rows as variables.
    rng = random.Random(seed)
    pairs_game = LogicalGame(catalog_lookup("L_4"), (("x1", "x2"), ("y",)),
                             (((F(0), F(1, 2)), (F(1, 4), F(1)), (F(1), F(3, 4))),
                              ((F(0),), (F(1, 2),), (F(1),))),
                             (parse("(x1 & y) \\/ ~x2"), parse("(x2 -> y) + x1")))
    games = [pairs_game] + [random_logical_game(rng) for _ in range(6)]
    for lg in games:
        alg, table = lg.algebra, lg.payoff_table
        roots = [Subst(phi, ()) for phi in lg.payoff_formulas]
        for i, block in enumerate(lg.variables):
            strategy = rng.choice(lg.strategies[i])
            for fixed in (dict(zip(block, strategy)), {block[0]: strategy[0]}):
                expected = compiled(ReferenceProgram, roots, alg, table, fixed)
                assert compiled(Program, roots, alg, table, fixed) == expected
                if type(expected) is str:
                    continue
                bound = [Subst(phi, tuple((name, Const(v)) for name, v in fixed.items()))
                         for phi in lg.payoff_formulas]
                # Over the rows, where only a block fixed in part leaves a
                # root or an instruction reading a variable; there and per
                # profile, each root is its literal copy's value.
                program, twin = Program(roots, alg, table, fixed), Program(bound, alg, table)
                scale, columns = program.over_rows(table)
                assert twin.over_rows(table) == (scale, columns)
                read = {a for _, _, args in program._code for a in args}.union(program._roots)
                assert bool(read & {i for _, i in program._variables}) == (len(fixed) < len(block))
                program, twin = Program(roots, alg, fixed=fixed), Program(bound, alg)
                for profile, *numerators in zip(lg.profiles(), *columns):
                    assignment = lg.assignment(profile)
                    assert program.run(assignment) == twin.run(assignment) == \
                        [Fraction(n, scale) for n in numerators]


def test_compile_and_free_variables_of_a_100000_deep_chain():
    f = Var("v0")
    for k in range(100_000):
        f = App("neg", (f,)) if k % 2 else App("or", (f, Var(f"v{k % 3}")))
    alg = catalog_lookup("L_4")
    assert compiled(Program, [f], alg) == compiled(ReferenceProgram, [f], alg)
    assert free_variables(f) == ["v0", "v2", "v1"]
