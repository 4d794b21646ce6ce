"""Gamma encodings of pure equilibria and the mixed-equilibrium formula."""

import dataclasses
import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from mvgames import (App, LogicalGame, MixedProfile, Var, catalog_lookup,
                     check_mixed_ne, decide_pure_ne, dirac, evaluate,
                     expected_payoffs, find_mixed_2p, free_variables, is_subreduct,
                     logical_to_strategic, love_and_hate, matching_pennies,
                     new_technology, parse, pure_ne_scan, relevant_elements,
                     represent_binary_boolean, represent_binary_chain,
                     represent_binary_general, represent_general,
                     represent_rational_gmc_delta, represent_rational_lm,
                     represent_rational_qg_delta, to_text, verify_mixed,
                     verify_representation, vickrey)
from mvgames import chars, equilibria
from mvgames.equilibria import (MixedNEEncoding, PureNEEncoding, build_encoding,
                                build_gamma, build_gamma_weak, build_mixed_encoding,
                                build_prob_distr, lift_algebra_for_mixed, satisfies_gamma)
from mvgames.formula import Const, Program, Subst, conj_all, disj_all, substitute
from mvgames.game import classify, make_game
from mvgames.errors import SemanticError
from conftest import random_distribution, random_logical_game
from test_column_fill import games as column_fill_games

F = Fraction
NT = new_technology(F(1))
LH = love_and_hate(2, 4)
MP_REP = represent_binary_boolean(matching_pennies().strategic)


def _spine(formula, op):
    if isinstance(formula, App) and formula.op == op:
        return _spine(formula.args[0], op) + [formula.args[1]]
    return [formula]


def test_gamma_nt_shape():
    enc = build_gamma(NT.logical)
    conjuncts = _spine(enc.gamma, "and")
    assert len(conjuncts) == 6                       # 3 players x 2 strategies
    assert all(c.op == "imp" for c in conjuncts)
    assert set(free_variables(enc.gamma)) == {"v1", "v2", "v3"}
    assert enc.variant == "EXPRESSIBLE"
    assert enc.aux_q == {}


def test_gamma_nt_values():
    enc = build_gamma(NT.logical)
    alg = NT.logical.algebra
    one = {"v1": F(1), "v2": F(1), "v3": F(1)}
    zero = {"v1": F(0), "v2": F(0), "v3": F(0)}
    assert evaluate(enc.gamma, alg, one) == 1
    assert evaluate(enc.gamma, alg, zero) < 1


def test_gamma_single_strategy_game():
    alg = catalog_lookup("L_4_C")
    lg = LogicalGame(alg, (("v1",), ("v2",)),
                     (((F(1, 2),),), ((F(3, 4),),)),
                     (parse("v1 & v2"), parse("v1 + v2")))
    enc = build_gamma(lg)
    assert satisfies_gamma(enc, ((F(1, 2),), (F(3, 4),)))


def test_gamma_requires_expressibility():
    with pytest.raises(SemanticError):
        build_gamma(LH.logical)          # L_4 has no inner constants


def test_build_encoding_classifies_once(monkeypatch):
    # The flags and relevant elements are found once and passed down; the
    # public builders still check them, with the same texts.
    calls = []

    def counting(lg):
        calls.append(lg)
        return classify(lg)

    monkeypatch.setattr(equilibria, "classify", counting)
    for lg, variant in ((NT.logical, "EXPRESSIBLE"), (LH.logical, "WEAKLY_EXPRESSIBLE")):
        calls.clear()
        assert build_encoding(lg).variant == variant and calls == [lg]
    with pytest.raises(SemanticError, match="is not expressible; use build_gamma_weak"):
        build_gamma(LH.logical)
    godel = LogicalGame(catalog_lookup("G_4"), (("v1",), ("v2",)),
                        (((F(1, 2),), (F(1),)), ((F(1),),)), (parse("v1"), parse("v2")))
    with pytest.raises(SemanticError, match="game over G_4 is not weakly expressible"):
        build_encoding(godel)


def test_gamma_weak_love_and_hate_matches_oracle():
    enc = build_gamma_weak(LH.logical)
    assert enc.variant == "WEAKLY_EXPRESSIBLE"
    assert set(enc.aux_q) == {F(0), F(1, 4), F(1, 2), F(3, 4), F(1)}
    satisfying = {p for p in LH.logical.profiles() if satisfies_gamma(enc, p)}
    table = logical_to_strategic(LH.logical)
    oracle_ne = {tuple(LH.logical.strategies[i][k] for i, k in enumerate(ids))
                 for ids in pure_ne_scan(table)}
    assert satisfying == oracle_ne


def test_gamma_weak_wrong_q_falsifies_chi_block():
    enc = build_gamma_weak(LH.logical)
    profile = ((F(0),), (F(0),))
    assignment = LH.logical.assignment(profile)
    for a, name in enc.aux_q.items():
        assignment[name] = a
    assignment[enc.aux_q[F(1, 4)]] = F(1, 2)         # mispin one q variable
    assert evaluate(enc.gamma, LH.logical.algebra, assignment) < 1


def test_existence_full_game_drops_membership():
    enc = build_encoding(MP_REP.target)              # Boolean MP is full
    assert enc.existence is enc.gamma
    profiles, sat = decide_pure_ne(MP_REP.target, enc)
    assert profiles == [] and not sat


def test_existence_membership_counts_profiles():
    enc = build_gamma(NT.logical)
    membership, gamma = enc.existence.args
    assert gamma is enc.gamma
    assert len(_spine(membership, "or")) == 8        # 2^3 profiles


def test_deciding_builds_no_existence_formula(monkeypatch):
    # Deciding reads gamma alone: membership is never built on that route.
    def no_membership(lg):
        raise AssertionError("membership built")

    monkeypatch.setattr(equilibria, "_membership", no_membership)
    for lg in (NT.logical, LH.logical, MP_REP.target):
        encodings = [build_encoding(lg), build_gamma_weak(lg)]
        if encodings[0].variant == "EXPRESSIBLE":
            encodings.append(build_gamma(lg))
        for enc in encodings:
            assert decide_pure_ne(lg, enc) == decide_pure_ne(lg)
            assert "existence" not in vars(enc)


def test_existence_is_built_on_first_read():
    full = build_encoding(MP_REP.target)
    assert full.full and "existence" not in vars(full)
    assert full.existence is full.gamma and full.existence is full.existence
    for enc in (build_gamma(NT.logical), build_gamma_weak(NT.logical)):
        assert enc.full is False and "existence" not in vars(enc)
        first = enc.existence
        assert first.op == "and" and first.args[1] is enc.gamma
        assert to_text(first.args[0]) == to_text(equilibria._membership(NT.logical))
        assert enc.existence is first


def test_existence_confines_to_profiles(seed):
    enc = build_gamma(NT.logical)
    alg = NT.logical.algebra
    rng = random.Random(seed)
    for profile in NT.logical.profiles():
        e = NT.logical.assignment(profile)
        value = evaluate(enc.existence, alg, e)
        assert (value == 1) == satisfies_gamma(enc, profile)
    for _ in range(50):
        e = {v: F(rng.randint(0, 4), 4) for v in ("v1", "v2", "v3")}
        if any(e[v] not in (F(0), F(1)) for v in e):
            assert evaluate(enc.existence, alg, e) < 1


def test_decide_pure_ne_nt():
    profiles, sat = decide_pure_ne(NT.logical)
    assert sat
    assert profiles == [((F(1),), (F(1),), (F(1),))]
    table_ne = pure_ne_scan(NT.strategic)
    assert [NT.representation.encode(p) for p in table_ne] == profiles


def test_prob_distr_examples():
    alg = catalog_lookup("STD_PL")
    delta2 = build_prob_distr(("p1", "p2"))
    assert evaluate(delta2, alg, {"p1": F(1, 2), "p2": F(1, 2)}) == 1
    assert evaluate(delta2, alg, {"p1": F(1, 2), "p2": F(1, 3)}) < 1
    delta4 = build_prob_distr(("a", "b", "c", "d"))
    assert evaluate(delta4, alg, {"a": F(1), "b": F(0), "c": F(0), "d": F(0)}) == 1


def test_prob_distr_random_vectors(seed):
    alg = catalog_lookup("STD_PL")
    names = ("p1", "p2", "p3")
    delta = build_prob_distr(names)
    rng = random.Random(seed)
    for _ in range(500):
        vector = [F(rng.randint(0, 8), 8) for _ in names]
        if rng.random() < 0.5:
            total = sum(vector) or F(1)
            vector = [v / total for v in vector]
        env = dict(zip(names, vector))
        assert (evaluate(delta, alg, env) == 1) == (sum(vector) == 1)


def test_prob_distr_single_variable():
    alg = catalog_lookup("STD_PL")
    delta = build_prob_distr(("p",))
    assert evaluate(delta, alg, {"p": F(1)}) == 1
    assert evaluate(delta, alg, {"p": F(2, 3)}) < 1


def test_lift_algebra_choices():
    assert lift_algebra_for_mixed(MP_REP.target).id == "STD_PL"
    assert lift_algebra_for_mixed(LH.logical).id == "STD_QPL_DELTA"
    # product-algebra games keep their own algebra
    lpih = LogicalGame(catalog_lookup("STD_LPIH"), (("v1",), ("v2",)),
                       (((F(1, 3),), (F(2, 3),)), ((F(0),), (F(1),))),
                       (parse("v1 => v2"), parse("v1 * v2")))
    assert lift_algebra_for_mixed(lpih).id == "STD_LPIH"
    ranks = (0, 1)
    point = dirac((2, 2), ranks)
    assert check_mixed_ne(lpih, point)[0] == \
        verify_mixed(logical_to_strategic(lpih), point)


def test_lift_reaches_lpih_for_lpi_games_with_inner_values():
    # STD_LPI has constants 0 and 1 only, and its product implication keeps
    # it out of the PL algebras: STD_LPIH is the one expansion left.
    lpi = LogicalGame(catalog_lookup("STD_LPI"), (("v1",), ("v2",)),
                      (((F(0),), (F(1, 2),)), ((F(0),), (F(1),))),
                      (parse("v1 => v2"), parse("v1 * ~v2")))
    assert lift_algebra_for_mixed(lpi).id == "STD_LPIH"
    table = logical_to_strategic(lpi)
    counts = table.strategy_counts
    profiles = [dirac(counts, ranks) for ranks in table.profiles()]
    profiles.append(MixedProfile(((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)))))
    verdicts = [check_mixed_ne(lpi, profile)[0] for profile in profiles]
    assert verdicts == [verify_mixed(table, profile) for profile in profiles]
    assert any(verdicts) and not all(verdicts)


def test_lift_rejects_algebras_without_product_expansion():
    g4c = LogicalGame(catalog_lookup("G_4_C"), (("v1",), ("v2",)),
                      (((F(1, 4),), (F(1),)), ((F(0),), (F(3, 4),))),
                      (parse("v1 -> v2"), parse("v1 & v2")))
    profile = dirac((2, 2), (0, 0))
    # A failed build keeps nothing: every call raises the same error.
    for attempt in (lambda: build_mixed_encoding(g4c), lambda: check_mixed_ne(g4c, profile)) * 2:
        with pytest.raises(SemanticError,
                           match="^no catalog product-algebra expansion accommodates G_4_C$"):
            attempt()


PRODUCT_ALGEBRAS = [catalog_lookup(name) for name in
                    ("STD_PL", "STD_PL_DELTA", "STD_QPL_DELTA", "STD_LPI", "STD_LPIH")]


def test_mixed_check_is_the_same_in_every_accommodating_algebra(seed, battery_representations):
    # Every catalog product algebra that holds the game's algebra as a
    # subreduct, with a constant per relevant element, gives the same values.
    rng = random.Random(seed)
    games = [NT.logical, LH.logical, MP_REP.target, love_and_hate(2, 2).logical]
    games += [random_logical_game(rng) for _ in range(10)]
    games += [rep.target for index, (method, rep) in enumerate(battery_representations)
              if method in ("ab_i", "ab_ii", "ab_iii", "vii") and index % 20 == 0]
    choices = 0
    for lg in games:
        enc = build_mixed_encoding(lg)
        counts = [len(block) for block in lg.strategies]
        profile = MixedProfile(tuple(random_distribution(rng, c) for c in counts))
        checked = check_mixed_ne(lg, profile, enc=enc)[1]
        roots = [root for _, root in enc.trace]
        accommodating = [alg for alg in PRODUCT_ALGEBRAS
                         if is_subreduct(lg.algebra, alg)
                         and all(alg.has_constant(a) for a in relevant_elements(lg))]
        assert enc.algebra in accommodating or enc.algebra is lg.algebra
        for alg in accommodating:
            values = Program(roots, alg).run(enc.assignment(profile))
            assert list(zip([name for name, _ in enc.trace], values)) == checked, alg.id
        choices += len(accommodating) > 1
    assert choices > 20


def test_expected_payoff_matching_pennies_uniform():
    enc = build_mixed_encoding(MP_REP.target)
    uniform = MixedProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    env = enc.assignment(uniform)
    assert evaluate(dict(enc.trace)["expected_1"], enc.algebra, env) == F(1, 2)
    assert evaluate(dict(enc.trace)["expected_2"], enc.algebra, env) == F(1, 2)


def test_expected_payoff_dirac_equals_formula_value(seed):
    rng = random.Random(seed)
    for _ in range(20):
        lg = random_logical_game(rng)
        enc = build_mixed_encoding(lg)
        counts = [len(b) for b in lg.strategies]
        ranks = tuple(rng.randrange(c) for c in counts)
        point = dirac(counts, ranks)
        env = enc.assignment(point)
        profile = tuple(lg.strategies[i][k] for i, k in enumerate(ranks))
        from mvgames import payoff
        values = payoff(lg, profile)
        for i in range(lg.n_players):
            assert evaluate(dict(enc.trace)[f"expected_{i + 1}"], enc.algebra, env) == values[i]


def test_check_mixed_matching_pennies():
    uniform = MixedProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    ok, trace = check_mixed_ne(MP_REP.target, uniform)
    assert ok
    assert dict(trace)["formula"] == 1
    skewed = MixedProfile(((F(3, 4), F(1, 4)), (F(1, 2), F(1, 2))))
    ok, _ = check_mixed_ne(MP_REP.target, skewed)
    assert not ok


def test_check_mixed_love_and_hate_family():
    enc = build_mixed_encoding(LH.logical)
    table = logical_to_strategic(LH.logical)
    for t, r in ((0, 2), (1, 3), (2, 4)):
        vector = [F(0)] * 5
        vector[t] = F(1, 2)
        vector[r] = F(1, 2)
        profile = MixedProfile((tuple(vector), tuple(vector)))
        ok, _ = check_mixed_ne(LH.logical, profile, enc=enc)
        assert ok
        assert verify_mixed(table, profile)
        env = enc.assignment(profile)
        assert evaluate(dict(enc.trace)["expected_1"], enc.algebra, env) == \
            expected_payoffs(table, profile)[0] == F(1, 2)


def test_mixed_encoding_single_strategy_player():
    alg = catalog_lookup("STD_QPL_DELTA")
    lg = LogicalGame(alg, (("v1",), ("v2",)),
                     (((F(1, 2),),), ((F(0),), (F(1),))),
                     (parse("v1 & v2"), parse("v1 -> v2")))
    enc = build_mixed_encoding(lg)
    forced = MixedProfile(((F(1),), (F(0), F(1))))
    ok, _ = check_mixed_ne(lg, forced, enc=enc)
    assert ok == verify_mixed(logical_to_strategic(lg), forced)
    slack = MixedProfile.__new__(MixedProfile)   # bypass validation: p != 1
    object.__setattr__(slack, "probabilities", ((F(1, 2),), (F(0), F(1))))
    assert not check_mixed_ne(lg, slack, enc=enc)[0]


def test_check_mixed_dirac_embedding():
    counts = [len(b) for b in NT.logical.strategies]
    good = dirac(counts, (1, 1, 1))
    bad = dirac(counts, (0, 0, 0))
    assert check_mixed_ne(NT.logical, good)[0]
    assert not check_mixed_ne(NT.logical, bad)[0]


def test_mixed_trace_lines():
    from mvgames.equilibria import format_trace
    uniform = MixedProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    _, trace = check_mixed_ne(MP_REP.target, uniform)
    text = format_trace(trace)
    assert "probdistr_1 1" in text
    assert "expected_1 1/2" in text
    keys = [key for key, _ in trace]
    assert keys.count("dev_1_0") == 1 and keys[-1] == "formula"


def test_prob_vars_lexicographic_and_fresh():
    enc = build_mixed_encoding(LH.logical)
    assert enc.prob_vars[0] == tuple(f"p_1__{k}" for k in range(5))
    assert set(itertools.chain(*enc.prob_vars)).isdisjoint(LH.logical.all_variables)


def test_mixed_profile_dimension_mismatch():
    with pytest.raises(SemanticError):
        check_mixed_ne(MP_REP.target, MixedProfile(((F(1),), (F(1), F(0)))))


def test_check_mixed_agrees_with_oracle_on_random_profiles(seed):
    rng = random.Random(seed)
    agree_true = 0
    for _ in range(60):
        lg = random_logical_game(rng)
        counts = [len(b) for b in lg.strategies]
        table = logical_to_strategic(lg)
        enc = build_mixed_encoding(lg)
        profiles = [MixedProfile(tuple(random_distribution(rng, c) for c in counts))]
        if table.n_players == 2:
            profiles += [c.profile for c in find_mixed_2p(table)[:2]]
        for profile in profiles:
            verdict = check_mixed_ne(lg, profile, enc=enc)[0]
            assert verdict == verify_mixed(table, profile)
            agree_true += verdict
    assert agree_true > 20       # both directions of the equivalence exercised


# The encodings hold explicit substitutions; materialized, they are the
# literal encodings, and both must give the same answers.

def _literal_gamma(enc):
    """Gamma's literal copy, held as the deviations: on the weak route it
    keeps the chi block, so its compile folds that block, each q_a fixed."""
    literal = PureNEEncoding(enc.game, deviations=substitute(enc.gamma, {}), full=enc.full,
                             aux_q=enc.aux_q, variant=enc.variant)
    if enc.variant == "WEAKLY_EXPRESSIBLE":
        chi_block = literal.deviations.args[0]
        assert literal.deviations.op == "and" and chi_block == enc.gamma.args[0]
    return literal


def _literal_mixed(enc):
    return MixedNEEncoding(enc.game, enc.algebra, enc.prob_vars,
                           tuple((name, substitute(root, {})) for name, root in enc.trace),
                           substitute(enc.full, {}))


def test_gamma_routes_decide_as_literal_encodings(battery_representations):
    routes = set()
    for index, (method, rep) in enumerate(battery_representations):
        lg = rep.target
        encodings = [build_encoding(lg)]
        if encodings[0].variant == "EXPRESSIBLE" and index % 10 == 0:
            encodings.append(build_gamma_weak(lg))
        for enc in encodings:
            routes.add(enc.variant)
            assert decide_pure_ne(lg, enc) == decide_pure_ne(lg, _literal_gamma(enc)), method
    assert routes == {"EXPRESSIBLE", "WEAKLY_EXPRESSIBLE"}


def test_mixed_check_as_literal_encoding(seed, battery_representations):
    rng = random.Random(seed)
    games = [random_logical_game(rng) for _ in range(30)] + [
        rep.target for index, (method, rep) in enumerate(battery_representations)
        if method in ("ab_i", "ab_ii", "ab_iii", "vii") and index % 20 == 0]
    for lg in games:
        enc = build_mixed_encoding(lg)
        literal = _literal_mixed(enc)
        counts = [len(block) for block in lg.strategies]
        profiles = [MixedProfile(tuple(random_distribution(rng, c) for c in counts)),
                    dirac(counts, tuple(rng.randrange(c) for c in counts))]
        for profile in profiles:
            assert check_mixed_ne(lg, profile, enc=enc) == \
                check_mixed_ne(lg, profile, enc=literal)


def test_mixed_profile_player_count_mismatch():
    # The oracle rejects these too; the formula route must not read a
    # profile for more or fewer players than the game has.
    half = (F(1, 2), F(1, 2))
    for vectors in ((half,) * 4, (half,) * 2):
        with pytest.raises(SemanticError, match=f"profile has {len(vectors)} probability "
                                                "vectors for 3 players"):
            check_mixed_ne(NT.logical, MixedProfile(vectors))
        with pytest.raises(SemanticError, match="does not match the game's strategy counts"):
            verify_mixed(logical_to_strategic(NT.logical), MixedProfile(vectors))


def test_pinned_gamma_decides_as_unpinned(battery_representations):
    weak = 0
    for index, (method, rep) in enumerate(battery_representations):
        lg = rep.target
        enc = build_encoding(lg)
        if enc.variant == "EXPRESSIBLE":
            if index % 10:
                continue
            enc = build_gamma_weak(lg)
        weak += 1
        pinned = {name: a for a, name in enc.aux_q.items()}
        unpinned = Program([enc.gamma], lg.algebra)
        assert not set(pinned) & {name for name, _ in enc.gamma_program._variables}
        assert not set(pinned) & {name for name, _ in enc.literal_program._variables}
        scale, (rows,) = enc.gamma_program.over_rows(lg.payoff_table)
        for profile, row in zip(lg.profiles(), rows):
            value = unpinned.run(lg.assignment(profile) | pinned)[0]
            assert satisfies_gamma(enc, profile) == (value == 1) == (row == scale), method
    assert weak > 200


def test_pin_outside_the_domain_raises_the_constant_error():
    lg = LH.logical
    enc = build_gamma_weak(lg)
    name = enc.aux_q[F(1, 4)]
    message = "constant 1/3 outside the domain of L_4"
    for attempt in (lambda: Program([enc.gamma], lg.algebra, fixed={name: F(1, 3)}),
                    lambda: Program([parse("v1 \\/ c(1/3)")], lg.algebra)):
        with pytest.raises(SemanticError) as info:
            attempt()
        assert str(info.value) == message


# --- deciding without the chi block ---------------------------------------------
# Deciding fixes each q_a to a, where chi_a(q_a) is 1: it compiles the
# deviations alone, and the chi block is built on the first read of gamma.

def _weak_encodings(battery_representations):
    """Every weak-route encoding of the battery, and `build_gamma_weak` on
    the expressible new_technology games over L_4_C."""
    encodings, methods = [], set()
    for method, rep in battery_representations:
        enc = build_encoding(rep.target)
        if enc.variant == "WEAKLY_EXPRESSIBLE":
            methods.add(method)
            encodings.append(enc)
    assert methods == {"ab_ii", "ab_iii", "vi_lm"}
    for c in (F(1), F(3, 2)):
        lg = new_technology(c).logical
        assert lg.algebra.id == "L_4_C" and classify(lg).expressible
        encodings.append(build_gamma_weak(lg))
    return encodings


def test_deciding_without_the_chi_block_is_exact(battery_representations):
    encodings, on_columns = _weak_encodings(battery_representations), 0
    for enc in encodings:
        lg, pins = enc.game, {name: a for a, name in enc.aux_q.items()}
        chi_block, deviations = enc.gamma.args
        assert deviations is enc.deviations and pins
        # The chi block alone, each q_a fixed, compiles to the constant 1.
        alone = Program([chi_block], lg.algebra, fixed=pins)
        assert alone._code == alone._calls == alone._variables == []
        assert alone.run({}) == [1]
        whole = Program([enc.gamma], lg.algebra, lg.payoff_table, fixed=pins)
        rows = enc.gamma_program.over_rows(lg.payoff_table)
        assert rows == whole.over_rows(lg.payoff_table)
        on_columns += enc.gamma_program._scale is not None
        # Per profile, the whole gamma's literal copy, each q_a fixed.
        literal = Program([enc.gamma], lg.algebra, fixed=pins)
        scale, (values,) = rows
        for profile, value in zip(lg.profiles(), values):
            assert satisfies_gamma(enc, profile) == \
                (literal.run(lg.assignment(profile))[0] == 1) == (value == scale)
    assert on_columns == len(encodings) > 400


def _eager_existence(lg, weak):
    """The existence formula built whole, as the encoding built it before
    its chi block was built on first read: gamma with its chi block first on
    the weak route, then membership before it unless the game is full."""
    flags, taken, aux_q = classify(lg), set(lg.all_variables), {}
    for a in flags.relevant if weak else ():
        aux_q[a] = f"q_{a.numerator}_{a.denominator}"
        while aux_q[a] in taken:
            aux_q[a] = "_" + aux_q[a]
        taken.add(aux_q[a])
    node_at = {a: Var(aux_q[a]) if weak else Const(a) for a in flags.relevant}
    gamma = conj_all(
        App("imp", (Subst(phi, tuple((name, node_at[value])
                                     for name, value in zip(lg.variables[i], strategy))),
                    Subst(phi, ())))
        for i, phi in enumerate(lg.payoff_formulas) for strategy in lg.strategies[i])
    if weak:
        gamma = App("and", (conj_all(chars.pseudo_char(lg.algebra, a, aux_q[a])
                                     for a in flags.relevant), gamma))
    if flags.full:
        return gamma
    membership = disj_all(conj_all(chars.pseudo_char(lg.algebra, value, name)
                                   for block, tup in zip(lg.variables, profile)
                                   for name, value in zip(block, tup))
                          for profile in lg.profiles())
    return App("and", (membership, gamma))


def test_deciding_builds_no_chi_block(monkeypatch):
    calls = []
    build = equilibria.pseudo_char
    monkeypatch.setattr(equilibria, "pseudo_char",
                        lambda *args: calls.append(args) or build(*args))
    mp_lm = represent_rational_lm(matching_pennies().strategic).target
    for lg, make in ((LH.logical, build_encoding), (mp_lm, build_encoding),
                     (NT.logical, build_gamma_weak)):
        calls.clear()
        enc = make(lg)
        assert enc.variant == "WEAKLY_EXPRESSIBLE"
        decide_pure_ne(lg, enc)
        assert calls == []
        gamma = enc.gamma           # one chi_a(q_a) per relevant element
        assert calls == [(lg.algebra, a, name) for a, name in enc.aux_q.items()]
        assert len(calls) == len(relevant_elements(lg))
        assert enc.gamma is gamma and len(calls) == len(relevant_elements(lg))
        assert to_text(enc.existence) == to_text(_eager_existence(lg, weak=True))
    for lg in (NT.logical, MP_REP.target):
        assert to_text(build_encoding(lg).existence) == to_text(_eager_existence(lg, weak=False))


def test_decide_lists_profiles_sorted_as_gamma_per_profile(battery_representations):
    several = 0
    for method, rep in battery_representations:
        enc = build_encoding(rep.target)
        found, sat = decide_pure_ne(rep.target, enc)
        assert found == sorted(found) and sat == bool(found), method
        # Gamma as printed, run once per profile, finds the same profiles.
        assert found == [p for p in enc.game.profiles() if satisfies_gamma(enc, p)], method
        several += len(found) > 1
    assert several > 100


def test_mixed_formula_text_is_pinned():
    # Sharing each profile's probability product across players changes
    # the DAG, not the text it prints.
    text = to_text(build_mixed_encoding(NT.logical).full)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "8ff6059d9c3b68c55a168119e5e2f012d10adc67057b83b166f13396230657f1"


def _vii(source):
    """`source` by vii on L_5_C, anchors k/5."""
    anchors = [F(k, 5) for k in range(max(source.strategy_counts))]
    payoff_anchors = [F(k, 5) for k in range(len(source.payoff_values()))]
    return represent_general(source, catalog_lookup("L_n_C", 5), anchors,
                             payoff_anchors).target


def _scaled_games(seed):
    """A seeded 8x8 game by vi_lm and a 3x3x3 game by vii, levels j/4."""
    rng = random.Random(seed)
    levels = [F(j, 4) for j in range(5)]
    square = make_game((8, 8), lambda profile: [rng.choice(levels) for _ in range(2)])
    cube = make_game((3, 3, 3), lambda profile: [rng.choice(levels) for _ in range(3)])
    return [represent_rational_lm(square).target, _vii(cube)]


def test_mixed_route_matches_the_oracle_at_scale(seed):
    rng = random.Random(seed)
    checked = 0
    for lg in _scaled_games(seed):
        table = logical_to_strategic(lg)
        counts = [len(block) for block in lg.strategies]
        profiles = [dirac(counts, p) for p in pure_ne_scan(table)]
        if lg.n_players == 2:
            profiles += [c.profile for c in find_mixed_2p(table)]
        profiles += [MixedProfile(tuple(random_distribution(rng, c) for c in counts))
                     for _ in range(4)]
        for profile in profiles:
            ok, trace = check_mixed_ne(lg, profile)
            assert ok == verify_mixed(table, profile)
            values = dict(trace)
            expected = [values[f"expected_{i + 1}"] for i in range(lg.n_players)]
            assert expected == list(expected_payoffs(table, profile))
            assert all(type(v) is F for v in values.values())
            checked += ok
    assert checked >= 2


# --- one formula per game: built once, compiled once, run per profile ---------

def _mixed_games(seed):
    """A vi_lm 4x4 game, vii 3x3 and 3x3x2 games (levels j/4), and a random
    logical game over STD_QPL_DELTA."""
    rng = random.Random(seed)
    levels = [F(j, 4) for j in range(5)]

    def game(counts):
        return make_game(counts, lambda profile: [rng.choice(levels) for _ in counts])
    return [represent_rational_lm(game((4, 4))).target, _vii(game((3, 3))),
            _vii(game((3, 3, 2))), random_logical_game(rng)]


def test_mixed_formula_is_built_and_compiled_once_per_game(seed, monkeypatch):
    lg = _mixed_games(seed)[0]
    rng = random.Random(seed)
    profiles = [MixedProfile(tuple(random_distribution(rng, 4) for _ in range(2)))
                for _ in range(3)]
    lg.payoff_table.program     # the payoff formulas' own compile, not the check's
    builds, compiles = [], []
    lift, init = equilibria.lift_algebra_for_mixed, Program.__init__
    monkeypatch.setattr(equilibria, "lift_algebra_for_mixed",
                        lambda game: builds.append(1) or lift(game))

    def compile_spy(self, roots, *args, **kwargs):
        compiles.append(len(roots))
        init(self, roots, *args, **kwargs)
    monkeypatch.setattr(Program, "__init__", compile_spy)
    plain = [check_mixed_ne(lg, profile) for profile in profiles]
    given = [check_mixed_ne(lg, profile, enc=build_mixed_encoding(lg)) for profile in profiles]
    assert plain == given
    assert len(builds) == 1 and len(compiles) == 1


def _denominator_profiles(counts):
    """Profiles over D = 6, 10^20 + 39, 1 (Dirac) and 6 again."""
    def spread(d):
        return MixedProfile(tuple((F(1, d),) * (c - 1) + (1 - F(c - 1, d),) for c in counts))
    return [spread(6), spread(10 ** 20 + 39), dirac(counts, tuple(c - 1 for c in counts)),
            spread(6)]


def test_long_lived_mixed_program_matches_a_fresh_one(seed):
    # The game's program runs every profile: on the big D's kernel, then
    # on that kernel again for D = 1, then on a kernel rebuilt for 6.
    for lg in _mixed_games(seed):
        enc = build_mixed_encoding(lg)
        table = logical_to_strategic(lg)
        counts = [len(block) for block in lg.strategies]
        scales = []
        for profile in _denominator_profiles(counts):
            ok, trace = check_mixed_ne(lg, profile)
            scales.append(enc.program._kernel[0])
            fresh = Program([root for _, root in enc.trace], enc.algebra,
                            lg.payoff_table).run(enc.assignment(profile))
            assert ok == (fresh[-1] == 1) == verify_mixed(table, profile)
            assert [name for name, _ in trace] == [name for name, _ in enc.trace]
            assert [(v, type(v)) for _, v in trace] == [(v, type(v)) for v in fresh]
        assert scales[0] == scales[3] < scales[1] == scales[2], scales


def test_mixed_check_failure_is_not_cached():
    lg = represent_binary_boolean(matching_pennies().strategic).target
    half = (F(1, 2), F(1, 2))
    with pytest.raises(SemanticError, match="profile has 3 probability vectors for 2 players"):
        check_mixed_ne(lg, MixedProfile((half,) * 3))
    assert check_mixed_ne(lg, MixedProfile((half, half)))[0]
    assert not check_mixed_ne(lg, MixedProfile(((F(3, 4), F(1, 4)), half)))[0]


# --- deciding over the rows of a filled payoff table ------------------------------

def reference_decide_pure_ne(lg, enc):
    """The decision by one run of gamma per profile."""
    found = [profile for profile in lg.profiles() if satisfies_gamma(enc, profile)]
    return sorted(found), bool(found)


def literal_decide_pure_ne(enc):
    """The decision by one run of gamma's literal copy per profile, each q_a
    assigned a; the copy reads no payoff table."""
    lg, pins = enc.game, {name: a for a, name in enc.aux_q.items()}
    program = Program([substitute(enc.gamma, {})], lg.algebra)
    found = [profile for profile in lg.profiles()
             if program.run(lg.assignment(profile) | pins)[0] == 1]
    return sorted(found), bool(found)


def _fresh(lg):
    """An equal game with a table of its own, still empty."""
    return LogicalGame(lg.algebra, lg.variables, lg.strategies, lg.payoff_formulas)


def _routes(lg):
    flags = classify(lg)
    return [build for build, ok in ((build_gamma, flags.expressible),
                                    (build_gamma_weak, flags.weakly_expressible)) if ok]


def _decided(decide, lg, build):
    """What `decide` answers on `lg` with the encoding `build` makes, or the
    text of the error either raises."""
    try:
        return decide(lg, build(lg))
    except SemanticError as exc:
        return str(exc)


def _assert_decides_as_reference(lg, after):
    """On every route: decide on a cold copy of `lg`, and on one that `after`
    read first, answers as one run of gamma per profile on a copy of its
    own; returns how many of those decisions ran gamma on packed columns."""
    on_columns = 0
    for build in _routes(lg):
        expected = _decided(reference_decide_pure_ne, _fresh(lg), build)
        for fill in (None, after):
            copy, made = _fresh(lg), []
            if fill is not None:
                fill(copy)
            answer = _decided(decide_pure_ne, copy, lambda g: made.append(build(g)) or made[-1])
            assert answer == expected, (build.__name__, fill)
            on_columns += type(answer) is not str and \
                made[-1].gamma_program._scale is not None
    return on_columns


def _pure_dnf_games(seed):
    """Representations by every method of seeded games shaped as the pure
    benchmark's: five rational or two binary payoff levels, 2 and 3 players,
    and players with one strategy."""
    rng = random.Random(seed)
    rational = ((4, 4), (3, 3, 3), (2, 3, 4), (1, 3), (3, 1, 2))
    binary = ((4, 4), (2, 2, 3), (1, 4))
    for counts in rational:
        base, q = rng.choice((-1, 0, 1)), rng.choice((2, 3, 4))
        levels = [base + F(j, q) for j in range(5)]
        source = make_game(counts, lambda p: [rng.choice(levels) for _ in counts])
        for method in (represent_rational_qg_delta, represent_rational_gmc_delta,
                       represent_rational_lm):
            yield method(source)
    for counts in binary:
        a, b = sorted(rng.sample([F(-1), F(0), F(1, 2), F(2)], 2))
        source = make_game(counts, lambda p: [rng.choice((a, b)) for _ in counts])
        if len(set(v for row in source.payoffs.values() for v in row)) < 2:
            continue
        yield represent_binary_boolean(source)
        yield represent_binary_chain(source)
        yield represent_binary_general(source, 2, catalog_lookup("L_n", 2))


def test_decide_over_rows_as_per_profile_on_pure_dnf_games(seed):
    on_columns = cases = 0
    for rep in _pure_dnf_games(seed):
        cases += 1
        on_columns += _assert_decides_as_reference(
            rep.target, lambda lg: verify_representation(dataclasses.replace(rep, target=lg)))
    # Every representation's payoff DNF reads every variable: each route's
    # cold and after-verify decisions run gamma on packed columns.
    assert cases > 20 and on_columns >= 2 * cases


def test_decide_over_rows_as_per_profile_on_the_battery(battery_representations):
    methods, cases, on_columns = set(), 0, 0
    for index, (method, rep) in enumerate(battery_representations):
        if index % 5 == 0 or method in ("ab_i", "vii"):
            methods.add(method)
            cases += 1
            on_columns += _assert_decides_as_reference(rep.target, logical_to_strategic)
    assert methods == {"ab_i", "ab_ii", "ab_iii", "vi", "vi_gmc", "vi_lm", "vii"}
    assert on_columns > 1.5 * cases


def test_decide_over_rows_as_per_profile_on_the_corpus():
    for lg in (NT.logical, new_technology(F(3, 2)).logical, LH.logical, MP_REP.target):
        _assert_decides_as_reference(lg, logical_to_strategic)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(column_fill_games())
def test_decide_over_rows_as_per_profile_on_drawn_games(lg):
    _assert_decides_as_reference(lg, logical_to_strategic)


def test_a_call_that_does_not_fit_runs_as_its_literal_copy_over_the_rows(monkeypatch):
    # A deviation that binds v1 to v2's variable reads no row of the table:
    # its literal copy reads v2 and v3 as columns, in the one column pass.
    lg = _fresh(NT.logical)
    phi = lg.payoff_formulas[0]
    gamma = App("imp", (Subst(phi, (("v1", Var("v2")),)), Subst(phi, ())))
    enc = PureNEEncoding(lg, deviations=gamma, full=True, aux_q={}, variant="EXPRESSIBLE")
    assert enc.gamma is gamma       # the constant route's gamma is its deviations
    program = enc.gamma_program
    assert {name for name, _ in program._variables} == {"v2", "v3"}
    assert len(program._calls) == 1 and program._scale is not None
    profiles, columns = [], []
    run, run_columns = equilibria.satisfies_gamma, Program._columns
    monkeypatch.setattr(equilibria, "satisfies_gamma",
                        lambda enc, profile: profiles.append(profile) or run(enc, profile))
    monkeypatch.setattr(Program, "_columns", lambda self, lanes, inputs: columns.append(
        self) or run_columns(self, lanes, inputs))
    assert decide_pure_ne(lg, enc) == literal_decide_pure_ne(enc)
    assert profiles == [] and columns == [lg.payoff_table.program, program]
    scale, (values,) = program.over_rows(lg.payoff_table)
    assert [v == scale for v in values] == [run(enc, profile) for profile in lg.profiles()]


def test_gamma_runs_over_the_rows_of_its_own_table_only():
    lg, other = _fresh(NT.logical), _fresh(NT.logical)
    enc = build_encoding(lg)
    program = enc.gamma_program
    rows = program.over_rows(lg.payoff_table)
    with pytest.raises(RuntimeError, match="runs over the rows of the table it calls only"):
        program.over_rows(other.payoff_table)
    assert "_filled" not in other.payoff_table.__dict__      # nor did it fill the other
    assert program.over_rows(lg.payoff_table) == rows
    scale, (gamma,) = rows
    literal = Program([substitute(enc.gamma, {})], lg.algebra)
    assert [Fraction(v, scale) for v in gamma] == \
        [literal.run(lg.assignment(profile))[0] for profile in lg.profiles()]


# --- one call path ---------------------------------------------------------------
# A call of the payoff table is a fold or a gather over its rows: a program
# that holds one does not run at a profile, and no program runs the table's.

def test_a_program_that_holds_a_call_does_not_run():
    lg = _fresh(NT.logical)
    enc = build_encoding(lg)
    assert enc.gamma_program._calls and enc.literal_program._calls == []
    profile = next(lg.profiles())
    with pytest.raises(RuntimeError, match="runs over its rows only"):
        enc.gamma_program.run(lg.assignment(profile))
    # Only the program with calls refuses: its literal twin runs, so
    # satisfies_gamma answers, and the rows give the same answer.
    scale, (gamma,) = enc.gamma_program.over_rows(lg.payoff_table)
    assert satisfies_gamma(enc, profile) == (gamma[0] == scale)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(column_fill_games())
def test_every_mixed_program_on_drawn_games_holds_no_call(lg):
    try:
        enc = build_mixed_encoding(lg)
    except SemanticError:
        return
    assert enc.program._calls == []


def test_every_mixed_program_holds_no_call(seed, battery_representations):
    # Every call of the mixed formula binds each block to a strategy's
    # constants, so it folds to its row: check_mixed_ne never reaches the
    # refusal in `Program.run`, also where the lifted algebra is the game's.
    rng = random.Random(seed)
    games = [rep.target for _, rep in battery_representations] + [
        NT.logical, new_technology(F(3, 2)).logical, LH.logical, MP_REP.target,
        love_and_hate(4, 4).logical, vickrey([F(3, 4), F(1, 2)], F(1), F(1, 4)).logical]
    games += [random_logical_game(rng) for _ in range(30)]
    games += [random_logical_game(rng, name) for name in ("STD_PL", "STD_PL_DELTA", "STD_LPIH")]
    built = own = 0
    for lg in games:
        try:
            enc = build_mixed_encoding(lg)
        except SemanticError:
            continue
        assert enc.program._calls == []
        built += 1
        own += enc.algebra is lg.algebra
    assert built > len(games) // 2 and own > 30


def test_deciding_compares_no_fractions_in_the_call_analysis_or_has_constant(monkeypatch):
    # A prime Lukasiewicz chain has no constants, so classifying asks
    # `has_constant` of each relevant element; gamma's calls bind blocks to
    # each q_a, fixed to a, which the compile's call analysis (`call` and
    # `fits` in `Program`) reads.  Both decide on integers.
    rng = random.Random(5)
    levels = [F(j, 4) for j in range(5)]
    lg = represent_rational_lm(make_game((4, 4), lambda p: [rng.choice(levels)
                                                            for _ in p])).target
    assert lg.algebra.constants == "bounds"
    callers = []
    eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: callers.append(
        sys._getframe(1).f_code.co_name) or eq(a, b))
    lg = _fresh(lg)
    enc = build_encoding(lg)
    decide_pure_ne(lg, enc)
    monkeypatch.undo()
    assert enc.aux_q and enc.gamma_program._calls
    assert not {"call", "fits", "has_constant"} & set(callers)


def _row_fill_games():
    """CI's games whose payoff programs are off one D: a live * on a 4x3
    `STD_QPL_DELTA` game, and => and * on a 3-player `STD_LPIH` one."""
    qpl = LogicalGame(catalog_lookup("STD_QPL_DELTA"), (("x",), ("y",)),
                      (tuple((F(k, 3),) for k in range(4)), ((F(0),), (F(1, 2),), (F(1),))),
                      (parse("(x * ~y) + (y * c(1/2))"), parse("(y * ~x) + D (x -> c(1/3))")))
    lpih = LogicalGame(catalog_lookup("STD_LPIH"), (("a",), ("b",), ("c",)),
                       (((F(1, 4),), (F(1, 2),), (F(1),)), ((F(1, 3),), (F(1),)),
                        ((F(0),), (F(1, 2),))),
                       (parse("(b => a) * (a + c)"), parse("(a * b) => (c \\/ b)"),
                        parse("((a => c) * b) + c")))
    return [(qpl, 6), (lpih, 3)]


def test_gamma_over_a_table_off_one_d_runs_over_its_rows(monkeypatch):
    # The payoff programs are off one D, gamma's own ops are not: gamma keeps
    # its own D, reads the filled table over its scale, and no profile runs
    # gamma alone.
    profiles = []
    run = equilibria.satisfies_gamma
    monkeypatch.setattr(equilibria, "satisfies_gamma",
                        lambda enc, profile: profiles.append(profile) or run(enc, profile))
    for lg, count in _row_fill_games():
        assert len(_routes(lg)) == 2
        assert lg.payoff_table.program._scale is None
        for build in _routes(lg):
            enc = build(_fresh(lg))
            assert type(enc.gamma_program._scale) is int
            found, sat = decide_pure_ne(enc.game, enc)
            assert sat and len(found) == count
            assert found == [tuple(lg.strategies[i][k] for i, k in enumerate(ids))
                             for ids in pure_ne_scan(lg)]
            # Run per profile, gamma's literal copy finds the same ones.
            assert found == [profile for profile in lg.profiles() if run(enc, profile)]
    assert profiles == []


# --- one runner over the rows ------------------------------------------------------
# Gamma runs over the payoff table's rows whatever it holds: on columns where
# its program keeps one D, once per row on the same columns where it does not,
# each variable its block's column.  Hand-built gammas reach each case.

def _hand_built(lg, gamma):
    return PureNEEncoding(lg, deviations=gamma, full=True, aux_q={}, variant="EXPRESSIBLE")


def _hand_built_gammas(lg):
    """phi_1(x := y) -> phi_1, x and y the first variables of players 1 and
    2: a call bound to another player's variable.  Where the algebra has
    `*`, also the deviation calls conjoined with (phi_1(s) * phi_2) -> phi_1,
    s player 1's last strategy: a product of two calls, one a gather."""
    first, second = lg.payoff_formulas[:2]
    (x, *_), (y, *_) = lg.variables[:2]
    gammas = {"variable": App("imp", (Subst(first, ((x, Var(y)),)), Subst(first, ())))}
    if "odot" in lg.algebra.ops:
        last = Subst(first, tuple(zip(lg.variables[0], map(Const, lg.strategies[0][-1]))))
        product = App("imp", (App("odot", (last, Subst(second, ()))), Subst(first, ())))
        gammas["product"] = App("and", (build_gamma(lg).deviations, product))
    return gammas


def test_hand_built_gammas_decide_over_the_rows_as_per_profile(monkeypatch):
    profiles = []
    run = equilibria.satisfies_gamma
    monkeypatch.setattr(equilibria, "satisfies_gamma",
                        lambda enc, profile: profiles.append(profile) or run(enc, profile))
    kinds = []
    for lg in [NT.logical] + [lg for lg, _ in _row_fill_games()]:
        for kind, gamma in _hand_built_gammas(lg).items():
            enc = _hand_built(_fresh(lg), gamma)
            program = enc.gamma_program
            if kind == "product":   # off one D, with a gather
                assert program._scale is None and any(call[4] for call in program._calls)
            else:                   # player 2's variable as a column
                assert lg.variables[1][0] in {name for name, _ in program._variables}
            kinds.append((kind, program._scale is None))
            assert decide_pure_ne(enc.game, enc) == literal_decide_pure_ne(enc), \
                (lg.algebra.id, kind)
            assert profiles == []
            scale, (values,) = program.over_rows(enc.game.payoff_table)
            assert [v == scale for v in values] == \
                [run(enc, profile) for profile in enc.game.profiles()], (lg.algebra.id, kind)
            profiles.clear()
    # Products ran per row; a variable ran on columns (NT is on one D) and
    # per row (under a live * or => of the table's formula).
    assert {("product", True), ("variable", False), ("variable", True)} <= set(kinds)
    assert kinds.count(("product", True)) == 2


def test_folding_does_not_hide_an_unknown_variable():
    # z /\ 0 folds to 0, but z is no variable of the game: deciding raises
    # what gamma as printed raises, at every profile.
    lg = _fresh(NT.logical)
    phi = lg.payoff_formulas[0]
    deviation = App("imp", (Subst(phi, (("v1", Const(F(0))),)), Subst(phi, ())))
    enc = _hand_built(lg, App("or", (deviation, App("and", (Var("z"), Const(F(0)))))))
    for decide in (lambda: decide_pure_ne(lg, enc),
                   lambda: satisfies_gamma(enc, next(lg.profiles()))):
        with pytest.raises(SemanticError) as info:
            decide()
        assert str(info.value) == "unknown variable 'z'"
