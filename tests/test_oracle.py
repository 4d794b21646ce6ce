"""Brute-force oracle: scans, exact expectations, support enumeration."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (LogicalGame, MixedProfile, StrategicGame, affine_invariance_check,
                     catalog_lookup, dirac, expected_payoffs, find_mixed_2p,
                     love_and_hate, matching_pennies, new_technology, oracle,
                     pure_ne_scan, represent_binary_chain, represent_general,
                     represent_rational_lm, verify_mixed, vickrey)
from mvgames.errors import SemanticError
from mvgames.game import game_from_json, logical_to_strategic, make_game
from mvgames.oracle import MixedCandidate, solve_linear, transform_payoffs
from conftest import (PAYOFF_POOL, random_formula, random_fraction,
                      random_logical_game, random_rational_game)
from seeded_game import seeded_game

F = Fraction


def particular(solution):
    """The particular solution of a `LinearSolution`, as Fractions."""
    return [F(x, solution.denominator) for x in solution.numerators]


def nullspace(solution):
    """The nullspace basis of a `LinearSolution`, as Fractions."""
    return [[F(x, solution.denominator) for x in d] for d in solution.directions]


def original_matching_pennies():
    return make_game((2, 2), lambda p: (F(1), F(-1)) if p[0] == p[1] else (F(-1), F(1)),
                     names=[("h", "t")] * 2)


def test_pure_scan_corpus():
    assert pure_ne_scan(new_technology(F(1)).strategic) == [(1, 1, 1)]
    assert pure_ne_scan(new_technology(F(3, 7)).strategic) == [(1, 1, 1)]
    assert pure_ne_scan(matching_pennies().strategic) == []
    assert pure_ne_scan(original_matching_pennies()) == []


def test_pure_scan_vickrey_named_profiles():
    bundle = vickrey([F(3, 4), F(1, 2), F(1, 4)], F(1), F(1, 8))
    equilibria = set(pure_ne_scan(bundle.strategic))
    truthful = (6, 4, 2)          # bids p1, p2, p3 on the 1/8 grid
    assert truthful in equilibria
    assert (6, 0, 0) in equilibria
    assert (4, 6, 0) in equilibria


def test_pure_scan_vickrey_quarter_grid():
    # coarser grid {0, t/4, ..., t}: the truthful profile stays on-grid
    bundle = vickrey([F(3, 4), F(1, 2), F(1, 4)], F(1), F(1, 4))
    assert (3, 2, 1) in set(pure_ne_scan(bundle.strategic))


def test_verify_mixed_matching_pennies_uniform():
    game = original_matching_pennies()
    uniform = MixedProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    assert expected_payoffs(game, uniform) == (F(0), F(0))
    assert verify_mixed(game, uniform)
    assert not verify_mixed(game, dirac((2, 2), (0, 0)))


def test_verify_mixed_love_and_hate():
    # instances up to n = 4 players and the m = 8 chain
    for n, m, t, r in ((2, 2, 0, 1), (4, 4, 1, 3), (4, 8, 2, 6)):
        bundle = love_and_hate(n, m)
        vector = [F(0)] * (m + 1)
        vector[t], vector[r] = F(1, 2), F(1, 2)      # |t/m - r/m| = 1/2
        profile = MixedProfile((tuple(vector),) * n)
        assert verify_mixed(bundle.strategic, profile)
        assert expected_payoffs(bundle.strategic, profile) == (F(1, 2),) * n


def test_verify_mixed_rejects_bad_dimensions():
    with pytest.raises(SemanticError):
        verify_mixed(original_matching_pennies(), MixedProfile(((F(1),),)))


def test_pure_ne_are_dirac_mixed_ne(seed):
    rng = random.Random(seed)
    for _ in range(20):
        game = random_rational_game(rng)
        for profile in pure_ne_scan(game):
            assert verify_mixed(game, dirac(game.strategy_counts, profile))


def test_find_mixed_matching_pennies_unique():
    for game in (original_matching_pennies(), matching_pennies().strategic):
        candidates = find_mixed_2p(game)
        assert len(candidates) == 1
        candidate = candidates[0]
        assert candidate.profile.probabilities == \
            ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        assert not candidate.degenerate


def test_find_mixed_dominant_strategy_game():
    game = make_game((2, 2), lambda p: (F(p[0]), F(p[1])))
    candidates = find_mixed_2p(game)
    assert any(c.profile.probabilities == ((F(0), F(1)), (F(0), F(1)))
               for c in candidates)


def test_find_mixed_love_and_hate_small():
    bundle = love_and_hate(2, 2)
    candidates = find_mixed_2p(bundle.strategic)
    profiles = {c.profile.probabilities for c in candidates}
    half = ((F(1, 2), F(1, 2), F(0)), (F(1, 2), F(1, 2), F(0)))
    other = ((F(0), F(1, 2), F(1, 2)), (F(0), F(1, 2), F(1, 2)))
    assert half in profiles
    assert other in profiles
    for c in candidates:
        assert verify_mixed(bundle.strategic, c.profile)


def test_find_mixed_requires_two_players():
    with pytest.raises(SemanticError):
        find_mixed_2p(new_technology(F(1)).strategic)


def test_every_candidate_verifies(seed):
    rng = random.Random(seed)
    for _ in range(40):
        game = random_rational_game(rng)
        if game.n_players != 2:
            continue
        for candidate in find_mixed_2p(game):
            assert verify_mixed(game, candidate.profile)
            assert expected_payoffs(game, candidate.profile) == candidate.payoffs


def test_affine_invariance_identity_and_scaled():
    mp = original_matching_pennies()
    assert affine_invariance_check(mp, [F(1), F(1)], [F(0), F(0)])
    # x -> x/2 + 1/2 turns the +-1 table into the {0,1} table
    assert affine_invariance_check(mp, [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
    with pytest.raises(SemanticError):
        affine_invariance_check(mp, [F(0), F(1)], [F(0), F(0)])


def test_affine_invariance_random(seed):
    rng = random.Random(seed)
    for _ in range(25):
        game = random_rational_game(rng)
        slopes = [F(rng.randint(1, 5), rng.randint(1, 3))
                  for _ in range(game.n_players)]
        shifts = [F(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(game.n_players)]
        assert affine_invariance_check(game, slopes, shifts)


def test_solve_linear_unique():
    solution = solve_linear([[2, 1], [1, -1]], [5, 1])
    assert solution.unique
    assert particular(solution) == [F(2), F(1)]


def test_solve_linear_inconsistent():
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_linear_underdetermined():
    solution = solve_linear([[1, 1, 0]], [1])
    assert not solution.unique
    assert len(nullspace(solution)) == 2
    x = particular(solution)
    assert x[0] + x[1] == 1
    for direction in nullspace(solution):
        shifted = [a + b for a, b in zip(x, direction)]
        assert shifted[0] + shifted[1] == 1


def test_solve_linear_rejects_non_integer_entries():
    # Bareiss's exact // would floor these to the point (0, 1), not (4/5, 3/5).
    rows, rhs = [[F(1, 2), 1], [1, F(1, 3)]], [1, 1]
    assert reference_solve_linear(rows, rhs) == ([F(4, 5), F(3, 5)], [])
    for bad in ((rows, rhs), ([[1, 2], [3, 4]], [1, F(1)]), ([[1, 2.0]], [1]),
                ([[True, 1]], [1])):
        with pytest.raises(TypeError):
            solve_linear(*bad)


def test_degenerate_game_flagged():
    # duplicate rows make the indifference system rank-deficient
    game = make_game((2, 2), lambda p: (F(1), F(1)))
    candidates = find_mixed_2p(game)
    assert candidates
    assert any(c.degenerate for c in candidates)


# --- reference: one loop per expected payoff and per pure deviation ----------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def reference_expected_payoffs(table, profile):
    """Expected payoff per player: each profile weighted by its probability."""
    if tuple(len(v) for v in profile.probabilities) != table.strategy_counts:
        raise SemanticError("mixed profile does not match the game's strategy counts")
    totals = [F(0)] * table.n_players
    for pure, values in table.payoffs.items():
        weight = F(1)
        for i, s in enumerate(pure):
            weight *= profile.probabilities[i][s]
            if weight == 0:
                break
        if weight == 0:
            continue
        for i in range(table.n_players):
            totals[i] += values[i] * weight
    return tuple(totals)


def reference_deviation_payoff(table, profile, player, strategy):
    """Expected payoff of `player` after switching to the pure `strategy`."""
    total = F(0)
    others = [range(c) if j != player else (strategy,)
              for j, c in enumerate(table.strategy_counts)]
    for pure in itertools.product(*others):
        weight = F(1)
        for j, s in enumerate(pure):
            if j == player:
                continue
            weight *= profile.probabilities[j][s]
            if weight == 0:
                break
        if weight == 0:
            continue
        total += table.payoffs[pure][player] * weight
    return total


def reference_verify_mixed(table, profile):
    """No pure deviation pays any player more than the expected payoff."""
    base = reference_expected_payoffs(table, profile)
    return not any(reference_deviation_payoff(table, profile, i, s) > base[i]
                   for i in range(table.n_players)
                   for s in range(table.strategy_counts[i]))


@st.composite
def mixed_profiles(draw, counts):
    """Probability vectors from small integer weights, zeros included."""
    vectors = []
    for c in counts:
        weights = draw(st.lists(st.integers(0, 3), min_size=c, max_size=c)
                       .filter(any))
        vectors.append(tuple(F(w, sum(weights)) for w in weights))
    return MixedProfile(tuple(vectors))


@st.composite
def games_with_profiles(draw):
    """1-3 player games on a pool of one to three rational payoff levels (few
    levels make ties and equilibria common), with a profile that mostly, but
    not always, matches the game's strategy counts."""
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    levels = draw(st.lists(rationals, min_size=1, max_size=3))
    payoffs = {p: tuple(draw(st.sampled_from(levels)) for _ in counts)
               for p in itertools.product(*map(range, counts))}
    game = make_game(counts, payoffs.__getitem__)
    if draw(st.integers(0, 9)) == 0:
        counts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    return game, draw(mixed_profiles(counts))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(games_with_profiles())
def test_payoff_sums_match_reference_loops(case):
    game, profile = case
    try:
        expected = reference_expected_payoffs(game, profile)
    except SemanticError as exc:
        for check in (expected_payoffs, verify_mixed):
            with pytest.raises(SemanticError) as info:
                check(game, profile)
            assert str(info.value) == str(exc)
        return
    assert expected_payoffs(game, profile) == expected
    assert verify_mixed(game, profile) == reference_verify_mixed(game, profile)


# Payoffs over large coprime denominators, and probabilities over 10^20 + 39.
TINY, DEBT, PROB = F(1, 10**30 + 57), F(-7, 10**18 + 9), 10**20 + 39
SPLIT = 12345678901234567890


def _big_denominator_cases():
    def mix(*weights):
        return tuple(F(w, PROB) for w in weights)

    solo = make_game((3,), lambda p: ((TINY, TINY, DEBT)[p[0]],))
    pair = make_game((3, 2), lambda p: (TINY * (p[0] + 1) + DEBT * p[1],
                                        DEBT * (p[0] - p[1]) + TINY))
    # Each player's payoff reads only the others' strategies: every profile
    # is an equilibrium.
    blind = make_game((2, 2, 2), lambda p: (TINY * (p[1] + p[2]), DEBT * p[0],
                                            TINY * p[0] * p[1]))
    trio = make_game((2, 3, 2), lambda p: (TINY * p[0] - DEBT * p[1] * p[2],
                                           DEBT * (p[1] - 1) * p[0] + TINY,
                                           TINY * p[2] + DEBT * p[0] * p[1]))
    return [
        (solo, MixedProfile((mix(SPLIT, PROB - SPLIT, 0),))),       # a tie
        (solo, MixedProfile((mix(SPLIT, 0, PROB - SPLIT),))),
        (pair, MixedProfile((mix(SPLIT, 0, PROB - SPLIT), mix(1, PROB - 1)))),
        (pair, MixedProfile((mix(0, 0, PROB), (F(1), F(0))))),
        (blind, MixedProfile((mix(SPLIT, PROB - SPLIT), (F(0), F(1)),
                              mix(PROB - 1, 1)))),
        (trio, MixedProfile((mix(1, PROB - 1), mix(SPLIT, 0, PROB - SPLIT),
                             (F(1, 3), F(2, 3))))),
    ]


def test_payoff_sums_match_reference_on_big_denominators():
    verdicts = []
    for game, profile in _big_denominator_cases():
        assert expected_payoffs(game, profile) == reference_expected_payoffs(game, profile)
        verdict = verify_mixed(game, profile)
        assert verdict == reference_verify_mixed(game, profile)
        verdicts.append(verdict)
    assert verdicts[:2] == [True, False] and verdicts[4]
    assert not all(verdicts)


# --- reference: the unilateral-deviation scan ----------------------------------

def reference_pure_ne_scan(game):
    """Pure equilibria by checking every unilateral deviation of every
    profile, comparing Fractions: k_i comparisons per player and profile."""
    table = logical_to_strategic(game) if isinstance(game, LogicalGame) else game
    out = []
    for profile in table.profiles():
        values = table.payoffs[profile]
        if all(table.payoffs[profile[:i] + (s,) + profile[i + 1:]][i] <= values[i]
               for i in range(table.n_players)
               for s in range(table.strategy_counts[i])):
            out.append(profile)
    return out


@st.composite
def pure_scan_games(draw):
    """1-3 players of 1-4 strategies (single-strategy players included),
    each player's payoffs drawn from one to three levels over mixed
    denominators, so that ties and equilibria are common."""
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    pools = [draw(st.lists(rationals, min_size=1, max_size=3)) for _ in counts]
    payoffs = {p: tuple(draw(st.sampled_from(pool)) for pool in pools)
               for p in itertools.product(*map(range, counts))}
    return make_game(counts, payoffs.__getitem__)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pure_scan_games())
def test_pure_scan_matches_reference_deviation_scan(game):
    assert pure_ne_scan(game) == reference_pure_ne_scan(game)   # order too


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_pure_scan_matches_reference_on_logical_games(seed):
    lg = random_logical_game(random.Random(seed))
    assert pure_ne_scan(lg) == reference_pure_ne_scan(lg)


def test_pure_scan_matches_reference_on_edge_games():
    games = [
        # Payoffs a 10^-30 apart, over large coprime denominators.
        make_game((2, 3), lambda p: (TINY * p[0] + DEBT * p[1], DEBT * (p[0] - p[1]))),
        make_game((3,), lambda p: (F(p[0] % 2, 7),)),           # one player, a tie
        make_game((1, 1, 1), lambda p: (F(1, 3), F(-2), F(0))),  # one profile
        love_and_hate(4, 2).strategic,
        vickrey([F(3, 4), F(1, 2)], F(1), F(1, 4)).strategic,
        StrategicGame((("a",), ()), {}),                          # no profile
    ]
    for game in games:
        assert pure_ne_scan(game) == reference_pure_ne_scan(game)
    assert pure_ne_scan(games[0]) == [(1, 2)] and pure_ne_scan(games[-1]) == []


# --- reference: the Fraction solver and enumeration loop ----------------------

def reference_solve_linear(rows, rhs):
    """Gauss-Jordan over Fractions: (particular, nullspace) read off the
    reduced row echelon form, or None when inconsistent."""
    m = [list(map(F, row)) + [F(b)] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0]) if n_rows else 0
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((k for k in range(r, n_rows) if m[k][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for k in range(n_rows):
            if k != r and m[k][c] != 0:
                factor = m[k][c]
                m[k] = [x - factor * y for x, y in zip(m[k], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for k in range(r, n_rows):
        if m[k][n_cols] != 0:
            return None
    particular = [F(0)] * n_cols
    for row, c in zip(m, pivot_cols):
        particular[c] = row[n_cols]
    nullspace = []
    for free in (c for c in range(n_cols) if c not in pivot_cols):
        vector = [F(0)] * n_cols
        vector[free] = F(1)
        for row, c in zip(m, pivot_cols):
            vector[c] = -row[free]
        nullspace.append(vector)
    return particular, nullspace


def _reference_candidates(payoff, own_support, other_support):
    k = len(other_support)
    rows = [[payoff(i, j) for j in other_support] + [F(-1)] for i in own_support]
    rows.append([F(1)] * k + [F(0)])
    solution = reference_solve_linear(rows, [F(0)] * len(own_support) + [F(1)])
    if solution is None:
        return
    particular, nullspace = solution
    if not nullspace:
        yield particular[:k], particular[k], False
        return
    samples = [particular]
    for direction in nullspace:
        for step in (F(1), F(-1), F(1, 2), F(1, 4)):
            samples.append([p + step * d for p, d in zip(particular, direction)])
    for point in samples:
        yield point[:k], point[k], True


def reference_find_mixed_2p(table):
    """Support enumeration on the Fraction solver, checks in Fractions."""
    counts = table.strategy_counts

    def row_payoff(i, j):
        return table.payoffs[(i, j)][0]

    def col_payoff(j, i):
        return table.payoffs[(i, j)][1]

    def scatter(values, support, count):
        full = [F(0)] * count
        for value, index in zip(values, support):
            full[index] = value
        return full

    def dot(payoff, own, other_vector):
        return sum(payoff(own, j) * q for j, q in enumerate(other_vector) if q != 0)

    found = {}
    supports1 = [s for size in range(1, counts[0] + 1)
                 for s in itertools.combinations(range(counts[0]), size)]
    supports2 = [s for size in range(1, counts[1] + 1)
                 for s in itertools.combinations(range(counts[1]), size)]
    for sup1 in supports1:
        for sup2 in supports2:
            for q, u, deg_q in _reference_candidates(row_payoff, sup1, sup2):
                if any(x <= 0 for x in q):
                    continue
                full_q = scatter(q, sup2, counts[1])
                if any(dot(row_payoff, i, full_q) > u for i in range(counts[0])
                       if i not in sup1):
                    continue
                for p, w, deg_p in _reference_candidates(col_payoff, sup2, sup1):
                    if any(x <= 0 for x in p):
                        continue
                    full_p = scatter(p, sup1, counts[0])
                    if any(dot(col_payoff, j, full_p) > w for j in range(counts[1])
                           if j not in sup2):
                        continue
                    profile = MixedProfile((tuple(full_p), tuple(full_q)))
                    if not reference_verify_mixed(table, profile):
                        continue
                    key = (tuple(full_p), tuple(full_q))
                    degenerate = deg_q or deg_p
                    if key not in found or found[key].degenerate and not degenerate:
                        found[key] = MixedCandidate(
                            profile, reference_expected_payoffs(table, profile), degenerate)
    return [found[key] for key in sorted(found)]


@st.composite
def linear_systems(draw):
    """A x = b with A drawn from a random low-rank rational basis, some
    columns zeroed and some right-hand sides pushed off the column space."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(n_rows, n_cols)))
    basis = [[draw(rationals) for _ in range(n_cols)] for _ in range(rank)]
    zeroed = draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols // 2))
    rows = []
    for _ in range(n_rows):
        weights = [draw(rationals) for _ in range(rank)]
        rows.append([F(0) if c in zeroed else sum((w * b[c] for w, b in zip(weights, basis)), F(0))
                     for c in range(n_cols)])
    x = [draw(rationals) for _ in range(n_cols)]
    rhs = [sum((a * v for a, v in zip(row, x)), F(0)) for row in rows]
    if draw(st.booleans()):
        rhs[draw(st.integers(0, n_rows - 1))] += draw(rationals.filter(bool))
    if draw(st.booleans()):      # integral entries as ints
        rows = [[int(a) if a.denominator == 1 else a for a in row] for row in rows]
        rhs = [int(b) if b.denominator == 1 else b for b in rhs]
    return rows, rhs


def integer_equation(row, b):
    """The equation row . x = b times the lcm of its denominators, as ints:
    what `solve_linear` takes."""
    entries = [F(x) for x in (*row, b)]
    common = math.lcm(*(x.denominator for x in entries))
    return [int(x * common) for x in entries]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(linear_systems())
def test_solve_linear_matches_reference(system):
    rows, rhs = system
    expected = reference_solve_linear(rows, rhs)
    scaled = [integer_equation(row, b) for row, b in zip(rows, rhs)]
    solution = solve_linear([row[:-1] for row in scaled], [row[-1] for row in scaled])
    if expected is None:
        assert solution is None
    else:
        assert (particular(solution), nullspace(solution)) == expected
        assert solution.unique == (not expected[1])


def test_affine_image_samples_other_degenerate_candidates():
    # A degenerate candidate samples a continuum at steps that scale with
    # the u column's -level (4 here, 11 in the image): the nondegenerate
    # candidates agree, and every candidate is an equilibrium of both games.
    rng = random.Random(8)
    levels = [F(j, 4) for j in range(5)]
    game = make_game((8, 8), lambda p: [rng.choice(levels) for _ in range(2)])
    image = transform_payoffs(game, [F(4, 11)] * 2, [F(0)] * 2)
    found = [find_mixed_2p(g) for g in (game, image)]
    assert [(len(f), sum(c.degenerate for c in f)) for f in found] == [(6, 2), (8, 4)]
    firm = [{c.profile for c in f if not c.degenerate} for f in found]
    assert firm[0] == firm[1] and len(firm[0]) == 4
    for candidate in found[0] + found[1]:
        assert verify_mixed(game, candidate.profile) and verify_mixed(image, candidate.profile)


def _weakly_dominated_game():
    """Row 0 weakly but not strictly beats row 1 ([1, 1] against [1, 0]); the
    column player always prefers column 0, so every row mix is an equilibrium."""
    return make_game((2, 2), lambda p: (F(1) if 0 in p else F(0), F(1 - p[1])))


def test_find_mixed_matches_reference_on_degenerate_games(seed):
    # Payoffs from two or three levels make many support systems rank-deficient.
    # Strict dominance only prunes: a tie, or a weak dominance, prunes no support.
    rng = random.Random(seed)
    weak, flat = _weakly_dominated_game(), make_game((5, 5), lambda p: (F(1, 2), F(1, 2)))
    games = [matching_pennies().strategic, original_matching_pennies(), weak, flat]
    for k in range(44):
        levels = rng.sample(PAYOFF_POOL, rng.randint(2, 3))
        counts = (rng.randint(1, 4), rng.randint(1, 4)) if k < 40 else (5, 5)
        games.append(make_game(counts, lambda p: (rng.choice(levels), rng.choice(levels))))
    degenerate = 0
    for game in games:
        found = find_mixed_2p(game)
        assert found == reference_find_mixed_2p(game)   # flags too
        degenerate += any(c.degenerate for c in found)
    assert degenerate >= 10
    assert any(c.degenerate and c.profile.probabilities[0][1] > 0 for c in find_mixed_2p(weak))
    # All equal: the 25 pure profiles, the other 600 candidates degenerate.
    assert sum(not c.degenerate for c in find_mixed_2p(flat)) == 25


def _benchmark_shaped_tables(rng):
    """2-player payoff tables shaped like the mixed-encoding benchmark's:
    `vi_lm`, `vii` and `ab_ii` representations of games in which every payoff
    level occurs (five levels b + j/q, two for `ab_ii`), and random logical
    games over STD_QPL_DELTA, each collapsed by `logical_to_strategic`."""
    chain5c = catalog_lookup("L_n_C", 5)
    tables = []
    for method, k in (("vi_lm", 3), ("vi_lm", 4), ("vi_lm", 5), ("vii", 3), ("vii", 4),
                      ("ab_ii", 3), ("ab_ii", 4)):
        if method == "ab_ii":
            levels = sorted(rng.sample(PAYOFF_POOL, 2))
        else:
            base, q = rng.choice((-1, 0, 1)), rng.choice((2, 3, 4))
            levels = [base + F(j, q) for j in range(5)]
        values = levels + [rng.choice(levels) for _ in range(2 * k * k - len(levels))]
        rng.shuffle(values)
        cells = iter(values)
        source = make_game((k, k), lambda p: (next(cells), next(cells)))
        if method == "vi_lm":
            rep = represent_rational_lm(source)
        elif method == "vii":
            rep = represent_general(source, chain5c, [F(j, 5) for j in range(k)],
                                    [F(j, 5) for j in range(len(source.payoff_values()))])
        else:
            rep = represent_binary_chain(source)
        tables.append(logical_to_strategic(rep.target))
    ops = ["and", "or", "imp", "neg", "and_strong", "oplus", "ominus", "odot", "delta"]
    for _ in range(3):
        strategies = []
        for _ in range(2):
            block = set()
            while len(block) < 3:
                block.add((random_fraction(rng, 4),))
            strategies.append(tuple(sorted(block)))
        formulas = tuple(random_formula(rng, ["v1", "v2"], ops=ops) for _ in range(2))
        tables.append(logical_to_strategic(LogicalGame(
            catalog_lookup("STD_QPL_DELTA"), (("v1",), ("v2",)), tuple(strategies),
            formulas)))
    return tables


def test_find_mixed_matches_reference_on_benchmark_shaped_games(seed, monkeypatch):
    # Each (own support, other support) system is solved once per call: the
    # column player's candidates are shared by every passing row candidate.
    solved = set()
    solve = oracle.solve_linear

    def spy(rows, rhs):
        caller = sys._getframe(1).f_locals
        key = (id(caller["payoffs"]), caller["own_support"], caller["other_support"])
        assert key not in solved, f"system {key[1:]} solved twice"
        solved.add(key)
        return solve(rows, rhs)

    monkeypatch.setattr(oracle, "solve_linear", spy)
    candidates = degenerate = 0
    for table in _benchmark_shaped_tables(random.Random(seed)):
        solved.clear()
        found = find_mixed_2p(table)
        assert found == reference_find_mixed_2p(table)
        candidates += len(found)
        degenerate += sum(c.degenerate for c in found)
    assert degenerate * 2 >= candidates > 0


def _integer_payoffs(table, player):
    """The finder's integer payoffs for `player`: rows are its own strategies."""
    level = math.lcm(*(v[player].denominator for v in table.payoffs.values()))
    counts = table.strategy_counts
    cell = (lambda own, other: (own, other)) if player == 0 else \
        (lambda own, other: (other, own))
    return [[int(table.payoffs[cell(own, other)][player] * level)
             for other in range(counts[1 - player])] for own in range(counts[player])]


def reference_undominated(table, player, other_support):
    """Own strategies no own strategy strictly beats on `other_support`, in
    the game's Fractions."""
    def value(own, other):
        return table.payoffs[(own, other) if player == 0 else (other, own)][player]
    own = range(table.strategy_counts[player])
    return tuple(i for i in own
                 if not any(all(value(k, j) > value(i, j) for j in other_support)
                            for k in own))


def test_undominated_matches_fraction_reference(seed):
    rng = random.Random(seed)
    for _ in range(30):
        levels = rng.sample(PAYOFF_POOL, rng.randint(1, 4))
        counts = (rng.randint(1, 5), rng.randint(1, 5))
        table = make_game(counts, lambda p: (rng.choice(levels), rng.choice(levels)))
        for player in (0, 1):
            sets = oracle._undominated(_integer_payoffs(table, player), counts[1 - player])
            supports = [s for size in range(1, counts[1 - player] + 1)
                        for s in itertools.combinations(range(counts[1 - player]), size)]
            assert list(sets) == supports
            for support in supports:
                assert sets[support] == reference_undominated(table, player, support)


def test_find_mixed_never_solves_a_dominated_support_pair(monkeypatch):
    # Rows 2 and 3 are strictly beaten on columns {0, 1} but by no row on all
    # columns, and columns 1 and 3 likewise on rows {0, 1}; no system may be
    # solved for a pair whose support holds a strategy dominated on the other.
    row = [[4, 3, 1, 2], [1, 4, 3, 2], [2, 1, 4, 3], [3, 2, 2, 4]]
    col = [[3, 1, 4, 2], [4, 2, 1, 3], [1, 4, 2, 3], [2, 3, 3, 4]]
    table = make_game((4, 4), lambda p: (F(row[p[0]][p[1]]), F(col[p[0]][p[1]])))
    assert reference_undominated(table, 0, (0, 1)) == (0, 1)
    assert reference_undominated(table, 1, (0, 1)) == (0, 2)
    for player in (0, 1):
        assert reference_undominated(table, player, (0, 1, 2, 3)) == (0, 1, 2, 3)
    solved = []
    solve = oracle.solve_linear

    def spy(rows, rhs):
        caller = sys._getframe(1).f_locals
        own, other = caller["own_support"], caller["other_support"]
        solved.append((own, other) if caller["payoffs"] == row else (other, own))
        return solve(rows, rhs)

    monkeypatch.setattr(oracle, "solve_linear", spy)
    found = find_mixed_2p(table)
    assert found == reference_find_mixed_2p(table)
    assert solved
    for sup1, sup2 in solved:
        assert set(sup1) <= set(reference_undominated(table, 0, sup2))
        assert set(sup2) <= set(reference_undominated(table, 1, sup1))
    assert not any(3 in sup1 and set(sup2) <= {0, 1} for sup1, sup2 in solved)
    assert not any(3 in sup2 and set(sup1) <= {0, 1} for sup1, sup2 in solved)


def _shortcut_games(rng):
    """Seeded games aimed at each shortcut of the finder: thin and wide
    shapes; two or three payoff levels, whose small support systems are
    often inconsistent or pinned to one point (their one-larger supports are
    not solved); payoffs over large denominators; and copies of each with
    repeated rows for the row player and repeated columns for the column
    player (one solve per distinct system)."""
    huge = [F(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 9)) for _ in range(3)]
    games = []
    for shape in [(1, 4), (4, 1), (1, 5), (5, 1), (2, 5), (5, 2), (3, 4), (4, 4), (5, 5)]:
        for levels in ([F(0), F(1)], [F(0), F(1, 2), F(1)], huge):
            cells = {p: (rng.choice(levels), rng.choice(levels))
                     for p in itertools.product(*map(range, shape))}
            games.append(make_game(shape, cells.__getitem__))
            rows = [rng.randrange(max(1, shape[0] - 2)) for _ in range(shape[0])]
            cols = [rng.randrange(max(1, shape[1] - 2)) for _ in range(shape[1])]
            games.append(make_game(shape, lambda p: (cells[rows[p[0]], p[1]][0],
                                                     cells[p[0], cols[p[1]]][1])))
    return games


def test_find_mixed_matches_reference_on_shortcut_games(seed):
    candidates = degenerate = 0
    for game in _shortcut_games(random.Random(seed)):
        found = find_mixed_2p(game)
        assert found == reference_find_mixed_2p(game)   # order and flags too
        candidates += len(found)
        degenerate += sum(c.degenerate for c in found)
    assert candidates > degenerate > 0


def _pinned_tie_heavy_games():
    """The tie-heavy 5x5 (levels 0, 1) and 6x6 (levels 0, 1/2, 1) games whose
    `mixed-find` output CI pins."""
    return [game_from_json(seeded_game(21, 5, ["0", "1"])),
            game_from_json(seeded_game(23, 6, ["0", "1/2", "1"]))]


def test_find_mixed_solves_fewer_systems_than_it_visits_pairs(monkeypatch):
    # The tie-heavy 6x6 game CI pins.  Every pair the finder visits needs a
    # row system, so one solve per pair would be at least one per visit.  No
    # distinct system (opponent support, set of restricted own rows) may be
    # solved twice, and supports one larger than a system with at most one
    # solution must leave some distinct row systems unsolved.
    table = _pinned_tie_heavy_games()[1]
    row_payoffs = _integer_payoffs(table, 0)
    assert row_payoffs != _integer_payoffs(table, 1)
    solved = []
    solve = oracle.solve_linear

    def spy(rows, rhs):
        caller = sys._getframe(1).f_locals
        payoffs, other = caller["payoffs"], caller["other_support"]
        solved.append((payoffs == row_payoffs, other,
                       frozenset(tuple(payoffs[i][j] for j in other)
                                 for i in caller["own_support"])))
        return solve(rows, rhs)

    monkeypatch.setattr(oracle, "solve_linear", spy)
    found = find_mixed_2p(table)
    assert len(found) == 21 and sum(c.degenerate for c in found) == 13
    supports = [s for size in range(1, 7) for s in itertools.combinations(range(6), size)]
    visited = [(sup1, sup2) for sup1 in supports for sup2 in supports
               if set(sup1) <= set(reference_undominated(table, 0, sup2))
               and set(sup2) <= set(reference_undominated(table, 1, sup1))]
    row_systems = {(sup2, frozenset(tuple(row_payoffs[i][j] for j in sup2) for i in sup1))
                   for sup1, sup2 in visited}
    assert len(set(solved)) == len(solved) < len(visited)
    assert sum(row for row, *_ in solved) < len(row_systems) < len(visited)


def _memo_walk(seed):
    """Each player's system memo on the benchmark-shaped tables and the
    pinned tie-heavy games, asked for every support pair with own supports
    by size, as the finder asks: (payoffs, level, own support, other
    support, the memo's `samples`)."""
    for table in _benchmark_shaped_tables(random.Random(seed)) + _pinned_tie_heavy_games():
        for player in (0, 1):
            payoffs = _integer_payoffs(table, player)
            level = math.lcm(*(v[player].denominator for v in table.payoffs.values()))
            samples = oracle._system_memo(payoffs, level)
            for own in oracle._supports(range(len(payoffs))):
                for other in oracle._supports(range(len(payoffs[0]))):
                    yield payoffs, level, own, other, samples


def test_system_memo_keeps_only_best_responses(seed):
    # The finder's stability test passes only best responses, so it would
    # hide a sample the memo kept wrongly; test the memo's samples directly.
    kept = 0
    for payoffs, _, own, other, samples in _memo_walk(seed):
        for probs, denominator, _, values, top in samples(own, other):
            assert sum(probs) == denominator
            assert [j for j, x in enumerate(probs) if x] == list(other)
            assert min(probs) >= 0
            assert values == [sum(row[j] * probs[j] for j in other) for row in payoffs]
            assert top == max(values) and all(values[i] == top for i in own)
            kept += 1
    assert kept


def test_system_memo_superset_rule_equals_a_direct_solve(seed, monkeypatch):
    # A support one larger than a system with at most one solution is not
    # solved: its samples must be what solving it would give.
    direct, solved = oracle._indifference_samples, []

    def spy(*args):
        solved.append(args[2:])
        return direct(*args)

    monkeypatch.setattr(oracle, "_indifference_samples", spy)
    systems, taken = set(), 0
    for payoffs, level, own, other, samples in _memo_walk(seed):
        solved.clear()
        got = samples(own, other)
        key = (samples, other, frozenset(tuple(payoffs[i][j] for j in other) for i in own))
        if key not in systems and not solved:
            assert got == direct(payoffs, level, own, other)[1], (own, other)
            taken += 1
        systems.add(key)
    assert taken
