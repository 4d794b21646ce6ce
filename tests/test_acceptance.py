"""Acceptance suite: every criterion at its stated exact tolerance.

Each test prints one `ACCEPTANCE <n>: PASS` line (visible with -s or -rP)
after asserting the criterion exactly; there are no tolerances anywhere,
every comparison is exact rational equality.
"""

import random
import time
from fractions import Fraction
from math import gcd

from mvgames import (MixedProfile, catalog_lookup, characteristic,
                     check_mixed_ne, decide_pure_ne, dirac, evaluate,
                     expected_payoffs, find_mixed_2p, logical_to_strategic,
                     love_and_hate, matching_pennies, mcnaughton_hat,
                     new_technology, pure_ne_scan, represent_binary_boolean,
                     verify_mixed, verify_representation, zeta)
from mvgames.equilibria import (build_encoding, build_gamma_weak,
                                build_mixed_encoding, build_prob_distr,
                                lift_algebra_for_mixed, satisfies_gamma)
from mvgames.represent import Affine
from mvgames.game import StrategicGame
from _pl import pl_of_formula, pl_peaks_exactly_at
from conftest import (random_distribution, random_logical_game,
                      random_rational_game)

F = Fraction


def _report(number, started, message):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {message}")


def _pure_ne_of_logical(lg):
    table = logical_to_strategic(lg)
    return {tuple(lg.strategies[i][k] for i, k in enumerate(ids))
            for ids in pure_ne_scan(table)}


def test_acceptance_01_new_technology():
    started = time.perf_counter()
    bundle = new_technology(F(1))
    report = verify_representation(bundle.representation)
    assert report.ok and report.affine
    assert bundle.representation.g == Affine(F(2), F(-1))   # g(x) = 2(x - 1/2)
    profiles, sat = decide_pure_ne(bundle.logical)
    assert sat and profiles == [((F(1),), (F(1),), (F(1),))]
    scanned = pure_ne_scan(bundle.strategic)
    assert scanned == [(1, 1, 1)]
    assert [bundle.representation.encode(p) for p in scanned] == profiles
    assert profiles == sorted(_pure_ne_of_logical(bundle.logical))
    _report(1, started, "new technology: unique equilibrium 'all adopt'")


def test_acceptance_02_matching_pennies():
    started = time.perf_counter()
    rep = represent_binary_boolean(matching_pennies().strategic)
    assert verify_representation(rep).ok
    enc = build_encoding(rep.target)
    assert enc.existence is enc.gamma          # the Boolean game is full
    profiles, sat = decide_pure_ne(rep.target, enc)
    assert profiles == [] and not sat
    candidates = find_mixed_2p(rep.source)
    assert len(candidates) == 1
    uniform = MixedProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    assert candidates[0].profile == uniform
    assert lift_algebra_for_mixed(rep.target).id == "STD_PL"
    ok, _ = check_mixed_ne(rep.target, uniform)
    assert ok
    _report(2, started, "matching pennies: UNSAT pure, unique uniform mixed")


def test_acceptance_03_love_and_hate():
    started = time.perf_counter()
    bundle = love_and_hate(2, 4)
    assert verify_representation(bundle.representation).ok
    enc = build_mixed_encoding(bundle.logical)
    table = logical_to_strategic(bundle.logical)
    pairs = [(t, r) for t in range(5) for r in range(5) if r - t == 2]
    assert pairs
    for t, r in pairs:
        vector = [F(0)] * 5
        vector[t] = vector[r] = F(1, 2)
        profile = MixedProfile((tuple(vector), tuple(vector)))
        ok, trace = check_mixed_ne(bundle.logical, profile, enc=enc)
        assert ok and dict(trace)["formula"] == 1
        assert verify_mixed(table, profile)
    _report(3, started, f"love and hate: {len(pairs)} half-half profiles check out")


def test_acceptance_04_vickrey():
    started = time.perf_counter()
    from mvgames import vickrey
    p = [F(3, 4), F(1, 2), F(1, 4)]
    bundle = vickrey(p, F(1), F(1, 8))
    assert bundle.strategic.strategy_counts == (9, 9, 9)
    report = verify_representation(bundle.representation)   # all 729 profiles
    assert report.ok and report.affine
    equilibria = set(pure_ne_scan(bundle.strategic))
    truthful = (6, 4, 2)                                     # p1, p2, p3 in 1/8 steps
    assert truthful in equilibria
    assert (6, 0, 0) in equilibria                           # (p1, 0, 0)
    assert (4, 6, 0) in equilibria                           # (p2, p1, 0)
    _report(4, started, "vickrey: formulas exact on the grid, named equilibria found")


def test_acceptance_05_representation_battery(battery_representations):
    started = time.perf_counter()
    methods = set()
    for method, rep in battery_representations:
        methods.add(method)
        report = verify_representation(rep)
        assert report.ok, f"{method}: {report.message}"
        source_ne = {rep.encode(profile) for profile in pure_ne_scan(rep.source)}
        assert source_ne == _pure_ne_of_logical(rep.target), method
    assert methods == {"ab_i", "ab_ii", "ab_iii", "vi", "vi_gmc", "vi_lm", "vii"}
    _report(5, started,
            f"{len(battery_representations)} representations verified, "
            "pure equilibria transfer")


def _existence_satisfiable(lg, enc):
    alg = lg.algebra
    for profile in lg.profiles():
        assignment = lg.assignment(profile)
        for a, name in enc.aux_q.items():
            assignment[name] = a
        if evaluate(enc.existence, alg, assignment) == 1:
            return True
    return False


def test_acceptance_06_encoding_soundness(battery_representations):
    started = time.perf_counter()
    routes = set()
    for index, (method, rep) in enumerate(battery_representations):
        lg = rep.target
        encodings = [build_encoding(lg)]
        if encodings[0].variant == "EXPRESSIBLE" and index % 10 == 0:
            encodings.append(build_gamma_weak(lg))
        oracle_ne = _pure_ne_of_logical(lg)
        for enc in encodings:
            routes.add(enc.variant)
            satisfying = {p for p in lg.profiles() if satisfies_gamma(enc, p)}
            assert satisfying == oracle_ne, method
            assert _existence_satisfiable(lg, enc) == bool(oracle_ne), method
    assert routes == {"EXPRESSIBLE", "WEAKLY_EXPRESSIBLE"}
    _report(6, started, "gamma encodings sound and complete on the battery")


def test_acceptance_07_formula_toolkit():
    started = time.perf_counter()
    # characteristic formulas, exhaustively on chains
    for n in range(1, 14):
        alg = catalog_lookup("L_n", n)
        for k in range(n + 1):
            values = tuple(evaluate(characteristic(alg, F(k, n)), alg, {"x": x})
                           for x in alg.domain_elements())
            assert values == tuple(F(1) if j == k else F(0) for j in range(n + 1))
    for n in range(1, 9):
        alg = catalog_lookup("G_n_C_DELTA", n)
        for k in range(n + 1):
            values = tuple(evaluate(characteristic(alg, F(k, n)), alg, {"x": x})
                           for x in alg.domain_elements())
            assert values == tuple(F(1) if j == k else F(0) for j in range(n + 1))
    # hats: exact piecewise-linear maximization
    hats = 0
    for n in range(1, 9):
        for m in range(1, n + 1):
            if gcd(m, n) == 1:
                assert pl_peaks_exactly_at(pl_of_formula(mcnaughton_hat(m, n)),
                                           F(m, n), F(1, n))
                hats += 1
    assert hats == 22
    # zeta on prime chains
    for prime in (2, 3, 5, 7, 11, 13):
        alg = catalog_lookup("L_n", prime)
        for p in range(1, prime):
            for q in range(prime + 1):
                value = evaluate(zeta(prime, F(p, prime), F(q, prime)), alg,
                                 {"x": F(p, prime)})
                assert value == F(q, prime)
    _report(7, started, "chi/delta/xi/zeta contracts hold exhaustively")


def test_acceptance_08_partition_of_unity(seed):
    started = time.perf_counter()
    alg = catalog_lookup("STD_PL")
    rng = random.Random(seed)
    total = 0
    for n, rounds in ((2, 3334), (3, 3333), (5, 3333)):
        names = tuple(f"p{k}" for k in range(n))
        delta = build_prob_distr(names)
        for _ in range(rounds):
            if rng.random() < 0.5:
                weights = [F(rng.randint(0, 9)) for _ in names]
                if sum(weights) == 0:
                    weights[0] = F(1)
                vector = [w / sum(weights) for w in weights]
            else:
                vector = [F(rng.randint(0, 12), 12) for _ in names]
            env = dict(zip(names, vector))
            assert (evaluate(delta, alg, env) == 1) == (sum(vector) == 1)
            total += 1
    assert total == 10000
    _report(8, started, "partition-of-unity formula exact on 10000 vectors")


def test_acceptance_09_expected_payoff_exactness(seed):
    started = time.perf_counter()
    rng = random.Random(seed + 9)
    both = {True: 0, False: 0}
    for round_index in range(500):
        lg = random_logical_game(rng)
        counts = [len(block) for block in lg.strategies]
        table = logical_to_strategic(lg)
        enc = build_mixed_encoding(lg)
        profiles = [MixedProfile(tuple(random_distribution(rng, c) for c in counts)),
                    dirac(counts, tuple(rng.randrange(c) for c in counts))]
        if table.n_players == 2 and round_index % 5 == 0:
            profiles.extend(c.profile for c in find_mixed_2p(table)[:2])
        for profile in profiles:
            env = enc.assignment(profile)
            exact = expected_payoffs(table, profile)
            for i in range(lg.n_players):
                assert evaluate(dict(enc.trace)[f"expected_{i + 1}"], enc.algebra, env) == exact[i]
            verdict = check_mixed_ne(lg, profile, enc=enc)[0]
            assert verdict == verify_mixed(table, profile)
            both[verdict] += 1
    assert both[True] > 50 and both[False] > 50
    _report(9, started, f"E_i exact on 500 games ({both[True]} equilibria, "
                        f"{both[False]} rejections)")


def test_acceptance_10_invariance_suite(seed):
    started = time.perf_counter()
    rng = random.Random(seed + 10)
    # strictly increasing per-player transforms preserve pure equilibria
    for _ in range(50):
        game = random_rational_game(rng)
        maps = []
        for i in range(game.n_players):
            values = sorted({row[i] for row in game.payoffs.values()})
            den = rng.randint(1, 4)
            images = [F(x, den)
                      for x in sorted(rng.sample(range(-30, 60), len(values)))]
            maps.append(dict(zip(values, images)))
        image = StrategicGame(
            game.strategy_names,
            {p: tuple(maps[i][row[i]] for i in range(game.n_players))
             for p, row in game.payoffs.items()})
        assert pure_ne_scan(game) == pure_ne_scan(image)
    # positive affine transforms preserve the oracle's mixed candidates
    from mvgames import affine_invariance_check
    for _ in range(30):
        game = random_rational_game(rng)
        slopes = [F(rng.randint(1, 4), rng.randint(1, 2))
                  for _ in range(game.n_players)]
        shifts = [F(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(game.n_players)]
        assert affine_invariance_check(game, slopes, shifts)
    # relabeling maps equilibria bijectively (pure and mixed)
    for _ in range(30):
        game = random_rational_game(rng)
        perms = [list(range(c)) for c in game.strategy_counts]
        for perm in perms:
            rng.shuffle(perm)
        relabeled = StrategicGame(
            game.strategy_names,
            {tuple(perms[i][s] for i, s in enumerate(p)): row
             for p, row in game.payoffs.items()})
        expected = sorted(tuple(perms[i][s] for i, s in enumerate(ne))
                          for ne in pure_ne_scan(game))
        assert expected == sorted(pure_ne_scan(relabeled))
        if game.n_players == 2:
            for candidate in find_mixed_2p(game):
                image = MixedProfile(tuple(
                    tuple(vector[perms[i].index(k)] for k in range(len(vector)))
                    for i, vector in enumerate(candidate.profile.probabilities)))
                assert verify_mixed(relabeled, image)
    _report(10, started, "monotone, affine, and relabeling invariances hold")
