"""Verify a representation and decide pure equilibria on large games.

    PYTHONPATH=src python tests/scale_check.py

Through the API, on seeded 32x32 and 64x64 games represented by `vi` and
by `vi_lm`, on a seeded 8x8x8 game represented by `vi_lm` (payoffs drawn
from j/4, j = 0..4), and on the corpus game love_and_hate(6, 4) (15,625
profiles, each phi_i reading two of the six players):
`verify_representation` must pass, and `decide_pure_ne` on the verified
target must return exactly the encoded `pure_ne_scan` equilibria, in the
same order.  Prints the wall time of building each game and its
representation (its logical game compiles the payoff formulas), of filling
the payoff table, of verify on the filled table, of building and compiling
gamma, of `decide_pure_ne` given the compiled encoding, and of the scan.

Then a ring on `STD_QPL_DELTA`: phi_i = x_i * x_{i+1} (mod 6), six
players of five strategies j/4, so 15,625 rows that the payoff table fills
once per row (a live `*`).  Each of 100 seeded rows must hold each phi_i's
`evaluate` at its profile, and `decide_pure_ne` must return the logical
game's `pure_ne_scan` equilibria, in the same order.  Prints the fill,
decide and scan times.  Exits 1 if a check fails.
"""

import itertools
import random
import sys
from fractions import Fraction
from functools import partial
from time import perf_counter

from mvgames import (App, LogicalGame, StrategicGame, Var, catalog_lookup, evaluate,
                     love_and_hate, pure_ne_scan, represent_rational_lm,
                     represent_rational_qg_delta, verify_representation)
from mvgames.equilibria import build_encoding, decide_pure_ne


def seeded(represent, counts, seed):
    """`represent` applied to a seeded game with `counts` strategies."""
    rng, levels = random.Random(seed), [Fraction(j, 4) for j in range(5)]
    names = tuple(tuple(f"s{i}" for i in range(k)) for k in counts)
    return represent(StrategicGame(
        names, {profile: tuple(rng.choice(levels) for _ in counts)
                for profile in itertools.product(*map(range, counts))}))


# (name, a call that builds the representation) per game
CASES = [("vi 32x32", partial(seeded, represent_rational_qg_delta, (32, 32), 1)),
         ("vi_lm 32x32", partial(seeded, represent_rational_lm, (32, 32), 1)),
         ("vi 64x64", partial(seeded, represent_rational_qg_delta, (64, 64), 1)),
         ("vi_lm 64x64", partial(seeded, represent_rational_lm, (64, 64), 1)),
         ("vi_lm 8x8x8", partial(seeded, represent_rational_lm, (8, 8, 8), 2)),
         ("love_and_hate(6, 4)", lambda: love_and_hate(6, 4).representation)]


def timed(call):
    start = perf_counter()
    out = call()
    return out, 1000 * (perf_counter() - start)


def main() -> int:
    failed = 0
    for name, build in CASES:
        rep, represent_ms = timed(build)
        _, fill_ms = timed(lambda: rep.target.payoff_table.rows)
        report, verify_ms = timed(lambda: verify_representation(rep))
        enc, build_ms = timed(lambda: build_encoding(rep.target))
        _, compile_ms = timed(lambda: enc.gamma_program)
        (found, sat), decide_ms = timed(lambda: decide_pure_ne(rep.target, enc))
        scan, scan_ms = timed(lambda: pure_ne_scan(rep.source))
        expected = sorted(rep.encode(p) for p in scan)
        ok = report.ok and found == expected and sat == bool(expected)
        failed += not ok
        print(f"{name}: represented {represent_ms:.1f} ms, fill {fill_ms:.1f} ms, "
              f"verify {verify_ms:.1f} ms, "
              f"gamma built {build_ms:.1f} ms and compiled {compile_ms:.1f} ms, "
              f"decide {decide_ms:.1f} ms, scan {scan_ms:.1f} ms, "
              f"{len(found)} pure equilibria, {'ok' if ok else 'FAILED'}")
    return 1 if failed or not ring_check() else 0


def ring_check(n=6, k=5) -> bool:
    """The STD_QPL_DELTA ring x_i * x_{i+1} of `n` players of `k` strategies."""
    alg, block = catalog_lookup("STD_QPL_DELTA"), tuple((Fraction(j, k - 1),) for j in range(k))
    names = [f"x{i + 1}" for i in range(n)]
    lg = LogicalGame(alg, tuple((name,) for name in names), (block,) * n,
                     tuple(App("odot", (Var(names[i]), Var(names[(i + 1) % n])))
                           for i in range(n)))
    table = lg.payoff_table
    rows, fill_ms = timed(lambda: table.rows)
    profiles = list(lg.profiles())
    sampled = random.Random(1).sample(range(len(profiles)), 100)
    rows_ok = all(rows[i][r] == evaluate(phi, alg, lg.assignment(profiles[r]))
                  for r in sampled for i, phi in enumerate(lg.payoff_formulas))
    (found, sat), decide_ms = timed(lambda: decide_pure_ne(lg))
    scan, scan_ms = timed(lambda: pure_ne_scan(lg))
    expected = [tuple(lg.strategies[i][s] for i, s in enumerate(ids)) for ids in scan]
    ok = rows_ok and found == expected and sat == bool(expected)
    print(f"STD_QPL_DELTA ring x_i * x_(i+1), {n} players of {k} strategies: "
          f"{len(profiles)} rows, fill {fill_ms:.1f} ms (per row), decide {decide_ms:.1f} ms "
          f"(with gamma), scan {scan_ms:.1f} ms, {len(found)} pure equilibria, "
          f"{'ok' if ok else 'FAILED'}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
