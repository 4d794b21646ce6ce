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
Exits 1 if a check fails.
"""

import itertools
import random
import sys
from fractions import Fraction
from functools import partial
from time import perf_counter

from mvgames import (StrategicGame, love_and_hate, pure_ne_scan, represent_rational_lm,
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
