"""Verify a representation and decide pure equilibria on large seeded games.

    PYTHONPATH=src python tests/scale_check.py

Through the API, on seeded 32x32 and 64x64 games represented by `vi` and
by `vi_lm` and on a seeded 8x8x8 game represented by `vi_lm` (payoffs drawn
from j/4, j = 0..4): `verify_representation` must pass, and `decide_pure_ne`
on the verified target must return exactly the encoded `pure_ne_scan`
equilibria, in the same order.  Prints the wall time of building each
representation (its logical game compiles the payoff formulas), of each
verify, of building and compiling gamma, of `decide_pure_ne` given the
compiled encoding, and of the scan.
Exits 1 if a check fails.
"""

import itertools
import random
import sys
from fractions import Fraction
from time import perf_counter

from mvgames import (StrategicGame, pure_ne_scan, represent_rational_lm,
                     represent_rational_qg_delta, verify_representation)
from mvgames.equilibria import build_encoding, decide_pure_ne

CASES = [("vi", represent_rational_qg_delta, (32, 32), 1),
         ("vi_lm", represent_rational_lm, (32, 32), 1),
         ("vi", represent_rational_qg_delta, (64, 64), 1),
         ("vi_lm", represent_rational_lm, (64, 64), 1),
         ("vi_lm", represent_rational_lm, (8, 8, 8), 2)]


def seeded(seed, counts):
    rng, levels = random.Random(seed), [Fraction(j, 4) for j in range(5)]
    names = tuple(tuple(f"s{i}" for i in range(k)) for k in counts)
    return StrategicGame(names, {profile: tuple(rng.choice(levels) for _ in counts)
                                 for profile in itertools.product(*map(range, counts))})


def timed(call):
    start = perf_counter()
    out = call()
    return out, 1000 * (perf_counter() - start)


def main() -> int:
    failed = 0
    for method, represent, counts, seed in CASES:
        source = seeded(seed, counts)
        rep, represent_ms = timed(lambda: represent(source))
        report, verify_ms = timed(lambda: verify_representation(rep))
        enc, build_ms = timed(lambda: build_encoding(rep.target))
        _, compile_ms = timed(lambda: enc.gamma_program)
        (found, sat), decide_ms = timed(lambda: decide_pure_ne(rep.target, enc))
        scan, scan_ms = timed(lambda: pure_ne_scan(source))
        expected = sorted(rep.encode(p) for p in scan)
        ok = report.ok and found == expected and sat == bool(expected)
        failed += not ok
        print(f"{method} {'x'.join(map(str, counts))}: represented {represent_ms:.1f} ms, "
              f"verify {verify_ms:.1f} ms, "
              f"gamma built {build_ms:.1f} ms and compiled {compile_ms:.1f} ms, "
              f"decide {decide_ms:.1f} ms, scan {scan_ms:.1f} ms, "
              f"{len(found)} pure equilibria, {'ok' if ok else 'FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
