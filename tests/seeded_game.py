"""Seeded random 2-player k x k games, written as game JSON.

    python tests/seeded_game.py OUT SEED K LEVEL...

writes to OUT the k x k game whose payoffs, two per profile in profile
order, are `random.Random(SEED).choice(LEVELS)`.  CI pins outputs computed
on these files (sha256 digests and counts), so the bytes must not change.
"""

import json
import random
import sys


def seeded_game(seed: int, k: int, levels: list[str]) -> dict:
    """The game document for `SEED K LEVEL...`."""
    rng = random.Random(seed)
    return {"players": 2, "strategies": [[f"s{i}" for i in range(k)]] * 2,
            "payoffs": [[rng.choice(levels), rng.choice(levels)] for _ in range(k * k)]}


if __name__ == "__main__":
    out, seed, k, *levels = sys.argv[1:]
    with open(out, "w") as file:
        json.dump(seeded_game(int(seed), int(k), levels), file)
