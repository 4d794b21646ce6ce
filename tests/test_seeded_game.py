"""The seeded games CI writes with `tests/seeded_game.py`: the files whose
outputs it pins must keep their bytes."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).with_name("seeded_game.py")
QUARTERS = ["0", "1/4", "1/2", "3/4", "1"]


@pytest.mark.parametrize("seed, k, levels, digest", [
    (12, 12, QUARTERS, "053d5ca57bd2a04d90f095224612ab234d261f3406f674d1208538bc442c843f"),
    (20, 5, QUARTERS, "d1b93c5bb3104b87cb718b59024c3012575d4c1022fad5b51c09315c2e05c444"),
    (21, 5, ["0", "1"], "a03aa22ede157b73125b6a0923929d45f40cc1dd746a535bf70e0a71dd204975"),
    (23, 6, ["0", "1/2", "1"], "bceca063186f9379ebc223e7d5ce7d9e87533d4403eb4b09f10aff60ec23e020"),
    (8, 8, QUARTERS, "0b78d5e1d960c0e8f9ce1c45bb14411a12e06c2d8790a34883d0590faca06c44"),
    (6, 6, QUARTERS, "915faafb8d2beda12e1dc88476fa7faf82dffa05bf61c4072345a17eef41c713"),
])
def test_seeded_game_files_keep_their_bytes(tmp_path, seed, k, levels, digest):
    out = tmp_path / "game.json"
    subprocess.run([sys.executable, str(SCRIPT), str(out), str(seed), str(k), *levels],
                   check=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
