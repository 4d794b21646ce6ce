"""CLI verbs, file round-trips, and the exit-code contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import mvgames
from mvgames import parse
from mvgames.cli import main
from mvgames.game import (game_from_json, lgame_from_json, load_json,
                          profile_to_json)

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "--algebra", "STD_L",
                       "--formula", "v & w", "--assign", "v=7/10,w=6/10")
    assert code == 0 and out.strip() == "3/10"
    code, out, _ = run(capsys, "eval", "--algebra", "BOOL2",
                       "--formula", "v -> v", "--assign", "v=1")
    assert code == 0 and out.strip() == "1"


def test_eval_exit_codes(capsys):
    code, _, err = run(capsys, "eval", "--algebra", "STD_L", "--formula", "v & &")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "eval", "--algebra", "STD_L", "--formula", "c(١/٢)")
    assert code == 2 and "unexpected character" in err
    code, _, err = run(capsys, "eval", "--algebra", "STD_L", "--formula", "v /\\ \u3000w")
    assert code == 2 and "unexpected character '\\u3000' (line 1, column 6)" in err
    code, _, err = run(capsys, "eval", "--algebra", "L_4",
                       "--formula", "c(1/3)")
    assert code == 3
    code, _, err = run(capsys, "eval", "--algebra", "NOPE", "--formula", "v")
    assert code == 2


@pytest.mark.parametrize("assign, message", [
    ("x=1/2,x=1/3", "'x' assigned more than once"),
    ("x=1/2, x =1/3", "'x' assigned more than once"),
    ("=1", "empty variable name"),
    ("x=1, =1/2", "empty variable name"),
])
def test_eval_ambiguous_assignment_is_input_error(capsys, assign, message):
    code, out, err = run(capsys, "eval", "--algebra", "STD_L",
                         "--formula", "x", "--assign", assign)
    assert code == 2 and out == "" and message in err


# Fraction expands exponent notation in full: 1e99999999 never finished,
# and 1e4300 parsed to a value too long to print (exit 4).
@pytest.mark.parametrize("value, code, out", [
    ("1e99999999", 2, ""), ("1e-99999999", 2, ""), ("1E+4301", 2, ""), ("1e4300", 2, ""),
    ("0.5", 0, "1/2"), ("1e-1", 0, "1/10"), ("2.5e-3", 0, "1/400"),
])
def test_eval_rational_literal_exponents(capsys, value, code, out):
    got, stdout, err = run(capsys, "eval", "--algebra", "STD_QL",
                           "--formula", "x", "--assign", f"x={value}")
    assert got == code and stdout.strip() == out
    assert ("bad rational literal" in err) == (code == 2)


def test_eval_formula_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("c(1/2) + c(1/4)\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--algebra", "STD_QL",
                       "--formula-file", str(path))
    assert code == 0 and out.strip() == "3/4"


def _doubling(levels):
    text = "v"
    for _ in range(levels):
        text = f"({text} \\/ {text})"
    return text


@pytest.mark.parametrize("text", [
    "(" * 5000 + "a" + "".join(f" /\\ v{i})" for i in range(5000)),    # 5000 distinct groups
    "(" * 100_000 + "v" + ")" * 100_000,
    _doubling(14),                                                       # 2^14 leaves
], ids=["chain5000", "parens100k", "doubling14"])
def test_eval_deep_formula_files(capsys, tmp_path, text):
    path = tmp_path / "deep.txt"
    path.write_text(text, encoding="utf-8")
    assign = ",".join(["a=1/3", "v=1/3"] + [f"v{i}=1" for i in range(5000)] * ("v0" in text))
    code, out, err = run(capsys, "eval", "--algebra", "STD_L", "--formula-file", str(path),
                         "--assign", assign)
    assert (code, out, err) == (0, "1/3\n", "")


def test_corpus_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "new_technology", "--c", "1",
                       "--out", str(tmp_path / "nt"))
    assert code == 0
    doc = load_json(tmp_path / "nt" / "game.json")
    game = game_from_json(doc)
    assert game.payoffs[(1, 0, 0)] == (F(1), F(-1, 2), F(-1, 2))
    lgame = lgame_from_json(load_json(tmp_path / "nt" / "lgame.json"))
    assert lgame.algebra.id == "L_4_C"
    assert (tmp_path / "nt" / "rep.json").exists()


def test_corpus_matching_pennies_table(capsys, tmp_path):
    run(capsys, "corpus", "matching_pennies", "--out", str(tmp_path / "mp"))
    game = game_from_json(load_json(tmp_path / "mp" / "game.json"))
    assert game.payoffs[(0, 0)] == (F(1), F(0))
    assert not (tmp_path / "mp" / "lgame.json").exists()


def test_corpus_love_and_hate_formulas(capsys, tmp_path):
    run(capsys, "corpus", "love_and_hate", "--n", "2", "--m", "4",
        "--out", str(tmp_path / "lh"))
    doc = load_json(tmp_path / "lh" / "lgame.json")
    assert doc["algebra"] == "L_4"
    texts = doc["payoff_formulas"]
    assert texts[1].startswith("~")         # even player negates the gap
    parse(texts[0])
    parse(texts[1])


def test_represent_and_verify(capsys, tmp_path):
    run(capsys, "corpus", "new_technology", "--out", str(tmp_path / "nt"))
    game_file = str(tmp_path / "nt" / "game.json")
    code, out, _ = run(capsys, "represent", "--game", game_file,
                       "--method", "vi_lm",
                       "--out-lgame", str(tmp_path / "lg.json"),
                       "--out-rep", str(tmp_path / "rep.json"))
    assert code == 0 and "PASS" in out and "L_5" in out
    code, out, _ = run(capsys, "verify-representation", "--game", game_file,
                       "--lgame", str(tmp_path / "lg.json"),
                       "--rep", str(tmp_path / "rep.json"))
    assert code == 0 and "PASS" in out and "affine" in out


def test_verify_representation_detects_fault(capsys, tmp_path):
    run(capsys, "corpus", "new_technology", "--out", str(tmp_path / "nt"))
    rep_path = tmp_path / "nt" / "rep.json"
    doc = json.loads(rep_path.read_text(encoding="utf-8"))
    doc["g"]["b"] = "0"                      # wrong shift
    rep_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify-representation",
                       "--game", str(tmp_path / "nt" / "game.json"),
                       "--lgame", str(tmp_path / "nt" / "lgame.json"),
                       "--rep", str(rep_path))
    assert code == 1 and "FAIL" in out


def test_pure_ne_exit_codes(capsys, tmp_path):
    run(capsys, "corpus", "new_technology", "--out", str(tmp_path / "nt"))
    formula_out = tmp_path / "existence.txt"
    code, out, _ = run(capsys, "pure-ne",
                       "--lgame", str(tmp_path / "nt" / "lgame.json"),
                       "--emit-formula", str(formula_out))
    assert code == 0
    assert out.splitlines() == ["1 1 1", "SAT"]
    parse(formula_out.read_text(encoding="utf-8"))    # emitted formula re-parses

    run(capsys, "corpus", "matching_pennies", "--out", str(tmp_path / "mp"))
    code, _, _ = run(capsys, "represent",
                     "--game", str(tmp_path / "mp" / "game.json"),
                     "--method", "ab_i",
                     "--out-lgame", str(tmp_path / "mp_lg.json"),
                     "--out-rep", str(tmp_path / "mp_rep.json"))
    assert code == 0
    code, out, _ = run(capsys, "pure-ne", "--lgame", str(tmp_path / "mp_lg.json"))
    assert code == 1
    assert out.splitlines() == ["UNSAT"]


def test_pure_ne_weak_route(capsys, tmp_path):
    # the evader/matcher cycle has no pure equilibrium at all
    run(capsys, "corpus", "love_and_hate", "--n", "2", "--m", "2",
        "--out", str(tmp_path / "lh"))
    code, out, _ = run(capsys, "pure-ne",
                       "--lgame", str(tmp_path / "lh" / "lgame.json"), "--weak")
    assert code == 1 and out.splitlines() == ["UNSAT"]
    # constant-free prime-chain target: the q-variable route finds the NE
    run(capsys, "corpus", "new_technology", "--out", str(tmp_path / "nt"))
    run(capsys, "represent", "--game", str(tmp_path / "nt" / "game.json"),
        "--method", "vi_lm", "--out-lgame", str(tmp_path / "lg.json"),
        "--out-rep", str(tmp_path / "rep.json"))
    code, out, _ = run(capsys, "pure-ne", "--lgame", str(tmp_path / "lg.json"),
                       "--weak")
    assert code == 0
    assert out.splitlines() == ["2/5 2/5 2/5", "SAT"]


def test_mixed_check_cli(capsys, tmp_path):
    run(capsys, "corpus", "love_and_hate", "--n", "2", "--m", "4",
        "--out", str(tmp_path / "lh"))
    profile = [{"0": "1/2", "2": "1/2"}, {"0": "1/2", "2": "1/2"}]
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(profile), encoding="utf-8")
    code, out, _ = run(capsys, "mixed-check",
                       "--lgame", str(tmp_path / "lh" / "lgame.json"),
                       "--profile", str(profile_path), "--trace")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("probdistr_1 ") for line in lines)
    assert lines[-1] == "mixed Nash equilibrium"

    bad = [{"0": "1"}, {"0": "1"}]
    profile_path.write_text(json.dumps(bad), encoding="utf-8")
    code, out, _ = run(capsys, "mixed-check",
                       "--lgame", str(tmp_path / "lh" / "lgame.json"),
                       "--profile", str(profile_path))
    assert code == 1 and "not a mixed Nash equilibrium" in out


# A degenerate 4x4 game: payoffs from three levels, drawn with a seeded RNG.
DEGENERATE_4X4 = [["1/3", "-1"], ["1/2", "1/3"], ["1/3", "1/2"], ["1/3", "-1"],
                  ["1/2", "1/3"], ["1/2", "1/3"], ["1/3", "1/3"], ["-1", "-1"],
                  ["1/3", "1/3"], ["1/3", "1/2"], ["-1", "1/3"], ["1/2", "1/3"],
                  ["1/3", "1/2"], ["1/2", "1/2"], ["1/3", "1/2"], ["1/2", "-1"]]


def test_oracle_mixed_find_degenerate_output(capsys, tmp_path):
    game_file = tmp_path / "game.json"
    game_file.write_text(json.dumps({
        "players": 2, "strategies": [["a", "b", "c", "d"]] * 2,
        "payoffs": DEGENERATE_4X4}), encoding="utf-8")
    code, out, _ = run(capsys, "oracle", "mixed-find", "--game", str(game_file))
    assert code == 0
    assert out == """\
3:1 | 2:1  payoffs 1/3,1/2
3:1 | 1:1  payoffs 1/2,1/2
1:1 | 2:1  payoffs 1/3,1/3
1:1 | 1:1  payoffs 1/2,1/3
1:1 | 0:1/2,1:1/2  payoffs 1/2,1/3 DEGENERATE
1:1 | 0:3/4,1:1/4  payoffs 1/2,1/3 DEGENERATE
1:1 | 0:1  payoffs 1/2,1/3
0:1/2,3:1/2 | 2:1  payoffs 1/3,1/2 DEGENERATE
0:3/4,3:1/4 | 2:1  payoffs 1/3,1/2 DEGENERATE
0:1 | 2:1  payoffs 1/3,1/2
10 mixed equilibria
"""


def test_oracle_cli(capsys, tmp_path):
    run(capsys, "corpus", "matching_pennies", "--out", str(tmp_path / "mp"))
    game_file = str(tmp_path / "mp" / "game.json")
    code, out, _ = run(capsys, "oracle", "pure", "--game", game_file)
    assert code == 1 and "0 pure equilibria" in out

    code, out, _ = run(capsys, "oracle", "mixed-find", "--game", game_file)
    assert code == 0
    assert "0:1/2,1:1/2 | 0:1/2,1:1/2" in out

    profile_path = tmp_path / "uniform.json"
    profile_path.write_text(json.dumps([{"0": "1/2", "1": "1/2"}] * 2),
                            encoding="utf-8")
    code, out, _ = run(capsys, "oracle", "mixed-verify", "--game", game_file,
                       "--profile", str(profile_path))
    assert code == 0

    run(capsys, "corpus", "new_technology", "--out", str(tmp_path / "nt"))
    code, out, _ = run(capsys, "oracle", "pure",
                       "--game", str(tmp_path / "nt" / "game.json"))
    assert code == 0 and out.splitlines()[0] == "1 1 1"
    # logical-game input works too
    code, out, _ = run(capsys, "oracle", "pure",
                       "--game", str(tmp_path / "nt" / "lgame.json"))
    assert code == 0 and out.splitlines()[0] == "1 1 1"


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "oracle", "pure",
                       "--game", str(tmp_path / "missing.json"))
    assert code == 2 and "input error" in err


def test_eval_unreadable_formula_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--algebra", "STD_L",
                       "--formula-file", str(tmp_path / "missing.txt"))
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "eval", "--algebra", "STD_L",
                       "--formula-file", str(tmp_path))     # a directory
    assert code == 2 and "input error" in err


def _mixed_verify(capsys, tmp_path, profile):
    run(capsys, "corpus", "matching_pennies", "--out", str(tmp_path / "mp"))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(profile), encoding="utf-8")
    return run(capsys, "oracle", "mixed-verify",
               "--game", str(tmp_path / "mp" / "game.json"),
               "--profile", str(profile_path))


def test_profile_with_non_integer_strategy_id_is_input_error(capsys, tmp_path):
    code, _, err = _mixed_verify(capsys, tmp_path, [{"a": "1"}, {"0": "1"}])
    assert code == 2 and "input error" in err and "'a'" in err


def test_profile_with_non_map_player_entry_is_input_error(capsys, tmp_path):
    code, _, err = _mixed_verify(capsys, tmp_path, [["1"], {"0": "1"}])
    assert code == 2 and "input error" in err and "player 1" in err


def test_profile_with_huge_exponent_is_input_error(capsys, tmp_path):
    code, _, err = _mixed_verify(capsys, tmp_path, [{"0": "1e99999999"}, {"0": "1"}])
    assert code == 2 and "beyond 4300" in err


@pytest.mark.parametrize("profile", [
    '[{"0": "0", "0": "1"}, {"0": "1"}]',       # one key twice: the last would win
    '[{"0": "0", "00": "1"}, {"0": "1"}]',      # strategy 0 under two spellings
    '[{"+0": "1"}, {"0": "1"}]',
    '[{" 1 ": "1"}, {"0": "1"}]',
    '[{"\\u0661": "1"}, {"0": "1"}]',          # ARABIC-INDIC DIGIT ONE
])
def test_profile_naming_a_strategy_twice_or_by_alias_is_input_error(capsys, tmp_path,
                                                                     profile):
    run(capsys, "corpus", "matching_pennies", "--out", str(tmp_path / "mp"))
    (tmp_path / "profile.json").write_text(profile, encoding="utf-8")
    code, out, err = run(capsys, "oracle", "mixed-verify",
                         "--game", str(tmp_path / "mp" / "game.json"),
                         "--profile", str(tmp_path / "profile.json"))
    assert code == 2 and out == "" and err.startswith("input error:"), err


@pytest.mark.parametrize("players", [2.9, True, "2"])
def test_player_count_must_be_a_json_integer(capsys, tmp_path, players):
    n = int(players)
    doc = {"players": players, "strategies": [["a", "b"]] * n,
           "payoffs": [["0"] * n] * 2 ** n}
    code, out, err = run(capsys, "oracle", "pure",
                         "--game", _write_json(tmp_path, "g.json", doc))
    assert code == 2 and out == "" and err.startswith("input error:"), err


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_rational_as_json_number_is_input_error(capsys, tmp_path):
    game = {"players": 2, "strategies": [["a"], ["b"]], "payoffs": [[1, 0]]}
    code, _, err = run(capsys, "oracle", "pure",
                       "--game", _write_json(tmp_path, "g.json", game))
    assert code == 2 and "input error" in err and "bad rational literal 1" in err
    code, _, err = _mixed_verify(capsys, tmp_path, [{"0": 1}, {"0": "1"}])
    assert code == 2 and "input error" in err and "bad rational literal 1" in err


@pytest.mark.parametrize("literal", [1, 0.5, None, True, ["1/2"], [], {"n": "1"}, {}])
def test_non_string_payoff_literal_is_input_error(capsys, tmp_path, literal):
    # Each distinct literal is parsed once; a repeated string is looked up,
    # and any other JSON value, hashable or not, still reaches the parser.
    game = {"players": 2, "strategies": [["a", "b"], ["c"]],
            "payoffs": [["1/2", "1/2"], ["1/2", literal]]}
    code, out, err = run(capsys, "oracle", "pure",
                         "--game", _write_json(tmp_path, "g.json", game))
    assert (code, out) == (2, "")
    assert err == (f"input error: bad rational literal {literal!r}: "
                   "expected a string like '1/2'\n")


def test_each_payoff_literal_keeps_its_value(capsys, tmp_path):
    game = {"players": 2, "strategies": [["a", "b"], ["c", "d"]],
            "payoffs": [["1/2", " 1/2"], ["0.5", "1"], ["2/4", "1/2"], ["1/2", "1.0"]]}
    assert game_from_json(game).payoffs == {
        (0, 0): (F(1, 2), F(1, 2)), (0, 1): (F(1, 2), F(1)),
        (1, 0): (F(1, 2), F(1, 2)), (1, 1): (F(1, 2), F(1))}
    code, out, _ = run(capsys, "oracle", "pure",
                       "--game", _write_json(tmp_path, "g.json", game))
    assert code == 0 and out == "0 1\n1 1\n2 pure equilibria\n"


def test_malformed_game_documents_are_input_errors(capsys, tmp_path):
    base = {"players": 1, "strategies": [["a"]], "payoffs": [["0"]]}
    for key, value in (("payoffs", 5), ("payoffs", [5]), ("players", "x")):
        doc = dict(base, **{key: value})
        code, _, err = run(capsys, "oracle", "pure",
                           "--game", _write_json(tmp_path, "g.json", doc))
        assert code == 2 and err.startswith("input error:"), (key, value, err)
    code, _, err = run(capsys, "oracle", "pure",
                       "--game", _write_json(tmp_path, "seven.json", 7))
    assert code == 2 and err.startswith("input error:")


def test_payoff_row_count_is_checked_before_profiles_are_listed(capsys, tmp_path):
    # 10**12 profiles: listing them before counting the rows never finishes.
    doc = {"players": 3, "strategies": [[f"s{k}" for k in range(10_000)]] * 3,
           "payoffs": []}
    path = _write_json(tmp_path, "huge.json", doc)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "pure", "--game", path)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "expected 1000000000000 payoff rows, got 0" in err


def test_unreadable_json_is_input_error(capsys, tmp_path):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"players": "\xff"}')
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for path in (not_utf8, too_deep):
        code, _, err = run(capsys, "oracle", "pure", "--game", str(path))
        assert code == 2 and err.startswith("input error: cannot read"), err


def test_internal_error_exits_4(capsys, monkeypatch):
    from mvgames import cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_eval", boom)
    code, out, err = run(capsys, "eval", "--algebra", "STD_L", "--formula", "v")
    assert code == 4 and out == ""
    assert err.strip() == "internal error: RuntimeError: boom"


UNWRITABLE = {
    "represent-lgame": ("represent", "--game", "{game}", "--method", "ab_i",
                        "--out-lgame", "{nowhere}", "--out-rep", "{ok}"),
    "represent-rep": ("represent", "--game", "{game}", "--method", "ab_i",
                      "--out-lgame", "{ok}", "--out-rep", "{nowhere}"),
    "pure-ne": ("pure-ne", "--lgame", "{lgame}", "--emit-formula", "{nowhere}"),
    "mixed-check": ("mixed-check", "--lgame", "{lgame}", "--profile", "{profile}",
                    "--emit-formula", "{nowhere}"),
    "corpus": ("corpus", "matching_pennies", "--out", "{profile}/sub"),
    "pure-ne-directory": ("pure-ne", "--lgame", "{lgame}", "--emit-formula", "{dir}"),
    "represent-directory": ("represent", "--game", "{game}", "--method", "ab_i",
                            "--out-lgame", "{dir}", "--out-rep", "{ok}"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_path_is_input_error(capsys, tmp_path, case):
    run(capsys, "corpus", "matching_pennies", "--out", str(tmp_path / "mp"))
    paths = {"game": str(tmp_path / "mp" / "game.json"),
             "lgame": str(tmp_path / "lgame.json"), "ok": str(tmp_path / "ok.json"),
             "nowhere": str(tmp_path / "missing-dir" / "out"), "dir": str(tmp_path),
             "profile": _write_json(tmp_path, "p.json", [{"0": "1/2", "1": "1/2"}] * 2)}
    run(capsys, "represent", "--game", paths["game"], "--method", "ab_i",
        "--out-lgame", paths["lgame"], "--out-rep", paths["ok"])
    code, _, err = run(capsys, *[arg.format(**paths) for arg in UNWRITABLE[case]])
    assert code == 2 and err.startswith("input error: cannot write"), err


# The exit-code contract across every verb: each file a verb reads may be
# missing, a directory, not UTF-8 or not JSON, and each file it writes may be
# a directory or a full device.  Each is an input error (exit 2) naming that
# file: not an internal error (4), and, with nothing printed, no failed flush
# of standard output at exit (120).
EXIT_MATRIX_VERBS = {
    "eval": ("eval", "--algebra", "STD_L", "--formula-file", "{formula}"),
    "corpus": ("corpus", "matching_pennies", "--out", "{out_dir}"),
    "represent": ("represent", "--game", "{game}", "--method", "ab_i",
                  "--out-lgame", "{out_lgame}", "--out-rep", "{out_rep}"),
    "verify-representation": ("verify-representation", "--game", "{game}",
                              "--lgame", "{lgame}", "--rep", "{rep}"),
    "pure-ne": ("pure-ne", "--lgame", "{lgame}", "--emit-formula", "{out_formula}"),
    "mixed-check": ("mixed-check", "--lgame", "{lgame}", "--profile", "{profile}",
                    "--emit-formula", "{out_formula}"),
    "oracle-pure": ("oracle", "pure", "--game", "{game}"),
    "oracle-mixed-verify": ("oracle", "mixed-verify", "--game", "{game}",
                            "--profile", "{profile}"),
    "oracle-mixed-find": ("oracle", "mixed-find", "--game", "{game}"),
}


# corpus --out names a directory, so the unwritable path there is a file.
EXIT_MATRIX = [(verb, slot, kind) for verb, argv in EXIT_MATRIX_VERBS.items()
               for slot in (arg[1:-1] for arg in argv if arg.startswith("{"))
               for kind in (("missing", "directory", "not-utf8", "not-json")
                            if not slot.startswith("out_") else
                            ("file" if slot == "out_dir" else "directory", "dev-full"))]


@pytest.fixture(scope="module")
def exit_matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit-matrix")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", "matching_pennies", "--out", str(root / "mp")]) == 0
        assert main(["represent", "--game", str(root / "mp" / "game.json"), "--method",
                     "ab_i", "--out-lgame", str(root / "lgame.json"),
                     "--out-rep", str(root / "rep.json")]) == 0
    (root / "f.txt").write_text("v", encoding="utf-8")
    (root / "a-directory").mkdir()
    (root / "latin1.json").write_bytes(b'{"players": "\xff"}')
    (root / "text.json").write_text("{players: 2}", encoding="utf-8")
    return {"formula": root / "f.txt", "game": root / "mp" / "game.json",
            "lgame": root / "lgame.json", "rep": root / "rep.json",
            "profile": _write_json(root, "p.json", [{"0": "1/2", "1": "1/2"}] * 2),
            "missing": root / "missing.json", "directory": root / "a-directory",
            "not-utf8": root / "latin1.json", "not-json": root / "text.json",
            "file": root / "f.txt", "dev-full": "/dev/full"}


@pytest.mark.parametrize("verb, slot, kind", EXIT_MATRIX)
def test_exit_contract_matrix(capsys, tmp_path, exit_matrix_files, verb, slot, kind):
    paths = dict(exit_matrix_files, out_dir=tmp_path / "out",
                 out_lgame=tmp_path / "lgame.json", out_rep=tmp_path / "rep.json",
                 out_formula=tmp_path / "formula.txt")
    if kind == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    paths[slot] = bad = exit_matrix_files[kind]
    code, out, err = run(capsys, *[arg.format(**paths) for arg in EXIT_MATRIX_VERBS[verb]])
    assert code == 2 and out == "" and err.startswith("input error: "), err
    assert err.count("\n") == 1, err
    # A formula file is not JSON; that one reaches the parser instead.
    assert str(bad) in err or (verb, kind) == ("eval", "not-json"), err


# A loader must not iterate a string where it expects a JSON array: "ab"
# would read as the two strategies a and b, "x" as the block ("x",).

def test_strategy_block_given_as_a_string_is_input_error(capsys, tmp_path):
    doc = {"players": 2, "strategies": ["ab", "cd"], "payoffs": [["0", "0"]] * 4}
    code, out, err = run(capsys, "oracle", "pure",
                         "--game", _write_json(tmp_path, "g.json", doc))
    assert code == 2 and out == "" and err.startswith("input error:"), err


def test_strategy_names_must_be_strings(capsys, tmp_path):
    doc = {"players": 2, "strategies": [[1, 2], [None, True]],
           "payoffs": [["0", "1"], ["1", "0"], ["1", "0"], ["0", "1"]]}
    code, out, err = run(capsys, "represent", "--game", _write_json(tmp_path, "g.json", doc),
                         "--method", "ab_i", "--out-lgame", str(tmp_path / "lg.json"),
                         "--out-rep", str(tmp_path / "rep.json"))
    assert code == 2 and out == "" and err.startswith("input error:"), err


def _lgame(variables):
    return {"algebra": "L_2", "variables": variables,
            "strategies": [[["0"], ["1"]], [["0"], ["1"]]],
            "payoff_formulas": ["0", "0"]}


def test_variable_block_given_as_a_string_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "pure-ne",
                         "--lgame", _write_json(tmp_path, "lg.json", _lgame(["x", "y"])))
    assert code == 2 and out == "" and err.startswith("input error:"), err


def test_strategy_tuple_given_as_a_string_is_input_error(capsys, tmp_path):
    doc = dict(_lgame([["x"], ["y"]]), strategies=[["0", "1"], ["0", "1"]])
    code, out, err = run(capsys, "oracle", "pure",
                         "--game", _write_json(tmp_path, "lg.json", doc))
    assert code == 2 and out == "" and err.startswith("input error:"), err


@pytest.mark.parametrize("key, value", [
    ("c", [["0", "1"], ["0", "1"]]),                   # ["0"], ["1"] as strings
    ("g", {"kind": "table", "points": ["00", "11"]}),   # ["0", "0"], ["1", "1"]
])
def test_representation_sidecar_given_strings_is_input_error(capsys, tmp_path, key, value):
    # matching pennies represented by ab_i, then its sidecar spoiled
    run(capsys, "corpus", "matching_pennies", "--out", str(tmp_path / "mp"))
    game_file, lgame_file = str(tmp_path / "mp" / "game.json"), str(tmp_path / "lg.json")
    run(capsys, "represent", "--game", game_file, "--method", "ab_i",
        "--out-lgame", lgame_file, "--out-rep", str(tmp_path / "rep.json"))
    doc = dict(load_json(tmp_path / "rep.json"), **{key: value})
    code, out, err = run(capsys, "verify-representation", "--game", game_file,
                         "--lgame", lgame_file, "--rep", _write_json(tmp_path, "rep.json", doc))
    assert code == 2 and out == "" and err.startswith("input error:"), err


def test_payoff_formulas_given_as_a_string_is_input_error(capsys, tmp_path):
    # "xy" would read as the two payoff formulas x and y
    path = _write_json(tmp_path, "lg.json", dict(_lgame([["x"], ["y"]]), payoff_formulas="xy"))
    for argv in (("pure-ne", "--lgame", path), ("oracle", "pure", "--game", path)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("input error:"), (argv, err)


def test_variable_names_must_read_back_as_variables(capsys, tmp_path):
    # emitted formulas name the variables; each name must parse back as itself
    for name in ("a b", "D", "c(1/2)", "x)", ""):
        path = _write_json(tmp_path, "lg.json", _lgame([[name], ["y"]]))
        code, out, err = run(capsys, "pure-ne", "--lgame", path,
                             "--emit-formula", str(tmp_path / "ex.txt"))
        assert code == 2 and out == "" and err.startswith("input error:"), err
        assert f"variable name {name!r}" in err
    path = _write_json(tmp_path, "ok.json", _lgame([["x_1"], ["y"]]))
    code, out, _ = run(capsys, "pure-ne", "--lgame", path,
                       "--emit-formula", str(tmp_path / "ex.txt"))
    assert code == 0 and out.splitlines()[-1] == "SAT"
    code, out, _ = run(capsys, "eval", "--algebra", "L_2",
                       "--formula-file", str(tmp_path / "ex.txt"), "--assign", "x_1=0,y=1")
    assert code == 0 and out == "1\n"


def test_zero_player_logical_game_is_rejected_by_every_verb(capsys, tmp_path):
    path = _write_json(tmp_path, "lg.json", {"algebra": "L_2", "variables": [],
                                             "strategies": [], "payoff_formulas": []})
    profile = _write_json(tmp_path, "profile.json", [])
    for argv in (("pure-ne", "--lgame", path),
                 ("mixed-check", "--lgame", path, "--profile", profile),
                 ("oracle", "pure", "--game", path)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "error: a game needs at least one player\n"), argv


# --- standard output and error as files -------------------------------------------

def _cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, buffered=True,
         entry=("-m", "mvgames.cli"), **kw):
    """Run the CLI in a fresh interpreter, so its real fds 1 and 2 are what we give it."""
    src = str(Path(mvgames.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *entry, *argv], env=env,
                          stdout=stdout, stderr=stderr, timeout=120, **kw)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_emit_formula_to_devices(capsys, tmp_path):
    run(capsys, "corpus", "new_technology", "--out", str(tmp_path / "nt"))
    lgame, emitted = str(tmp_path / "nt" / "lgame.json"), tmp_path / "existence.txt"
    code, out, _ = run(capsys, "pure-ne", "--lgame", lgame, "--emit-formula", str(emitted))
    assert code == 0 and out == "1 1 1\nSAT\n"
    code, out, _ = run(capsys, "pure-ne", "--lgame", lgame, "--emit-formula", os.devnull)
    assert code == 0 and out == "1 1 1\nSAT\n"
    piped = _cli("pure-ne", "--lgame", lgame, "--emit-formula", "/dev/stdout")
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == emitted.read_bytes() + b"1 1 1\nSAT\n"


# Buffered, the pipe fails when main flushes stdout (or, unchecked, at
# interpreter exit); unbuffered, it fails at the verb's first print.
@pytest.mark.skipif(os.name != "posix", reason="pipe semantics")
@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_is_an_unwritable_file(capsys, tmp_path, buffered):
    run(capsys, "corpus", "love_and_hate", "--n", "4", "--m", "4", "--out", str(tmp_path))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _cli("oracle", "pure", "--game", str(tmp_path / "lgame.json"),
                      stdout=write_end, buffered=buffered)
    finally:
        os.close(write_end)
    err = result.stderr.decode()
    assert result.returncode == 2, err
    assert err.startswith("input error: cannot write standard output") and err.count("\n") == 1
    assert "internal error" not in err and "Exception ignored" not in err


# A full device fails the write with ENOSPC, not EPIPE: the same unwritable file.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("verb", ["pure-ne", "oracle"])
def test_full_stdout_is_an_unwritable_file(capsys, tmp_path, verb):
    run(capsys, "corpus", "new_technology", "--c", "1", "--out", str(tmp_path))
    argv = ("pure-ne", "--lgame", str(tmp_path / "lgame.json")) if verb == "pure-ne" \
        else ("oracle", "pure", "--game", str(tmp_path / "game.json"))
    with open("/dev/full", "wb") as full:
        result = _cli(*argv, stdout=full)
    assert (result.returncode, result.stderr) == \
        (2, b"input error: cannot write standard output: [Errno 28] No space left on device\n")


# With fd 1 closed before start-up (`>&-`), sys.stdout is None and every
# print is dropped: that is the unwritable file of the closed pipe above.
@pytest.mark.skipif(os.name != "posix", reason="fd semantics")
def test_stdout_closed_at_start_up_is_an_unwritable_file():
    result = _cli("eval", "--algebra", "STD_L", "--formula", "v", "--assign", "v=1/2",
                  stdout=None, preexec_fn=lambda: os.close(1))
    assert (result.returncode, result.stderr) == \
        (2, b"input error: cannot write standard output\n")


# With nowhere to report an error, the exit code alone must still tell an
# input error (2) and a semantic error (3) from UNSAT (1).
@pytest.mark.skipif(os.name != "posix", reason="pipe semantics")
@pytest.mark.parametrize("closed", ["pipe", "at start-up", "after start-up"])
@pytest.mark.parametrize("formula, algebra, code", [("v", "NOPE", 2), ("c(1/3)", "L_4", 3)])
def test_closed_stderr_keeps_the_exit_code(closed, formula, algebra, code):
    argv = ("eval", "--algebra", algebra, "--formula", formula)
    if closed == "pipe":        # nobody reads it: EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = _cli(*argv, stderr=write_end)
        finally:
            os.close(write_end)
    elif closed == "at start-up":   # as `2>&-` leaves it: sys.stderr is None
        result = _cli(*argv, stderr=None, preexec_fn=lambda: os.close(2))
    else:                           # sys.stderr is set, its writes fail with EBADF
        main_without_fd2 = ("import os, sys; os.close(2); from mvgames.cli import main; "
                            "sys.exit(main(sys.argv[1:]))")
        result = _cli(*argv, stderr=None, entry=("-c", main_without_fd2))
    assert (result.returncode, result.stdout) == (code, b"")


# The stream half of the exit-code contract, every verb on the matrix's files
# in a fresh interpreter: a stdout whose reader left, or closed at start-up,
# is an unwritable file (exit 2, one line); a stderr closed at start-up
# changes neither the exit code nor standard output.
STREAMS = ("stdout-broken-pipe", "stdout-closed-at-start-up", "stderr-closed-at-start-up")


@pytest.mark.skipif(os.name != "posix", reason="fd semantics")
@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("verb", sorted(EXIT_MATRIX_VERBS))
def test_exit_contract_stream_matrix(capsys, tmp_path, exit_matrix_files, verb, stream):
    paths = dict(exit_matrix_files, out_dir=tmp_path / "out",
                 out_lgame=tmp_path / "lgame.json", out_rep=tmp_path / "rep.json",
                 out_formula=tmp_path / "formula.txt")
    argv = [arg.format(**paths) for arg in EXIT_MATRIX_VERBS[verb]]
    if verb == "eval":
        argv += ["--assign", "v=1/2"]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and out and not err, (code, err)
    if stream == "stdout-broken-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = _cli(*argv, stdout=write_end)
        finally:
            os.close(write_end)
    elif stream == "stdout-closed-at-start-up":
        result = _cli(*argv, stdout=None, preexec_fn=lambda: os.close(1))
    else:
        result = _cli(*argv, stderr=None, preexec_fn=lambda: os.close(2))
    if stream.startswith("stdout"):
        error = result.stderr.decode()
        assert result.returncode == 2, error
        assert error.startswith("input error: cannot write standard output"), error
        assert error.count("\n") == 1, error
    else:
        assert (result.returncode, result.stdout.decode()) == (code, out)
