"""Fuzzing the input boundary: JSON loaders and the formula grammar.

Whatever JSON-shaped value a loader is handed, and whatever text the parser
reads, the only exceptions that may escape are InputError (malformed input,
CLI exit 2) and SemanticError (well-formed but meaningless, exit 3).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvgames import matching_pennies, parse, represent_binary_boolean
from mvgames.errors import InputError, SemanticError
from mvgames.formula import ParseError
from mvgames.game import game_from_json, lgame_from_json, profile_from_json
from mvgames.represent import representation_from_json

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Scalars a JSON document can hold, with the strings the loaders expect
# mixed in so that fuzzing reaches past the first type check.
scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
           | st.sampled_from(["0", "1", "1/2", "-1", "x", "1/0", "L_2", "BOOL2",
                              "STD_QG_DELTA", "v1", "v1 /\\ v2", "affine", "table"])
           | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3),
                                                               inner, max_size=4),
    max_leaves=12)


def _doc(keys):
    """Either any JSON value or a map holding (some of) the expected keys."""
    return json_values | st.dictionaries(st.sampled_from(keys), json_values,
                                         min_size=len(keys) - 1)


def _nested(depth, leaf=scalars):
    """Lists nested `depth` deep around `leaf`, or any JSON value."""
    for _ in range(depth):
        leaf = st.lists(leaf, max_size=3)
    return leaf | json_values


def _only_contract_errors(load, *args):
    try:
        load(*args)
    except (InputError, SemanticError):
        pass


@FUZZ
@given(_doc(["players", "strategies", "payoffs"])
       | st.fixed_dictionaries({"players": st.integers(0, 3) | json_values,
                                "strategies": _nested(2, st.text(max_size=2)),
                                "payoffs": _nested(2)}))
@example({"players": 1, "strategies": [["a"]], "payoffs": [5]})
@example({"players": 2.9, "strategies": [["a"], ["b"]], "payoffs": [["0", "0"]]})
@example({"players": True, "strategies": [["a"]], "payoffs": [["0"]]})
def test_game_from_json(doc):
    _only_contract_errors(game_from_json, doc)


@FUZZ
@given(_doc(["algebra", "variables", "strategies", "payoff_formulas"])
       | st.fixed_dictionaries({"algebra": st.sampled_from(["L_2", "BOOL2"]) | scalars,
                                "variables": _nested(2, st.sampled_from(["v1", "v2"])
                                                     | scalars),
                                "strategies": _nested(3),
                                "payoff_formulas": _nested(1)}))
@example({"algebra": "BOOL2", "variables": [[["v"]]], "strategies": [[["1"]]],
          "payoff_formulas": ["1"]})
@example({"algebra": "BOOL2", "variables": [["a"], ["b"]],
          "strategies": [[["0"], ["1"]], [["0"], ["1"]]], "payoff_formulas": "ab"})
def test_lgame_from_json(doc):
    _only_contract_errors(lgame_from_json, doc)


@FUZZ
@given(json_values | st.lists(st.dictionaries(st.sampled_from(["0", "1", "2", "a", " 1"]),
                                              scalars, max_size=3), max_size=3),
       st.lists(st.integers(1, 3), min_size=1, max_size=3))
@example([{"0": "1e99999999"}, {"0": "1"}], [2, 2])
@example([{"0": "0", "00": "1"}, {"0": "1"}], [2, 2])
@example([{"+0": "1", " 1 ": "0", "\u0661": "0"}, {"0": "1"}], [2, 2])
def test_profile_from_json(doc, counts):
    _only_contract_errors(profile_from_json, doc, counts)


REP = represent_binary_boolean(matching_pennies().strategic)
KINDS = st.sampled_from(["affine", "table"]) | scalars


@FUZZ
@given(_doc(["g", "c"])
       | st.fixed_dictionaries({"g": st.fixed_dictionaries({"kind": KINDS, "a": scalars,
                                                            "b": scalars,
                                                            "points": _nested(2)}),
                                "c": _nested(3)}))
@example({"g": {"kind": "affine", "a": "1", "b": "0"},
          "c": [[["0"], ["1"]], [["0"], ["1"]], [["0"]]]})
@example({"g": {"kind": "table", "points": [["0", "0", "1"]]}, "c": []})
@example({"g": {"kind": "affine", "a": "1", "b": "0"}, "c": [["0", "1"], ["0", "1"]]})
@example({"g": {"kind": "table", "points": ["00", "11"]},
          "c": [[["0"], ["1"]], [["0"], ["1"]]]})
def test_representation_from_json(doc):
    _only_contract_errors(representation_from_json, doc, REP.source, REP.target)


@FUZZ
@given(st.text() | st.text(alphabet="vwxD01c()/\\-><=~&+*, 23\n", max_size=40))
def test_parse(text):
    _only_contract_errors(parse, text)


# Malformed texts and the error each raises: message, line, column, offset.
MALFORMED = [
    ('', "expected a formula, found 'end of input' (line 1, column 1)", 1, 1, 0),
    ('   ', "expected a formula, found 'end of input' (line 1, column 4)", 1, 4, 3),
    ('v1 #', "unexpected character '#' (line 1, column 4)", 1, 4, 3),
    ('(v1 /\\ v2', "expected ')' (line 1, column 10)", 1, 10, 9),
    ('v1 /\\', "expected a formula, found 'end of input' (line 1, column 6)", 1, 6, 5),
    ('v1 v2', "trailing input 'v2' (line 1, column 4)", 1, 4, 3),
    (')', "expected a formula, found ')' (line 1, column 1)", 1, 1, 0),
    ('2', 'bare number 2: write c(2/n) (line 1, column 1)', 1, 1, 0),
    ('v1 -> 12', 'bare number 12: write c(12/n) (line 1, column 7)', 1, 7, 6),
    ('c(3/2)', 'constant c(3/2) not a rational in [0,1] (line 1, column 1)', 1, 1, 0),
    ('c(1/0)', 'constant c(1/0) not a rational in [0,1] (line 1, column 1)', 1, 1, 0),
    ('c(-1/2)', 'constant c(-1/2) not a rational in [0,1] (line 1, column 1)', 1, 1, 0),
    ('c(\n1/2)\n/\\ #', "unexpected character '#' (line 3, column 4)", 3, 4, 11),
    ('~', "expected a formula, found 'end of input' (line 1, column 2)", 1, 2, 1),
    ('D', "expected a formula, found 'end of input' (line 1, column 2)", 1, 2, 1),
    ('D(', "expected a formula, found 'end of input' (line 1, column 3)", 1, 3, 2),
    ('v /\\ /\\ w', "expected a formula, found '/\\\\' (line 1, column 6)", 1, 6, 5),
    ('((v)', "expected ')' (line 1, column 5)", 1, 5, 4),
    ('c(1/2', "unexpected character '/' (line 1, column 4)", 1, 4, 3),
    ('v\r\n\t@', "unexpected character '@' (line 2, column 2)", 2, 2, 4),
    ('a \\/ b ->', "expected a formula, found 'end of input' (line 1, column 10)", 1, 10, 9),
    ('x_1 * 0 + 1 - 7', 'bare number 7: write c(7/n) (line 1, column 15)', 1, 15, 14),
    ('\n\n  $x', "unexpected character '$' (line 3, column 3)", 3, 3, 4),
    ('D D D', "expected a formula, found 'end of input' (line 1, column 6)", 1, 6, 5),
    ('c( 1 / 3 ) & c(4/3)', 'constant c(4/3) not a rational in [0,1] (line 1, column 14)', 1, 14, 13),
    ('v1 =>', "expected a formula, found 'end of input' (line 1, column 6)", 1, 6, 5),
    ('(((((v', "expected ')' (line 1, column 7)", 1, 7, 6),
    ('v)))', "trailing input ')' (line 1, column 2)", 1, 2, 1),
]


@pytest.mark.parametrize("text, message, line, column, offset", MALFORMED)
def test_parse_errors_are_pinned(text, message, line, column, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    error = info.value
    assert (str(error), error.line, error.column, error.offset) == \
        (message, line, column, offset)
