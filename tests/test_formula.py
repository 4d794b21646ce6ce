"""Formula grammar, printer round-trips, and compositional semantics."""

import json
import random
import re
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames import (App, Const, Subst, Var, catalog_lookup, evaluate, free_variables,
                     parse, substitute, to_text)
from mvgames.algebra import as_truth_value
from mvgames.errors import SemanticError
from mvgames import formula
from mvgames.formula import ParseError, _post_order
from mvgames.game import lgame_from_json, lgame_to_json
from conftest import random_formula, random_fraction, random_logical_game

STD_QL = catalog_lookup("STD_QL")
STD_QPL_DELTA = catalog_lookup("STD_QPL_DELTA")


def test_parse_basic_shapes():
    f = parse(r"(v1 -> ~v2) \/ (~v1 -> v2)")
    assert f == App("or", (App("imp", (Var("v1"), App("neg", (Var("v2"),)))),
                           App("imp", (App("neg", (Var("v1"),)), Var("v2")))))
    g = parse(r"c(1/2) + (c(1/2) /\ v1)")
    assert g == App("oplus", (Const(Fraction(1, 2)),
                              App("and", (Const(Fraction(1, 2)), Var("v1")))))


def test_parse_precedence_and_associativity():
    assert parse(r"a -> b -> c") == parse(r"a -> (b -> c)")
    assert parse(r"a - b + c") == parse(r"(a - b) + c")
    assert parse(r"a \/ b /\ c") == parse(r"a \/ (b /\ c)")
    assert parse(r"a /\ b -> c") == parse(r"(a /\ b) -> c")
    assert parse(r"~a & b") == parse(r"(~a) & b")
    assert parse(r"D a * b") == parse(r"(D a) * b")
    assert parse("0") == Const(Fraction(0))
    assert parse("c(1)") == Const(Fraction(1))


def test_parse_whitespace_insensitive():
    assert parse("v1/\\v2") == parse("  v1   /\\   v2 ")


PARSE_ERRORS = ["v1 & &", "(v1", "v1 )", "", "c(3/2)", "c(1/2", "2", "v1 ~ v2", "# nope"]


@pytest.mark.parametrize("text", PARSE_ERRORS)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse("v1 /\\\n  & v2")
    assert info.value.line == 2
    assert info.value.column == 3


def test_parse_whitespace_inside_constants():
    assert parse("c(1\t/2)") == parse("c( 1 /\n2 )") == parse("c(1\r\n/ 2)") == \
        Const(Fraction(1, 2))


ERROR_POSITIONS = [
    # A constant spanning lines moves the line count past it.
    ("c(\n1/2)\n/\\ #", "unexpected character '#'", 3, 4),
    # The whole text is lexed before it is parsed: a lex error comes first.
    ("v1 ) #", "unexpected character '#'", 1, 6),
    ("v1 ~ 2", "bare number 2: write c(2/n)", 1, 6),
    ("( c(3/2)", "constant c(3/2) not a rational in [0,1]", 1, 3),
    # Each constant lexeme is checked once, and fails where it first occurs.
    ("v + c(3/2) /\\ c(3/2)", "constant c(3/2) not a rational in [0,1]", 1, 5),
    ("c(1/2) + c(1/2) -> c(3/2)", "constant c(3/2) not a rational in [0,1]", 1, 20),
    # m and n in c(m/n) are ASCII digits; other Unicode digits start no token.
    ("c(١/٢)", "unexpected character '١'", 1, 3),
    ("c(1/\t١ )", "unexpected character '/'", 1, 4),
    ("v /\\\n  c(٣/4)", "unexpected character '٣'", 2, 5),
    # Whitespace is space, tab, CR and LF; other Unicode spaces start no token,
    # and a line separator (U+2028) does not start a line.
    ("c(1/\u00a02)", "unexpected character '/'", 1, 4),
    ("c(1\u00a0/2)", "unexpected character '\\xa0'", 1, 4),
    ("v /\\ \u3000w", "unexpected character '\\u3000'", 1, 6),
    ("v\u2028/\\ #", "unexpected character '\\u2028'", 1, 2),
    ("v /\\\n\u2028w", "unexpected character '\\u2028'", 2, 1),
    ("c(1\x0b/2)", "unexpected character '\\x0b'", 1, 4),
]


@pytest.mark.parametrize("text, message, line, column", ERROR_POSITIONS)
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line, info.value.column) == \
        (f"{message} (line {line}, column {column})", line, column)


def test_parse_is_linear_in_trailing_whitespace():
    # Quadratic lexing would take tens of seconds on the first text and
    # hours on the second: fail on the first rather than hang on the second.
    for spaces, seconds in ((20_000, 1), (10**6, 5)):
        start = time.perf_counter()
        assert parse("v" + " " * spaces) == Var("v")
        assert time.perf_counter() - start < seconds


def test_print_parse_round_trip(seed):
    rng = random.Random(seed)
    names = ["v1", "v2", "w"]
    ops = ["and", "or", "imp", "imp_pi", "neg", "and_strong", "oplus",
           "ominus", "odot", "delta"]
    for _ in range(200):
        f = random_formula(rng, names, depth=4, ops=ops)
        text = to_text(f)
        again = parse(text)
        assert again == f                 # parse . print = identity on ASTs
        assert to_text(again) == text     # print . parse = identity on canonical text


def test_evaluate_nt_payoff_formula():
    from mvgames import new_technology
    bundle = new_technology(Fraction(1))
    phi1 = bundle.logical.payoff_formulas[0]
    alg = bundle.logical.algebra
    one, zero = Fraction(1), Fraction(0)
    assert evaluate(phi1, alg, {"v1": one, "v2": zero, "v3": zero}) == 1
    assert evaluate(phi1, alg, {"v1": zero, "v2": one, "v3": one}) == 0
    assert evaluate(phi1, alg, {"v1": zero, "v2": zero, "v3": zero}) == Fraction(1, 2)


def test_evaluate_imp_reflexive_on_godel(seed):
    rng = random.Random(seed)
    f = parse("v -> v")
    alg = catalog_lookup("STD_G")
    for _ in range(100):
        assert evaluate(f, alg, {"v": random_fraction(rng, 30)}) == 1


def test_evaluate_errors():
    with pytest.raises(SemanticError):
        evaluate(parse("v"), STD_QL, {})
    with pytest.raises(SemanticError):
        evaluate(parse("c(1/3)"), catalog_lookup("L_4"), {})
    with pytest.raises(SemanticError):
        evaluate(parse("v * w"), STD_QL, {"v": Fraction(1), "w": Fraction(0)})
    with pytest.raises(SemanticError):
        evaluate(parse("v"), catalog_lookup("L_4"), {"v": Fraction(1, 3)})


def test_negation_expansion_on_godel():
    # ~ is not primitive in Godel algebras; it evaluates as x -> 0.
    alg = catalog_lookup("STD_G")
    assert evaluate(parse("~v"), alg, {"v": Fraction(1, 2)}) == 0
    assert evaluate(parse("~v"), alg, {"v": Fraction(0)}) == 1
    with pytest.raises(SemanticError):
        evaluate(parse("v + w"), alg, {"v": Fraction(0), "w": Fraction(0)})


def test_free_variables_order():
    assert free_variables(parse(r"v2 /\ v1 /\ v2")) == ["v2", "v1"]
    assert free_variables(parse("c(1/2)")) == []
    assert free_variables(parse(r"(x -> y) & (z \/ x)")) == ["x", "y", "z"]


def test_free_variables_read_each_subst_in_place(monkeypatch):
    def no_copy(*args):
        raise AssertionError("free_variables built a literal copy")

    monkeypatch.setattr(formula, "substitute", no_copy)
    body = parse(r"(y /\ x) -> (z \/ x)")
    f = Subst(body, (("x", parse("b -> a")), ("z", Const(Fraction(1, 2))), ("w", Var("q"))))
    assert free_variables(f) == ["y", "b", "a"]
    assert free_variables(App("and", (Var("a"), Subst(f, (("b", Var("c")),))))) == \
        ["a", "y", "c"]


def test_free_variables_agree_with_the_literal_copy(battery_representations):
    # Each encoding against its literal copy, on the corpus and on every
    # ninth battery representation (nine is prime to the seven constructors).
    from mvgames import love_and_hate, new_technology, vickrey
    from mvgames.equilibria import build_encoding, build_gamma_weak, build_mixed_encoding
    F = Fraction
    corpus = [new_technology(F(1)), love_and_hate(2, 4),
              vickrey([F(1, 2), F(1, 4)], F(1), F(1, 4))]
    games = [b.logical for b in corpus] + [rep.target for _, rep in battery_representations[::9]]
    checked = {}
    for lg in games:
        for name, build in (("existence", lambda: build_encoding(lg).existence),
                            ("existence_weak", lambda: build_gamma_weak(lg).existence),
                            ("mixed", lambda: build_mixed_encoding(lg).full)):
            try:
                f = build()
            except SemanticError:   # the route's preconditions do not hold
                continue
            assert free_variables(f) == free_variables(substitute(f, {}))
            checked[name] = checked.get(name, 0) + 1
    assert min(checked.values(), default=0) >= 10 and len(checked) == 3, checked


def test_locality(seed):
    rng = random.Random(seed)
    for _ in range(100):
        f = random_formula(rng, ["a", "b"], depth=3)
        env = {"a": random_fraction(rng, 6), "b": random_fraction(rng, 6)}
        extended = dict(env, c=random_fraction(rng, 6))
        assert evaluate(f, STD_QL, env) == evaluate(f, STD_QL, extended)


def test_compositionality(seed):
    rng = random.Random(seed)
    for _ in range(100):
        f = random_formula(rng, ["a", "b"], depth=2)
        g = random_formula(rng, ["a", "b"], depth=2)
        env = {"a": random_fraction(rng, 6), "b": random_fraction(rng, 6)}
        for op in ("and", "or", "imp", "and_strong", "oplus", "ominus", "odot"):
            composed = App(op, (f, g))
            assert evaluate(composed, STD_QPL_DELTA, env) == STD_QPL_DELTA.ops[op](
                evaluate(f, STD_QPL_DELTA, env), evaluate(g, STD_QPL_DELTA, env))


def test_substitution_examples():
    f = parse("v1 + v2")
    assert to_text(substitute(f, {"v1": Const(Fraction(1, 2))})) == "(c(1/2) + v2)"
    assert substitute(f, {}) is f
    assert substitute(f, {"v3": Var("v4")}) == f


def test_substitution_lemma(seed):
    # e(f[v := psi]) = e[v := e(psi)](f), checked on random formulas.
    rng = random.Random(seed)
    for _ in range(150):
        f = random_formula(rng, ["v", "w"], depth=3)
        psi = random_formula(rng, ["v", "w"], depth=2)
        env = {"v": random_fraction(rng, 6), "w": random_fraction(rng, 6)}
        left = evaluate(substitute(f, {"v": psi}), STD_QL, env)
        right = evaluate(f, STD_QL, dict(env, v=evaluate(psi, STD_QL, env)))
        assert left == right


def test_parse_deep_nesting():
    assert parse("(" * 500 + "c(1/2)" + ")" * 500) == Const(Fraction(1, 2))
    deep = parse("~" * 5000 + "v")
    assert evaluate(deep, STD_QL, {"v": Fraction(1, 3)}) == Fraction(1, 3)
    chain = parse(" -> ".join(["v"] * 5000))              # right-nested
    assert to_text(chain) == "(v -> " * 4999 + "v" + ")" * 4999


_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<const>c\([ \t\r\n]*-?[0-9]+[ \t\r\n]*(?:/[ \t\r\n]*[0-9]+[ \t\r\n]*)?\))
      | (?P<op>/\\|\\/|->|=>|[~&+\-*()])
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>[0-9]+)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str       # "op" | "var" | "const" | "end"
    text: str
    value: object
    line: int
    column: int


def reference_tokenize(text):
    """Token by token, moving the line and column over every character read,
    whitespace and lexemes alike; independent of the package's lexer."""
    tokens, pos, line, col = [], 0, 1, 1
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, lexeme = m.lastgroup, m.group()
        if kind == "const":
            try:
                value = as_truth_value(Fraction(re.sub(r"[ \t\r\n]", "", lexeme[2:-1])))
            except (SemanticError, ValueError, ZeroDivisionError):
                raise ParseError(f"constant {lexeme} not a rational in [0,1]",
                                 line, col) from None
            tokens.append(Token("const", lexeme, value, line, col))
        elif kind == "num":
            if lexeme not in ("0", "1"):
                raise ParseError(f"bare number {lexeme}: write c({lexeme}/n)",
                                 line, col)
            tokens.append(Token("const", lexeme, Fraction(lexeme), line, col))
        elif kind == "name":
            tokens.append(Token("op" if lexeme == "D" else "var", lexeme, None, line, col))
        elif kind == "op":
            tokens.append(Token("op", lexeme, None, line, col))
        for ch in lexeme:
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
        pos = m.end()
    tokens.append(Token("end", "", None, line, col))
    return tokens


def reference_parse(text):
    """Recursive-descent parser for the grammar, kept as the reference the
    package's explicit-stack parser must agree with, errors included."""
    tokens, pos = reference_tokenize(text), 0
    binary = {"/\\": "and", "\\/": "or", "->": "imp", "=>": "imp_pi",
              "&": "and_strong", "+": "oplus", "-": "ominus", "*": "odot"}

    def peek_op(*texts):
        return tokens[pos].kind == "op" and tokens[pos].text in texts

    def fail(message):
        raise ParseError(message, tokens[pos].line, tokens[pos].column)

    def level(ops, operand):
        nonlocal pos
        out = operand()
        while peek_op(*ops):
            pos += 1
            out = App(binary[tokens[pos - 1].text], (out, operand()))
        return out

    def implication():
        nonlocal pos
        left = level(("\\/", "+", "-"), lambda: level(("/\\", "&", "*"), unary))
        if peek_op("->", "=>"):
            pos += 1
            return App(binary[tokens[pos - 1].text], (left, implication()))
        return left

    def unary():
        nonlocal pos
        if peek_op("~", "D"):
            pos += 1
            return App("neg" if tokens[pos - 1].text == "~" else "delta", (unary(),))
        tok = tokens[pos]
        if tok.kind in ("var", "const"):
            pos += 1
            return Var(tok.text) if tok.kind == "var" else Const(tok.value)
        if peek_op("("):
            pos += 1
            inner = implication()
            if not peek_op(")"):
                fail("expected ')'")
            pos += 1
            return inner
        fail(f"expected a formula, found {tok.text or 'end of input'!r}")

    result = implication()
    if tokens[pos].kind != "end":
        fail(f"trailing input {tokens[pos].text!r}")
    return result


OPERANDS = ["a", "b", "0", "1", "c(1/2)", "c( 1 /\n2 )", "c(1\t/ 3)", "c(\n1/2)",
            "c(١/2)", "c(1\r\n/2)", "c(1/\u00a02)", "b\u2028"]
PREFIX = ["~", "D", "("]
BINARY = ["/\\", "\\/", "->", "=>", "&", "+", "-", "*"]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parse_agrees_with_reference_parser(data):
    # Mostly well-formed token streams, with one token in ten drawn at random.
    parts, expect_operand, depth = [], True, 0
    for _ in range(data.draw(st.integers(0, 16))):
        if data.draw(st.integers(0, 9)) == 0:
            tok = data.draw(st.sampled_from(OPERANDS + PREFIX + BINARY + [")"]))
        elif expect_operand:
            tok = data.draw(st.sampled_from(OPERANDS + PREFIX))
        else:
            tok = data.draw(st.sampled_from(BINARY + [")"] * depth))
        expect_operand = tok in PREFIX or tok in BINARY
        depth += (tok == "(") - (tok == ")")
        parts.append(tok + data.draw(st.sampled_from([" ", "", "\n"])))
    text = "".join(parts) + ")" * data.draw(st.integers(0, max(depth, 0)))
    try:
        expected = reference_parse(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.line, info.value.column) == \
            (str(exc), exc.line, exc.column)
    else:
        assert parse(text) == expected


# --- sharing: parse returns a maximally shared DAG ----------------------------

def _structural_classes(f) -> int:
    """The number of distinct subterms of `f` up to structural equality,
    counted by value, whatever object sharing the formula has."""
    classes, of = {}, {}
    for node in _post_order([f]):
        if type(node) is App:
            key = (node.op, *(of[id(a)] for a in node.args))
        else:
            key = ("var", node.name) if type(node) is Var else ("const", node.value)
        of[id(node)] = classes.setdefault(key, len(classes))
    return len(classes)


def test_parse_shares_equal_subterms():
    f = parse(r"(x /\ y) \/ (x /\ y)")
    assert f.args[0] is f.args[1]
    g = parse(r"c(1/2) + (v -> c(1/2))")
    assert g.args[0] is g.args[1].args[1] and g.args[0] == Const(Fraction(1, 2))
    chain = parse(" -> ".join(["v"] * 5000))
    assert len(list(_post_order([chain]))) == _structural_classes(chain) == 5000


def test_parse_reads_each_constant_lexeme_once(monkeypatch):
    seen = []

    def counting(value):
        seen.append(value)
        return as_truth_value(value)

    monkeypatch.setattr(formula, "as_truth_value", counting)
    f = parse("c(0) + c(1/2) * (c(0) -> c(1/2) /\\ c( 1/2))")
    assert seen == [0, Fraction(1, 2), Fraction(1, 2)]      # c( 1/2) is its own lexeme
    assert f == parse("0 + c(1/2) * (0 -> c(1/2) /\\ c(1/2))")


def test_reloaded_vi_lm_payoff_is_the_dag_it_was_printed_from():
    from mvgames.represent import represent_rational_lm
    from conftest import _fill_payoffs, PAYOFF_POOL
    rng = random.Random(4)
    game = _fill_payoffs(rng, (4, 4), rng.sample(PAYOFF_POOL, 5), 2)
    lg = represent_rational_lm(game).target
    reloaded = lgame_from_json(json.loads(json.dumps(lgame_to_json(lg))))
    for built, again in zip(lg.payoff_formulas, reloaded.payoff_formulas):
        assert again == built
        distinct = len(list(_post_order([again])))
        assert distinct == _structural_classes(again) <= len(list(_post_order([built])))


def _pinned_texts():
    """Every text whose digest `test_represent_bytes` pins: each constructor's
    payoff formulas and each printed encoding, per seed."""
    import test_represent_bytes as pinned
    for seed in pinned.SEEDS:
        for build in pinned.CONSTRUCTORS.values():
            yield from lgame_to_json(build(*pinned._games(seed)).target)["payoff_formulas"]
        for targets, build in pinned.ENCODINGS.values():
            lgs = [pinned.CONSTRUCTORS[m](*pinned._games(seed)).target for m in targets]
            lgs.append(random_logical_game(random.Random(seed)))
            yield from (to_text(build(lg)) for lg in lgs)


def test_pinned_texts_print_back_from_their_parse():
    for text in _pinned_texts():
        again = parse(text)
        assert to_text(again) == text
        assert len(list(_post_order([again]))) == _structural_classes(again)


# --- parse against a reference that parses every token ------------------------

def _reference_path(text):
    """Every token parsed: the whole text lexed, then the loop run with a
    spend cap below 0, so that it looks up no group."""
    tokens = list(formula._lex(text, {}, 0))

    def from_start(offset):
        assert offset == 0      # no group skipped, so no lexing resumed past one
        return iter(tokens)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formula, "_SPEND", -1)
        return formula._shunt(text, from_start)


def assert_paths_agree(text):
    """`parse` and the reference give equal formulas with equal DAG node
    counts and printed text, or the same error at the same position: no
    group skipped hides an error, and a lex error still comes first."""
    try:
        expected = _reference_path(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.line, info.value.column) == \
            (str(exc), exc.line, exc.column)
        return
    got = parse(text)
    assert got == expected
    assert len(list(_post_order([got]))) == len(list(_post_order([expected])))
    assert to_text(got) == to_text(expected)


def test_paths_agree_on_pinned_texts():
    for text in _pinned_texts():
        assert_paths_agree(text)


@pytest.mark.parametrize("text", PARSE_ERRORS + [case[0] for case in ERROR_POSITIONS])
def test_paths_agree_on_error_cases(text):
    assert_paths_agree(text)


SPACES = ["", " ", "\n", "\t", "\r\n", "  \n "]
# Groups of these long names share their first bytes and their length.
LEAVES = ["a", "b", "v1", "0", "1", "c(1/2)", "c( 1 / 2 )", "c(\n1\t/3 )", "c(2/3)",
          "a_name_long_enough_1", "a_name_long_enough_2"]
# Characters no token starts with, lexemes that are not tokens, and tokens out of place.
JUNK = ["#", "2", "c(3/2)", "c(1/2", " ", "(", ")", "/\\", "~", "-", "v w", "c(١/2)"]


@st.composite
def repeating_texts(draw):
    """A formula text whose parts are built from earlier parts, the latest
    most often, so that groups repeat, spaced at random; sometimes with junk
    put in or a character cut."""
    spaced = lambda text: draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(SPACES))
    parts = draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 12))):
        recent = st.sampled_from(parts[-3:])
        if draw(st.integers(0, 4)) == 0:
            parts.append(spaced(draw(st.sampled_from(PREFIX[:2]))) + draw(recent))
        else:
            op = spaced(draw(st.sampled_from(BINARY)))
            parts.append(spaced("(" + draw(recent) + op + draw(recent) + ")"))
    text = parts[-1]
    if draw(st.booleans()):
        text += draw(st.sampled_from(BINARY)) + draw(st.sampled_from(parts))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.integers(0, 4))
    if edit == 0:
        text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    elif edit == 1:
        text = text[:at] + text[at + 1:]
    return text


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(repeating_texts())
def test_paths_agree_on_random_texts(text):
    assert_paths_agree(text)


# --- adversarial nesting: no recursion, and work that follows the DAG ---------

def test_parse_left_nested_chain_of_distinct_groups():
    f = parse("(" * 5000 + "a" + "".join(f" /\\ v{i})" for i in range(5000)))
    nodes = list(_post_order([f]))
    assert len(nodes) == 1 + 5000 + 5000        # a, v0..v4999 and 5000 conjunctions
    assert sum(type(node) is App for node in nodes) == 5000


def test_parse_parentheses_100000_deep():
    assert parse("(" * 100_000 + "v" + ")" * 100_000) == Var("v")
    with pytest.raises(ParseError) as info:
        parse("(" * 100_000 + "v" + ")" * 99_999)
    assert (info.value.line, info.value.column) == (1, 200_001)


def test_group_path_stops_looking_up_past_its_byte_cap(monkeypatch):
    # After a 5000-deep chain, whose groups share their first bytes, every
    # distinct group opening with as many parentheses tries each of the
    # chain's lengths: without the cap that work grows with the product.
    chain = "(" * 5000 + "a" + "".join(f" /\\ v{i})" for i in range(5000))
    text = " \\/ ".join([chain] + ["(" * 40 + f"b{j}" + ")" * 40 for j in range(3000)])
    f, g = to_text(parse(text)), to_text(parse(chain))
    assert len(list(_post_order([parse(text)]))) == 10_001 + 3000 + 3000
    assert f == to_text(_reference_path(text))
    # Past the cap no group is looked up: a repeat of the chain is parsed
    # token by token, where under the cap its text is skipped.
    real_lex, starts = formula._lex, []

    def lex(text, constants, pos):
        starts.append(pos)
        return real_lex(text, constants, pos)

    monkeypatch.setattr(formula, "_lex", lex)
    assert to_text(parse(f"{chain} \\/ {chain}")) == f"({g} \\/ {g})"
    assert starts == [0, 2 * len(chain) + 4]   # on past the second chain
    starts.clear()
    assert to_text(parse(f"{text} \\/ {chain}")) == f"({f} \\/ {g})"
    assert starts == [0]


def test_group_path_stops_indexing_after_a_run_of_misses(monkeypatch):
    # Text that repeats no group stops paying for lookups: once `_MISSES`
    # lookups in a row have found nothing, a repeated group is parsed token
    # by token; a hit before then starts the count again.
    real_lex, starts = formula._lex, []

    def lex(text, constants, pos):
        starts.append(pos)
        return real_lex(text, constants, pos)

    monkeypatch.setattr(formula, "_lex", lex)
    monkeypatch.setattr(formula, "_MISSES", 3)
    group = "(a \\/ b)"
    for distinct, skipped in ((2, True), (3, False)):
        parts = [f"(x{i} \\/ y{i})" for i in range(distinct)]
        text = " /\\ ".join([group, *parts, group, *parts, group])
        starts.clear()
        parsed, resumed = parse(text), starts[1:]
        assert to_text(parsed) == to_text(_reference_path(text))
        # Lexing resumes past each group skipped: none once the run is long.
        assert (resumed[:1] == [text.index(group, 1) + len(group)]) == skipped
        assert bool(resumed) == skipped


@pytest.mark.parametrize("head, tail, message", [
    ("", "/\\", "expected a formula, found 'end of input'"),
    (")", "", "expected a formula, found ')'"),
    ("", "#", "unexpected character '#'"),
])
def test_malformed_payoff_text_costs_what_a_valid_one_does(head, tail, message):
    # A ~100 KB vi_lm payoff text, malformed at its end or its start: the
    # error is found in one pass, not by parsing the whole text again from
    # a list of every token.
    from mvgames.represent import represent_rational_lm
    from conftest import _fill_payoffs, PAYOFF_POOL
    rng = random.Random(5)
    game = _fill_payoffs(rng, (4, 4), rng.sample(PAYOFF_POOL, 5), 2)
    bad = head + to_text(represent_rational_lm(game).target.payoff_formulas[0]) + tail
    assert 90_000 < len(bad) < 110_000
    with pytest.raises(ParseError) as expected:
        _reference_path(bad)
    column = 1 if head else len(bad) + (tail != "#")
    assert (str(expected.value), expected.value.line, expected.value.column) == \
        (f"{message} (line 1, column {column})", 1, column)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (str(info.value), info.value.line, info.value.column) == \
        (str(expected.value), 1, column)
    assert peak < 5 * len(bad)


def test_parse_error_relexes_from_its_offset(monkeypatch):
    # Every token before a parse error was lexed or skipped in a group that
    # lexed cleanly, so the check for a later lex error starts at the error.
    from mvgames.represent import represent_rational_lm
    from conftest import _fill_payoffs, PAYOFF_POOL
    rng = random.Random(5)
    game = _fill_payoffs(rng, (4, 4), rng.sample(PAYOFF_POOL, 5), 2)
    bad = to_text(represent_rational_lm(game).target.payoff_formulas[0]) + " /\\"
    assert 90_000 < len(bad) < 110_000
    starts = []
    lex = formula._lex

    def spy(text, constants, pos):
        starts.append(pos)
        return lex(text, constants, pos)

    monkeypatch.setattr(formula, "_lex", spy)
    with pytest.raises(ParseError) as info:
        parse(bad)
    assert str(info.value) == \
        f"expected a formula, found 'end of input' (line 1, column {len(bad) + 1})"
    assert starts[0] == 0 and starts[-1] == len(bad)
    assert starts.count(0) == 1
    assert info.value.offset == len(bad)


def test_parse_doubling_text_is_15_nodes():
    text = "v"
    for _ in range(14):
        text = f"({text} \\/ {text})"
    assert text.count("v") == 2 ** 14
    f = parse(text)
    nodes = list(_post_order([f]))
    assert len(nodes) == 15 and sum(type(node) is App for node in nodes) == 14
    assert evaluate(f, STD_QL, {"v": Fraction(1, 3)}) == Fraction(1, 3)
