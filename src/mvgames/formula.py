"""Propositional formulas: AST, text grammar, and evaluation.

Grammar tokens: `/\\` (and), `\\/` (or), `->` (imp), `=>` (imp_pi),
`~` (neg), `&` (strong conjunction), `+` (oplus), `-` (ominus, binary only),
`*` (odot), `D` (delta, prefix), `c(m/n)` rational constants with `0` and `1`
as aliases for the lattice bounds.  Precedence, loosest to tightest:
`->`,`=>` (right-associative) < `\\/`,`+`,`-` (left) < `/\\`,`&`,`*` (left)
< `~`,`D` (prefix).  Whitespace, newlines included, may come between tokens
and inside `c(m/n)`; a `ParseError` gives the 1-based line and column.  The
printer emits a fully parenthesized canonical form; printing then parsing
is the identity, once each `Subst` is carried out.

Formulas are immutable and may share subterms; `parse` shares every
repeated one, and parses each repeated parenthesized group once (the
printer writes a shared subterm out where it occurs): a group whose text it
has parsed before is that node, its text skipped unread.  A skipped group
held no error, so an error is raised where a parse of every token raises
it, a lex error anywhere before a parse error.  Every traversal -- the
printer, free variables, substitution and compilation -- walks the DAG
once per distinct node, iteratively, so neither sharing nor depth is a
problem.

Evaluation compiles formulas once per algebra into a `Program`: nodes are
hash-consed by structure (a formula built without sharing gains it),
negation is lowered to `x -> 0` where the algebra has no native one,
constants and connectives are checked against the algebra, and constant
subterms are folded.  The program then runs for many assignments.  Folding
happens inside the program only: formula objects, and so the printed text,
never change, and an error the formula would raise is never folded away.
An explicit substitution `Subst(body, bindings)` (Abadi et al., 1991) stands
for its literal copy.  A program reads a call of the logical game's payoff
`Table`, each player's block bound to the row's own variables or to the
constants of one of its strategies, from the table, filled at every profile
on its first read: it folds to a row's value or gathers over the rows.  Any
other `Subst`, and every `Subst` of a program compiled without a table,
compiles as its literal copy, built by `substitute`.  The printer prints the
body under its bindings' texts.

A program whose live code does not divide (no `imp_pi`) runs on integers,
each slot a numerator over a power D^e of one D, e fixed by the program.
The Lukasiewicz connectives are piecewise linear with integer coefficients
(McNaughton, 1951) and the Godel, Boolean and delta ones return an argument,
0 or 1, so on values over D^e each returns a value over D^e: its integer
twin (`algebra.INTEGER_TWINS`) made for D^e computes it exactly, the lower
argument lifted to D^e.  `odot` multiplies numerators and adds the powers,
as fraction-free elimination carries its denominators (Bareiss, 1968).  One
runner, `Program.over_rows`, runs a program over a table's rows: on one D
once over whole columns, each an int with a lane per row (`algebra.Lanes`);
else once per row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import lcm, prod
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .algebra import ARITY, INTEGER_TWINS, ONE, ZERO, Algebra, Lanes, as_truth_value
from .errors import InputError, SemanticError


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    value: Fraction


@dataclass(frozen=True, slots=True)
class App:
    op: str
    args: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Subst:
    body: "Formula"
    bindings: tuple[tuple[str, "Formula"], ...]     # (name, formula) pairs


Formula = Union[Var, Const, App, Subst]


def app(op: str, *args: Formula) -> App:
    if op not in ARITY:
        raise SemanticError(f"unknown connective {op!r}")
    if len(args) != ARITY[op]:
        raise SemanticError(f"{op} expects {ARITY[op]} arguments, got {len(args)}")
    return App(op, tuple(args))


def conj_all(parts: Iterable[Formula]) -> Formula:
    """Left fold of /\\; the empty conjunction is the constant 1."""
    return _fold("and", parts, Const(ONE))


def disj_all(parts: Iterable[Formula]) -> Formula:
    """Left fold of \\/; the empty disjunction is the constant 0."""
    return _fold("or", parts, Const(ZERO))


def oplus_all(parts: Iterable[Formula]) -> Formula:
    """Left fold of +; the empty sum is the constant 0."""
    return _fold("oplus", parts, Const(ZERO))


def odot_all(parts: Iterable[Formula]) -> Formula:
    """Left fold of *; the empty product is the constant 1."""
    return _fold("odot", parts, Const(ONE))


def _fold(op: str, parts, empty: Formula) -> Formula:
    parts = list(parts)
    if not parts:
        return empty
    out = parts[0]
    for p in parts[1:]:
        out = App(op, (out, p))
    return out


# --- parsing -----------------------------------------------------------------

class ParseError(InputError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# Each match is space, tab, CR or LF, then a token, the end of the text or a
# character that starts no token (`bad`): nothing skipped, no space read twice.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:
        (?P<const>c\([ \t\r\n]*-?[0-9]+[ \t\r\n]*(?:/[ \t\r\n]*[0-9]+[ \t\r\n]*)?\))
      | (?P<op>/\\|\\/|->|=>|[~&+\-*()]|D(?![A-Za-z0-9_]))
      | (?P<var>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>[0-9]+)
      | (?P<end>\Z)
      | (?P<bad>[^ \t\r\n]))
    """,
    re.VERBOSE,
)

# Each token kind by its group's index (group 0 is the whole match).
_KINDS = (None, *sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))

_BINARY_TOKENS = {
    "/\\": "and", "\\/": "or", "->": "imp", "=>": "imp_pi",
    "&": "and_strong", "+": "oplus", "-": "ominus", "*": "odot",
}


def _error(message: str, text: str, offset: int) -> ParseError:
    """The error at character `offset` of `text`, with its line and column;
    the offset is kept as `offset`."""
    error = ParseError(message, text.count("\n", 0, offset) + 1,
                       offset - text.rfind("\n", 0, offset))
    error.offset = offset
    return error


def _lex(text: str, constants: dict, pos: int) -> Iterator[tuple]:
    """(kind, lexeme, value, offset) per token from `pos` to the end token,
    kind "op", "var", "const" or "end".  Each distinct constant lexeme is
    read and checked once, at its first occurrence: `constants` maps each
    one read to its value."""
    for m in _TOKEN_RE.finditer(text, pos):
        group = m.lastindex     # read by index: by name costs a third more
        kind, lexeme, offset, value = _KINDS[group], m[group], m.start(group), None
        if kind == "const":
            value = constants.get(lexeme)
            if value is None:
                try:
                    value = constants[lexeme] = as_truth_value(
                        Fraction(re.sub(r"[ \t\r\n]", "", lexeme[2:-1])))
                except (SemanticError, ValueError, ZeroDivisionError):
                    raise _error(f"constant {lexeme} not a rational in [0,1]",
                                 text, offset) from None
        elif kind == "num":
            if lexeme not in ("0", "1"):
                raise _error(f"bare number {lexeme}: write c({lexeme}/n)", text, offset)
            kind, value = "const", ZERO if lexeme == "0" else ONE
        elif kind == "bad":
            raise _error(f"unexpected character {lexeme!r}", text, offset)
        yield kind, lexeme, value, offset
        if kind == "end":
            return


_PRECEDENCE = {"->": 0, "=>": 0, "\\/": 1, "+": 1, "-": 1, "/\\": 2, "&": 2, "*": 2}
_PREFIX = {"~": "neg", "D": "delta"}
_KEY = 32       # a group's first bytes that name its bucket of parsed groups
_SPEND = 16     # bytes group lookups may compare and copy, per byte of text
_MISSES = 1024  # lookups in a row with no hit, after which groups are no longer indexed


def parse(text: str) -> Formula:
    """Operator-precedence parse over explicit stacks: nesting depth is
    bounded by memory, not by the interpreter's recursion limit.  Equal
    subterms are one object (hash-consing; Filliatre and Conchon, 2006), so
    a formula printed as a tree reloads as the DAG it was printed from.

    It lexes as it reads, and a group whose text it has parsed before is
    that node, its text skipped (a memo on content, where packrat parsing
    has one on position; Ford, 2002).  A skipped group held no error, so an
    error is raised where a parse of every token raises it.  Every token
    before a parse error was lexed, or skipped in a group that lexed
    cleanly, so the text is lexed once more from the error on: a lex error
    anywhere comes first."""
    lex = partial(_lex, text, {})
    try:
        return _shunt(text, lex)
    except ParseError as exc:
        for _ in lex(exc.offset):
            pass
        raise


def _shunt(text: str, lex) -> Formula:
    """The operator-precedence loop over the tokens `lex` yields from an
    offset on.  A group parsed before is read as its node, and the loop goes
    on over `lex` past its text, until `_SPEND` bytes per byte of text have
    been compared and copied, or `_MISSES` lookups in a row have found
    nothing (text that repeats no group): from then on it parses every
    token.  `consed`
    maps (kind, lexeme) or (token, *argument ids) to the one node for it;
    holding every node keeps ids unique."""
    consed: dict[tuple, Formula] = {}
    operands: list[Formula] = []
    pending: list[str] = []     # "(", prefix and binary operator tokens
    opened: list[int] = []      # the offset of each open "("
    # The groups parsed.  `nodes` maps a group's start offset to its node
    # until its text is a key of `parsed` (text -> node).  `closed` holds the
    # start and end offsets of the groups not yet in `heads`, which maps
    # their first _KEY bytes to {length: start, or None once in `parsed`}.
    # Both hold only ints, so the collector does not walk them.
    nodes: dict[int, Formula] = {}
    parsed: dict[str, Formula] = {}
    closed: list[int] = []
    heads: dict[str, dict[int, Optional[int]]] = {}
    budget, misses = _SPEND * len(text), 0
    expect_operand = True

    def reduce():
        tok = pending.pop()
        if tok in _PREFIX:
            key, args = (tok, id(operands[-1])), (operands[-1],)
        else:
            right = operands.pop()
            key, args = (tok, id(operands[-1]), id(right)), (operands[-1], right)
        node = consed.get(key)
        if node is None:
            node = consed[key] = App(_PREFIX.get(tok) or _BINARY_TOKENS[tok], args)
        operands[-1] = node

    def find(offset):
        """(node, length) of the group parsed before whose text starts at
        `offset`, or None.  Each group copied or compared spends its length."""
        nonlocal budget, misses
        spans = iter(closed)
        for start, end in zip(spans, spans):
            heads.setdefault(text[start:start + _KEY], {})[end - start] = start
        closed.clear()
        sizes = heads.get(text[offset:offset + _KEY], {})
        budget -= len(sizes)        # a byte compared per length tried
        for size, start in reversed(sizes.items()):
            if budget < 0:
                break
            if text.startswith(")", offset + size - 1):
                budget -= size if start is None else 2 * size
                if start is not None:
                    parsed[text[start:start + size]] = nodes.pop(start)
                    sizes[size] = None
                node = parsed.get(text[offset:offset + size])
                if node is not None:
                    misses = 0
                    return node, size
        misses += 1
        if misses == _MISSES:
            budget = -1
        return None

    tokens = lex(0)
    while True:
        for kind, lexeme, value, offset in tokens:
            if expect_operand:
                if kind == "var" or kind == "const":
                    node = consed.get((kind, lexeme))
                    if node is None:
                        node = consed[kind, lexeme] = \
                            Var(lexeme) if kind == "var" else Const(value)
                    operands.append(node)
                    expect_operand = False
                elif lexeme == "(":
                    found = budget >= 0 and (closed or heads) and find(offset)
                    if found:   # parsed before: its node, then on past its text
                        node, size = found
                        operands.append(node)
                        expect_operand = False
                        tokens = lex(offset + size)
                        break
                    pending.append(lexeme)
                    opened.append(offset)
                elif lexeme == "~" or lexeme == "D":
                    pending.append(lexeme)
                else:
                    raise _error(f"expected a formula, found {lexeme or 'end of input'!r}",
                                 text, offset)
                continue
            prec = _PRECEDENCE.get(lexeme)
            if prec is not None:
                # Prefix operators bind tightest; -> and => (level 0) associate
                # to the right, every other level to the left.
                while pending and pending[-1] != "(" and (
                        pending[-1] in _PREFIX or _PRECEDENCE[pending[-1]] > prec
                        or _PRECEDENCE[pending[-1]] == prec > 0):
                    reduce()
                pending.append(lexeme)
                expect_operand = True
                continue
            while pending and pending[-1] != "(":
                reduce()
            if opened:
                if lexeme != ")":
                    raise _error("expected ')'", text, offset)
                pending.pop()
                start = opened.pop()
                if budget >= 0:
                    nodes[start] = operands[-1]
                    closed.append(start)
                    closed.append(offset + 1)
            elif kind != "end":
                raise _error(f"trailing input {lexeme!r}", text, offset)
        else:
            return operands[0]


# --- traversal ---------------------------------------------------------------

def _post_order(roots: Iterable[Formula]) -> Iterator[Formula]:
    """Each distinct node (by identity) reachable from `roots`, after its
    arguments, arguments left to right.  Iterative, so depth is unbounded;
    on the stack, a 1-tuple (node,) marks a node whose arguments are done."""
    seen: set[int] = set()
    mark = seen.add
    stack: list = list(roots)[::-1]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if type(node) is tuple:
            yield node[0]
            continue
        key = id(node)
        if key in seen:
            continue
        mark(key)
        if type(node) is App:
            push((node,))
            args = node.args
            if len(args) == 2:
                push(args[1])
            push(args[0])
        else:
            yield node


# --- printing ----------------------------------------------------------------

_OP_TOKEN = {name: tok for tok, name in _BINARY_TOKENS.items()}


def to_text(f: Formula) -> str:
    """Fully parenthesized canonical form; parse(to_text(f)) == substitute(f, {})."""
    return _text(f, {})


def _text(f: Formula, env: dict[str, str]) -> str:
    """The text of `f` with each variable printed as env.get(name, name); a
    `Subst` prints its body under its bindings' texts, never its literal copy."""
    text: dict[int, str] = {}
    for node in _post_order([f]):
        if type(node) is Var:
            out = env.get(node.name, node.name)
        elif type(node) is Const:
            if node.value == ZERO:
                out = "0"
            elif node.value == ONE:
                out = "1"
            else:
                out = f"c({node.value})"
        elif type(node) is Subst:
            out = _text(node.body, env | {name: _text(binding, env)
                                          for name, binding in node.bindings})
        elif node.op == "neg":
            out = "~" + text[id(node.args[0])]
        elif node.op == "delta":
            out = "D " + text[id(node.args[0])]
        else:
            left, right = node.args
            out = f"({text[id(left)]} {_OP_TOKEN[node.op]} {text[id(right)]})"
        text[id(node)] = out
    return text[id(f)]


# --- semantics ---------------------------------------------------------------

# Identities that hold in every catalog algebra: x op a = a (absorbing a)
# and x op u = x (unit u), for either argument order.  Values in lowest
# terms are compared on their numerators, which costs no `Fraction.__eq__`.
_ABSORBING = {"and": 0, "or": 1, "and_strong": 0, "oplus": 1, "odot": 0}
_UNIT = {"and": 1, "or": 0, "and_strong": 1, "oplus": 0, "odot": 1}


def _fold_identity(op, a0, a1, x, y, one):
    """The node that binary `op` applied to nodes a0, a1 with values x, y
    (None where not constant, exactly one constant) reduces to, or None;
    `one` is the node of ONE."""
    if op == "imp":
        return one if (x is not None and x.numerator == 0) or \
            (y is not None and y.numerator == y.denominator) else None
    if op not in _UNIT:
        return None
    value, constant, other = (x, a0, a1) if x is not None else (y, a1, a0)
    n, d = value.numerator, value.denominator
    if n == _ABSORBING[op] * d:
        return constant
    if n == _UNIT[op] * d:
        return other
    return None


class Program:
    """Formulas compiled for one algebra; `run` evaluates them all at once.

    Compilation walks the DAG once.  Structurally equal subterms become one
    slot; ~ becomes x -> 0 where the algebra lacks a native negation; every
    constant is checked against the domain and every connective against the
    signature; subterms with constant arguments are folded, as are the
    identities x/\\0=0, x/\\1=x, x\\/0=x, x\\/1=1, x&0=0, x&1=x, x+0=x,
    x+1=1, x*0=0, x*1=x, 0->x=1 and x->1=1.  Subterms folded away still
    have their variables checked by `run`, so folding hides no error.  A
    `Subst` of one of `table`'s formulas (a logical game's payoff table)
    is a call where each block of the table's names is bound to the row's
    own variables (left unbound, or bound to its own names, in the table's
    algebra) or to the constants of one of its strategies t: it folds to
    the table's row where every block is constant, and otherwise keeps a
    gather per constant block, which only `over_rows` reads: `run` refuses
    a program that holds such a call.  Any other `Subst` compiles as its
    literal copy.  A name in `fixed` compiles as its value, checked as a
    constant is.

    Unless `imp_pi` is live, `run` scales constants and assignment to
    numerators over a common denominator D and runs on integers: variables
    and constants over D, `odot` over D to the sum of its arguments'
    exponents, any other op over the larger one; each root comes back as
    `Fraction(n, D^e)`.  With no live `odot` every e is 1, and only then
    is `_scale` that least D, and can `over_rows` run the code once over
    packed columns (`_columns`); else it runs `_execute` once per row.  The
    kernel's shape (each e, each op's kind, the code by kind) is built on
    the first run; a run at a new D binds it, scaling the constants and
    making one op per kind, and only the last binding is kept.
    """

    def __init__(self, roots: Sequence[Formula], alg: Algebra, table: Optional[Table] = None,
                 fixed: Optional[Mapping[str, Fraction]] = None):
        self.algebra = alg
        ops, fixed = alg.ops, fixed or {}
        known: list = []        # per compiled node: its value if constant, else None
        # per node: None, a variable name, or its instruction: (fn, its own
        # index, argument indices), or a call (table, its own index, (),
        # formula index, gathers)
        shape: list = []
        # Hash-consing: a variable's name, a constant's (numerator,
        # denominator) and a connective's (op, *argument nodes) map to the
        # node they compiled to, folded or not.
        consed: dict = {}
        ref: dict = {}          # id(formula node) -> its node
        copies: list = []       # the literal copies compiled, held so their ids stay unique
        # id(payoff formula) -> its index in `table`
        payoffs = {} if table is None else {id(f): i for i, f in enumerate(table.formulas)}
        # id(bindings) -> None where a call does not fit, its row where
        # constants bind every block, else its gathers
        looked: dict = {}

        def new(value, what) -> int:
            known.append(value)
            shape.append(what)
            return len(shape) - 1

        def constant(value) -> int:
            key = (value.numerator, value.denominator)
            index = consed.get(key)
            if index is None:
                index = consed[key] = new(value, None)
            return index

        def literal(value) -> int:
            """A constant of the formulas, checked against the domain."""
            if not alg.contains(value):
                raise SemanticError(f"constant {value} outside the domain of {alg.id}")
            return constant(value)

        def variable(name) -> int:
            index = consed.get(name)
            if index is None:
                index = consed[name] = literal(fixed[name]) if name in fixed else new(None, name)
            return index

        def fits(bound: dict):
            """What `looked` keeps for a call with these bindings; it makes no slot."""
            try:
                table.program
            except SemanticError:   # the copy raises what the copy raises
                return None
            names, own, plugged, gathers, row = table.names, alg is table.algebra, 0, [], 0
            for start, end, index, stride in table.blocks:
                mine = names[start:end]
                if own and bound.keys().isdisjoint(mine) and fixed.keys().isdisjoint(mine):
                    continue        # the row's own variables
                block, unfixed = [], 0      # unfixed: names left as the row's own
                for name in mine:
                    v = bound.get(name)
                    if type(v) is Const:
                        block.append(v.value)
                        continue
                    if v is not None and type(v) is not Var:
                        return None
                    value = fixed.get(name if v is None else v.name)
                    if value is None:
                        if not own or v is not None and v.name != name:
                            return None
                        unfixed += 1
                    block.append(value)
                if unfixed == len(mine):
                    continue
                t = None if unfixed else index.get(tuple(pairs(block)))
                if t is None:
                    return None
                plugged += len(mine)
                gathers.append((stride, len(index), t))
                row += t * stride
            return row if plugged == len(names) else gathers

        def call(node: Subst) -> Optional[int]:
            """The node of a call of `table`, or None where it does not fit."""
            i = payoffs.get(id(node.body))
            if i is None:
                return None
            key = id(node.bindings)
            if key not in looked:
                looked[key] = fits(dict(node.bindings))
            how = looked[key]
            if how is None:
                return None
            if type(how) is int:
                return constant(table.rows[i][how])
            return new(None, (table, len(shape), (), i, how))

        def walk(nodes) -> None:
            """Compile `nodes` into `ref`: post-order, each node once,
            arguments left to right.  A connective goes back on the stack under
            the arguments not compiled yet, and `ref` is the seen map, since a
            node pushed twice is popped the second time only after its first
            copy has compiled.  A `Subst` calls `table` if it can, and else
            compiles its literal copy, which holds no `Subst`."""
            stack = list(nodes)[::-1]
            pop, push, get = stack.pop, stack.append, ref.get
            while stack:
                f = pop()
                if (fid := id(f)) in ref:
                    continue
                kind = type(f)
                if kind is not App:
                    if kind is Var:
                        ref[fid] = variable(f.name)
                    elif kind is Const:
                        ref[fid] = literal(f.value)
                    else:
                        index = call(f)
                        if index is None:
                            copies.append(substitute(f, {}))
                            walk(copies[-1:])
                            index = ref[id(copies[-1])]
                        ref[fid] = index
                    continue
                fargs = f.args
                a0, a1 = get(id(fargs[0])), get(id(fargs[-1]))
                if a0 is None or a1 is None:
                    push(f)
                    if a1 is None:
                        push(fargs[-1])
                    if a0 is None:
                        push(fargs[0])
                    continue
                if len(fargs) == 1:
                    a1 = None
                op, fn = f.op, ops.get(f.op)
                if fn is None:
                    if op != "neg" or "imp" not in ops:
                        raise SemanticError(f"connective {op!r} not in signature of {alg.id}")
                    op, fn, a1 = "imp", ops["imp"], constant(ZERO)
                key = (op, a0) if a1 is None else (op, a0, a1)
                index = consed.get(key)
                if index is None:
                    x = known[a0]
                    y = x if a1 is None else known[a1]
                    if x is not None and y is not None:
                        index = constant(fn(x) if a1 is None else fn(x, y))
                    elif x is not None or y is not None:
                        index = _fold_identity(op, a0, a1, x, y, one)
                    if index is None:
                        index = len(shape)
                        known.append(None)
                        shape.append((fn, index, (a0,) if a1 is None else (a0, a1)))
                    consed[key] = index
                ref[fid] = index

        one = constant(ONE)
        walk(roots)
        roots = [ref[id(f)] for f in roots]
        live = [False] * len(shape)
        for r in roots:
            live[r] = True
        # (instruction, slot) flattened, last instruction first, for each
        # slot that no later instruction or root reads
        dying: list = []
        for what in reversed(shape):
            if type(what) is tuple and live[what[1]]:
                for a in what[2]:
                    if not live[a]:
                        live[a] = True
                        dying.append(what[1])
                        dying.append(a)
        self._slots = known         # constants in place; run fills the rest
        self._variables = [(what, index) for index, what in enumerate(shape)
                           if type(what) is str]
        code = [what for what in shape if type(what) is tuple and live[what[1]]]
        self._calls = [i for i in code if type(i[0]) is Table]
        self._code = [i for i in code if type(i[0]) is not Table]
        self._roots = roots
        # Every constant's denominator divides `_base`; None keeps the Fraction ops.
        self._product = ops.get("odot")
        fns = {i[0] for i in self._code}
        self._base = lcm(*(v.denominator for v in known if v is not None)) \
            if all(fn in INTEGER_TWINS or fn is self._product for fn in fns) else None
        self._scale = None if self._product in fns else self._base
        self._dying = None if self._scale is None else dying   # kept where `_columns` may run
        self._kernel = None     # the last (D, ops, constants, code, root exponents) bound

    @cached_property
    def _shape(self) -> tuple:
        """The kernel's shape, the same at every D: each distinct op kind
        (fn, arity, e, e - x, e - y), for an op over D^e whose arguments lie
        over D^x and D^y; the code as (kind index, out, a, b); each root's e."""
        power, kinds, code = [1] * len(self._slots), {}, []
        for fn, out, args in self._code:
            a, b = args[0], args[-1]
            x, y = power[a], power[b]
            e = power[out] = x + y if fn is self._product else x if x > y else y
            code.append((kinds.setdefault((fn, len(args), e, e - x, e - y), len(kinds)),
                         out, a, b))
        return list(kinds), code, [power[r] for r in self._roots]

    def _execute(self, scale, inputs: Mapping[int, object]) -> list:
        """Root values on `inputs` (slot -> value): numerators over powers of
        `scale`, or Fractions for None.  A new `scale` binds the shape: it
        scales the constants and makes one op per kind."""
        kernel = self._kernel
        if kernel is None or kernel[0] != scale:
            kinds, code, exponents = self._shape
            slots = self._slots
            if scale is not None:
                slots = [v if v is None else v.numerator * (scale // v.denominator)
                         for v in slots]
            kernel = self._kernel = (scale, [self._op(scale, *kind) for kind in kinds],
                                     slots, code, exponents)
        _, ops, values, code, _ = kernel
        values = list(values)
        for index, value in inputs.items():
            values[index] = value
        for k, out, a, b in code:
            values[out] = ops[k](values[a], values[b])
        return [values[r] for r in self._roots]

    def _op(self, scale, fn, arity, e, dx, dy):
        """A binary op for the kernel of D = `scale`: `fn` for None, else on
        numerators over D^e, where `odot` multiplies and any other op runs
        its twin for D^e on its arguments times D^dx and D^dy."""
        if scale is not None:
            if fn is self._product:
                return mul
            twin, x, y = INTEGER_TWINS[fn](scale ** e), scale ** dx, scale ** dy
            fn = twin if x == y == 1 else lambda a, b: twin(a * x, b * y)
        return fn if arity == 2 else lambda a, _: fn(a)

    def _columns(self, lanes: Lanes, inputs: Mapping[int, int]) -> list[int]:
        """Each root's column, numerators over `lanes.D` packed in `lanes`, from
        one pass that runs each instruction once over whole columns as its
        packed twin (columnar execution; Boncz et al., MonetDB/X100, 2005).
        `inputs` maps the slot of each variable or call read to its column."""
        D, ones, twins, dying = lanes.D, lanes.ones, lanes.twins, self._dying
        values = [v if v is None else ones * (v.numerator * (D // v.denominator))
                  for v in self._slots]
        for index, column in inputs.items():
            values[index] = column
        k = len(dying) - 2
        for fn, out, args in self._code:
            values[out] = twins[fn](values[args[0]], values[args[-1]])
            while k >= 0 and dying[k] <= out:   # a column dies after its last read
                values[dying[k + 1]] = None
                k -= 2
        return [values[r] for r in self._roots]

    def over_rows(self, table: Table) -> tuple[int, list[list[int]]]:
        """(S, each root's numerators over S at every row of `table`).  The
        inputs are columns over D, the lcm of `_base`, the strategies' and,
        if the program calls `table`, `table.scale`: a variable's block's values,
        each repeated `stride` times, or a call's formula, gathered for each
        (stride, count, t) it carries from row r + (t - s(r)) * stride, s(r)
        the block's strategy at r.  On one D, `_columns` runs once and S is
        D; else `_execute` runs per row, at D or, where `_base` is None, on
        Fractions, and S is the least scale of inputs and values.  A name
        outside `table.names` raises what `run` raises."""
        if any(call[0] is not table for call in self._calls):
            raise RuntimeError("a program runs over the rows of the table it calls only")
        slots = dict(self._variables)       # each variable not yet given its column
        given = lcm(*(x.denominator for block in table.strategies for t in block for x in t),
                    table.scale if self._calls else 1)
        scale, size = lcm(self._base or 1, given), prod(map(len, table.strategies))
        lanes, packed, inputs = Lanes(scale, size), {}, {}
        for block, (start, end, _, stride) in zip(table.strategies, table.blocks):
            for p, name in enumerate(table.names[start:end]):
                if name in slots:
                    column = []
                    for t in block:
                        column += [t[p].numerator * (scale // t[p].denominator)] * stride
                    inputs[slots.pop(name)] = lanes.pack(column * (size // len(column)))
        if slots:
            raise SemanticError(f"unknown variable {next(iter(slots))!r}")
        for _, out, _, i, gathers in self._calls:
            column = packed.get(i)
            if column is None:
                column = packed[i] = lanes.pack(table.numerators[i]) * (scale // table.scale)
            for stride, count, t in gathers:
                column = lanes.gather(column, stride, count, t)
            inputs[out] = column
        if self._scale is not None:
            return scale, [lanes.unpack(column) for column in self._columns(lanes, inputs)]
        kernel = None if self._base is None else scale
        columns = [lanes.unpack(column) for column in inputs.values()]
        if kernel is None:
            columns = [list(map({v: Fraction(v, scale) for v in set(column)}.__getitem__, column))
                       for column in columns]
        runs = [self._execute(kernel, dict(zip(inputs, row))) for row in zip(*columns)]
        columns = list(zip(*runs))
        exact = [{v: Fraction(v, kernel ** e if kernel else 1) for v in set(column)}
                 for column, e in zip(columns, self._kernel[4])]
        scale = lcm(given, *(v.denominator for values in exact for v in values.values()))
        return scale, [list(map({v: x.numerator * (scale // x.denominator)
                                 for v, x in values.items()}.__getitem__, column))
                       for column, values in zip(columns, exact)]

    def run(self, assignment: Mapping[str, Fraction]) -> list[Fraction]:
        """Value of each root under the assignment, which must give every
        variable of the formulas, folded away or not, a value in the domain.
        A call of a payoff table has a value at the table's rows only, read
        by `over_rows`: a program that holds one does not run."""
        if self._calls:
            raise RuntimeError("a program that calls a payoff table runs over its rows only")
        alg = self.algebra
        given = {}
        for name, index in self._variables:
            try:
                value = assignment[name]
            except KeyError:
                raise SemanticError(f"unknown variable {name!r}") from None
            if not alg.contains(value):
                raise SemanticError(
                    f"assignment {name} = {value} outside the domain of {alg.id}")
            given[index] = value
        scale = None
        if self._base is not None:
            d, kernel = lcm(*(v.denominator for v in given.values())), self._kernel
            scale = kernel[0] if kernel and not kernel[0] % d else lcm(self._base, d)
            given = {index: v.numerator * (scale // v.denominator) for index, v in given.items()}
        values = self._execute(scale, given)
        return [Fraction(v, scale ** e if scale else 1) for v, e in zip(values, self._kernel[4])]


def pairs(values: Iterable[Fraction]) -> list[int]:
    """Each value's lowest-terms (numerator, denominator), flattened."""
    return [x for v in values for x in (v.numerator, v.denominator)]


class Table:
    """A logical game's payoff formulas' values at every strategy profile,
    kept by row and computed on the first read of `rows`, `numerators` or
    `scale`.  `names` lists the players' variables, block by block.
    `rows[i][r]` is formula i at row r of the product of the strategy sets,
    `numerators[i][r]` its numerator over `scale`, and `blocks` holds each
    strategy set's (start, end) in `names`, its `pairs` -> index map and its
    stride, so row r takes strategy (r // stride) % len(map), and the
    profile of strategies s_j is row sum(s_j * stride_j).  The table's own
    program fills it, and a program compiled over the table reads its calls
    here, each over every row in one `Program.over_rows`."""

    def __init__(self, formulas: Sequence[Formula], alg: Algebra,
                 variables: Sequence[Sequence[str]],
                 strategies: Sequence[Sequence[Sequence[Fraction]]]):
        self.formulas, self.algebra, self.strategies = tuple(formulas), alg, strategies
        self.names = tuple(name for block in variables for name in block)
        self.blocks, start, stride = [], 0, prod(map(len, strategies))
        for block, tuples in zip(variables, strategies):
            stride //= len(tuples)
            self.blocks.append((start, start + len(block),
                                {tuple(pairs(t)): s for s, t in enumerate(tuples)}, stride))
            start += len(block)

    @cached_property
    def program(self) -> Program:
        """All the formulas, compiled once; `LogicalGame` compiles them at
        construction.  A compile error is not kept: each read raises it."""
        return Program(self.formulas, self.algebra)

    rows = property(lambda self: self._filled[0])
    numerators = property(lambda self: self._filled[1])
    scale = property(lambda self: self._filled[2])

    @cached_property
    def _filled(self) -> tuple:
        """(rows, numerators, scale), from `program.over_rows`; a formula
        that does not compile raises what compiling them in order raises."""
        scale, numerators = self.program.over_rows(self)
        exact = {v: Fraction(v, scale) for column in numerators for v in set(column)}
        return [[exact[v] for v in column] for column in numerators], numerators, scale


def evaluate(f: Formula, alg: Algebra, assignment: Mapping[str, Fraction]) -> Fraction:
    """Compositional value of `f` in `alg` under the assignment.

    Constants must lie in the algebra's domain; connectives must be in the
    signature, except that ~ may be expanded to its definition x -> 0 when
    the algebra lacks a native negation (Godel algebras).  To evaluate the
    same formulas under many assignments, compile them once with `Program`.
    """
    return Program([f], alg).run(assignment)[0]


def free_variables(f: Formula) -> list[str]:
    """Variable names in first-occurrence, left-to-right order, read off the
    literal copy, in which every `Subst` is carried out."""
    return list(dict.fromkeys(node.name for node in _post_order([substitute(f, {})])
                              if type(node) is Var))


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution; variables outside the mapping are unchanged.
    Every `Subst` is carried out, so the result holds none."""
    image: dict[int, Formula] = {}
    for node in _post_order([f]):
        if type(node) is App:
            args = node.args
            first = image[id(args[0])]
            if len(args) == 1:
                result = node if first is args[0] else App(node.op, (first,))
            else:
                second = image[id(args[1])]
                result = node if first is args[0] and second is args[1] \
                    else App(node.op, (first, second))
        elif type(node) is Var:
            result = mapping.get(node.name, node)
        elif type(node) is Subst:
            result = substitute(substitute(node.body, dict(node.bindings)), mapping)
        else:
            result = node
        image[id(node)] = result
    return image[id(f)]

