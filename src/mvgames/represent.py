"""Compiling finite strategic games into logical games.

A representation consists of per-player bijections c_i from strategy ids to
value tuples and a strictly increasing payoff transform g with
f_i(s) = g(phi_i(c(s))) at every profile.  Affine g additionally preserves
mixed equilibria; a finite strictly increasing table suffices in general
because the payoff formulas only ever attain the anchor values.

The constructors mirror the standard recipes: binary-payoff games become
Boolean games over ceil(log2 |S_i|) variables per player, or basic games on
a Lukasiewicz chain, or anything in between given enough characterizable
elements.  Games with r rational payoff values compile into basic games over
the rational-constant Godel algebra with delta, over a finite Godel chain
with constants and delta, or over a prime Lukasiewicz chain (constant-free,
routing payoff values through the zeta gadget).  The fully general route
only assumes characteristic formulas for enough "strategy anchors" and truth
constants for enough "payoff anchors".

Payoff formulas come out as the literal disjunctive normal form over
characteristic conjuncts, without minimization.  Each characteristic
formula is built once per (variable, element), directly on its variable,
and each profile's conjunct is built once and shared by every player's
formula, so the DNF is compact as a DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional, Sequence, Union

from .algebra import Algebra, catalog_lookup, format_rational, parse_rational
from .chars import characteristic, is_prime, zeta
from .errors import InputError, SemanticError
# `payoff` stays a module attribute, where perfbench's tracer wraps it.
from .game import LogicalGame, StrategicGame, ValueTuple, json_array, payoff  # noqa: F401
from .formula import App, Const, conj_all, disj_all, pairs


@dataclass(frozen=True)
class Affine:
    """g(x) = slope * x + shift with slope > 0."""

    slope: Fraction
    shift: Fraction

    def __post_init__(self):
        if self.slope <= 0:
            raise SemanticError("affine payoff transform needs a positive slope")

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x + self.shift

    def inverse(self, y: Fraction) -> Fraction:
        return (y - self.shift) / self.slope


@dataclass(frozen=True)
class Table:
    """Finite strictly increasing map, defined only at its anchor points."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        xs = [x for x, _ in self.points]
        ys = [y for _, y in self.points]
        if sorted(set(xs)) != xs or sorted(set(ys)) != ys:
            raise SemanticError("table payoff transform must be strictly increasing")

    def __call__(self, x: Fraction) -> Fraction:
        for anchor, value in self.points:
            if anchor == x:
                return value
        raise SemanticError(f"payoff transform undefined at {x}")

    def inverse(self, y: Fraction) -> Fraction:
        for anchor, value in self.points:
            if value == y:
                return anchor
        raise SemanticError(f"payoff transform never attains {y}")

    def is_affine(self) -> bool:
        if len(self.points) < 3:
            return True
        (x0, y0), (x1, y1) = self.points[0], self.points[1]
        slope = (y1 - y0) / (x1 - x0)
        return all(y - y0 == slope * (x - x0) for x, y in self.points[2:])


Transform = Union[Affine, Table]


@dataclass(frozen=True)
class Representation:
    source: StrategicGame
    target: LogicalGame
    coding: tuple[tuple[ValueTuple, ...], ...]   # per player: strategy id -> tuple
    g: Transform

    def __post_init__(self):
        if not len(self.coding) == self.source.n_players == self.target.n_players:
            raise SemanticError("source, target and coding: one entry per player")
        for i, table in enumerate(self.coding):
            if len(table) != self.source.strategy_counts[i]:
                raise SemanticError(f"player {i + 1}: coding must cover every strategy")
            codes = set(table)
            if len(codes) != len(table) or codes != set(self.target.strategies[i]):
                raise SemanticError(
                    f"player {i + 1}: coding must be a bijection onto the target strategies")

    def encode(self, profile: Sequence[int]) -> tuple[ValueTuple, ...]:
        return tuple(self.coding[i][s] for i, s in enumerate(profile))

    def is_affine(self) -> bool:
        return isinstance(self.g, Affine) or self.g.is_affine()


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    affine: bool
    counterexample: Optional[tuple] = None     # (profile, player, expected, actual)
    message: str = ""

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        kind = "affine" if self.affine else "non-affine"
        if self.ok:
            return f"{status} ({kind} transform)"
        return f"{status}: {self.message}"


def verify_representation(rep: Representation) -> VerificationReport:
    """Exhaustively check f_i(s) = g(phi_i(c(s))) over all profiles and players.

    g is applied once per distinct phi value, and a cell whose phi value and
    payoff object passed together before passes at once.  The payoff table
    gives phi as an integer numerator and games share one payoff object per
    value, so no cell of the check hashes or compares a `Fraction`."""
    affine = rep.is_affine()
    scale, cells = _phis(rep)
    g_at: dict = {}
    passed: dict = {}   # (phi, id(f)) -> f per pair found equal; holding f keeps its id unique
    for profile, phis in cells:
        if isinstance(phis, SemanticError):
            return VerificationReport(False, affine, (profile, None, None, None),
                                      f"profile {profile}: {phis}")
        for i, (phi, expected) in enumerate(zip(phis, rep.source.payoffs[profile])):
            key = (phi, id(expected))
            if key in passed:
                continue
            actual = g_at.get(phi)
            if actual is None:
                try:
                    actual = g_at[phi] = rep.g(Fraction(phi, scale))
                except SemanticError as exc:
                    return VerificationReport(False, affine, (profile, i, expected, None),
                                              f"profile {profile}, player {i + 1}: {exc}")
            if actual != expected:
                return VerificationReport(
                    False, affine, (profile, i, expected, actual),
                    f"profile {profile}, player {i + 1}: "
                    f"g(phi) = {actual} but f = {expected}")
            passed[key] = expected
    return VerificationReport(True, affine)


def _phis(rep: Representation):
    """The scale of the target's payoff values and each source profile with
    their numerators over it at its code: the table's row there, the sum of
    each code's index times its block's stride.  A payoff formula that does
    not compile gives its error at the first source profile instead."""
    table = rep.target.payoff_table
    try:
        numerators = table.numerators
    except SemanticError as exc:
        return None, [(next(rep.source.profiles()), exc)]
    offsets = [[index[tuple(pairs(tup))] * stride for tup in coding]
               for coding, (_, _, index, stride) in zip(rep.coding, table.blocks)]
    rows = [sum(row) for row in product(*offsets)]
    return table.scale, zip(rep.source.profiles(), zip(
        *([column[r] for r in rows] for column in numerators)))


# --- the construction ---------------------------------------------------------

def _binary_range(game: StrategicGame) -> tuple[Fraction, Fraction]:
    values = game.payoff_values()
    if len(values) != 2:
        raise SemanticError(f"payoff range must have exactly 2 values, found {len(values)}")
    return values[0], values[1]


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return tuple(reversed(out))


def _digit_widths(game: StrategicGame, base: int) -> list[int]:
    widths = []
    for count in game.strategy_counts:
        width = 0
        while base ** width < count:
            width += 1
        widths.append(width)
    return widths


def _dnf_game(game: StrategicGame, alg: Algebra, elements: Sequence[Fraction],
              widths: Sequence[int], g: Transform, disjunct) -> Representation:
    """The construction behind every constructor.

    Strategy s of player i is coded by widths[i] base-len(elements) digits,
    one variable per digit (v1_1, v1_2, ... for player 1).  phi_i is the
    disjunction over all profiles of disjunct(i, profile, conjunct), where
    conjunct pins the profile's code by characteristic formulas; profiles
    for which `disjunct` returns None are left out.
    """
    base = len(elements)
    variables = tuple(tuple(f"v{i + 1}_{j + 1}" for j in range(width))
                      for i, width in enumerate(widths))
    digits = [[_digits(s, base, widths[i]) for s in range(count)]
              for i, count in enumerate(game.strategy_counts)]
    coding = tuple(tuple(tuple(elements[d] for d in tup) for tup in block) for block in digits)
    # Keyed on digits, not on their elements: an int hashes at no cost.  In
    # the elements' order, so an error names the least element lacking a formula.
    needed = sorted({d for block in digits for tup in block for d in tup},
                    key=elements.__getitem__)
    delta_at = {(name, d): characteristic(alg, elements[d], name)
                for block in variables for name in block for d in needed}
    parts = [[[delta_at[name, d] for name, d in zip(block, tup)] for tup in block_digits]
             for block, block_digits in zip(variables, digits)]
    conjuncts = [(profile, conj_all(delta for part, s in zip(parts, profile)
                                    for delta in part[s]))
                 for profile in game.profiles()]
    formulas = []
    for i in range(game.n_players):
        parts = (disjunct(i, profile, conjunct) for profile, conjunct in conjuncts)
        formulas.append(disj_all(part for part in parts if part is not None))
    target = LogicalGame(alg, variables, coding, tuple(formulas))
    return Representation(game, target, coding, g)


def _binary_on_algebra(game, alg, elements, widths, a, b) -> Representation:
    """phi_i is the disjunction of the conjuncts of the profiles paying i b.
    A payoff is told apart by identity first: a game's payoffs are mostly
    the very objects a and b."""
    def pays_b(i, profile, conjunct):
        y = game.payoffs[profile][i]
        return conjunct if y is b or (y is not a and y == b) else None
    return _dnf_game(game, alg, elements, widths, Affine(b - a, a), pays_b)


def _by_payoff(build):
    """`build(context, y)` for a payoff y, memoized on (context, y) and looked
    up first by (context, id(y)): games share one object per payoff value,
    and an int hashes far cheaper than a `Fraction`.  Equal payoffs that are
    distinct objects still get one result."""
    at_value, at_id = {}, {}

    def lookup(context, y):
        found = at_id.get((context, id(y)))
        if found is None:
            found = at_value.get((context, y))
            if found is None:
                found = at_value[context, y] = build(context, y)
            at_id[context, id(y)] = found
        return found
    return lookup


def _basic_game(game, alg, anchors, g, value_formula=None) -> Representation:
    """Basic game coding strategy s by anchors[s]: phi_i is the disjunction
    over profiles of (value_formula(i, profile) /\\ conjunct), by default
    the constant g^-1(f_i(profile)), one node per payoff value."""
    if value_formula is None:
        const_at = _by_payoff(lambda _, y: Const(g.inverse(y)))

        def value_formula(i, profile):
            return const_at(None, game.payoffs[profile][i])
    return _dnf_game(game, alg, anchors, [1] * game.n_players, g,
                     lambda i, profile, conjunct:
                     App("and", (value_formula(i, profile), conjunct)))


def _rational_payoff_setup(game: StrategicGame):
    """Sorted payoff values, their common denominator q, and q * (max - min)."""
    values = game.payoff_values()
    if len(values) < 2:
        raise SemanticError("payoff transform needs at least 2 distinct payoff values")
    q = lcm(*[v.denominator for v in values])
    return values, q, int((values[-1] - values[0]) * q)


# --- binary-payoff constructors ------------------------------------------------

def represent_binary_boolean(game: StrategicGame) -> Representation:
    """Binary payoffs -> expressible Boolean game, ceil(log2 |S_i|) variables each."""
    a, b = _binary_range(game)
    return _binary_on_algebra(game, catalog_lookup("BOOL2"), [Fraction(0), Fraction(1)],
                              _digit_widths(game, 2), a, b)


def represent_binary_chain(game: StrategicGame) -> Representation:
    """Binary payoffs -> basic weakly expressible game on the chain L_m."""
    a, b = _binary_range(game)
    m = max(game.strategy_counts) - 1
    if m < 1:
        raise SemanticError("chain representation needs a player with >= 2 strategies")
    return _binary_on_algebra(game, catalog_lookup("L_n", m),
                              [Fraction(k, m) for k in range(m + 1)],
                              [1] * game.n_players, a, b)


def represent_binary_general(game: StrategicGame, m: int, alg: Algebra,
                             elements: Optional[Sequence[Fraction]] = None) -> Representation:
    """Binary payoffs -> (m+1)-ary digit coding over any algebra providing
    m+1 distinct characterizable elements."""
    a, b = _binary_range(game)
    if m < 1:
        raise SemanticError("digit base m + 1 needs m >= 1")
    if elements is None:
        if alg.chain is None or alg.chain < m:
            raise SemanticError(f"{alg.id} does not supply {m + 1} default elements")
        elements = [Fraction(k, alg.chain) for k in range(m + 1)]
    elements = [Fraction(x) for x in elements]
    if len(elements) != m + 1 or len(set(elements)) != m + 1:
        raise SemanticError(f"need {m + 1} distinct elements, got {elements}")
    return _binary_on_algebra(game, alg, elements, _digit_widths(game, m + 1), a, b)


# --- rational-payoff constructors ----------------------------------------------

def represent_rational_qg_delta(game: StrategicGame) -> Representation:
    """Rational payoffs -> basic expressible game over the rational-constant
    Godel algebra with delta."""
    values, _, _ = _rational_payoff_setup(game)
    m = max(game.strategy_counts) - 1
    if m < 1:
        raise SemanticError("representation needs a player with >= 2 strategies")
    return _basic_game(game, catalog_lookup("STD_QG_DELTA"),
                       [Fraction(s, m) for s in range(m + 1)],
                       Affine(values[-1] - values[0], values[0]))


def represent_rational_gmc_delta(game: StrategicGame, m: Optional[int] = None) -> Representation:
    """Rational payoffs p_j/q -> basic expressible game over the Godel chain
    G_m with constants and delta, g(x) = (m x + p_1)/q."""
    values, q, span = _rational_payoff_setup(game)
    bound = max(span, max(game.strategy_counts) - 1)
    if m is None:
        m = bound
    elif m < bound:
        raise SemanticError(f"chain size m = {m} below the bound {bound}")
    return _basic_game(game, catalog_lookup("G_n_C_DELTA", m),
                       [Fraction(s, m) for s in range(m + 1)],
                       Affine(Fraction(m, q), values[0]))


def represent_rational_lm(game: StrategicGame, m: Optional[int] = None) -> Representation:
    """Rational payoffs p_j/q -> basic weakly expressible game on a prime
    chain L_m; payoff values enter through the zeta gadget, so no truth
    constants are needed."""
    values, q, span = _rational_payoff_setup(game)
    bound = max([span] + [c + 1 for c in game.strategy_counts])
    if m is None:
        m = bound
        while not is_prime(m):
            m += 1
    elif not is_prime(m):
        raise SemanticError(f"chain size m = {m} is not prime")
    elif m < bound:
        raise SemanticError(f"chain size m = {m} below the bound {bound}")
    g = Affine(Fraction(m, q), values[0])
    target_at = {y: g.inverse(y) for y in values}
    # One gadget per (player, own strategy, payoff value), shared across disjuncts.
    zeta_at = _by_payoff(lambda own, y: zeta(m, Fraction(own[1] + 1, m), target_at[y],
                                             f"v{own[0] + 1}_1"))   # i's one variable

    def value_formula(i, profile):
        return zeta_at((i, profile[i]), game.payoffs[profile][i])

    return _basic_game(game, catalog_lookup("L_n", m),
                       [Fraction(s + 1, m) for s in range(m - 1)], g, value_formula)


def represent_general(game: StrategicGame, alg: Algebra,
                      anchors: Sequence[Fraction],
                      payoff_anchors: Sequence[Fraction]) -> Representation:
    """Any finite game -> basic weakly expressible game over `alg`, given
    characterizable strategy anchors and constant-bearing payoff anchors.
    The transform is a strictly increasing table, affine only by accident."""
    anchors = [Fraction(x) for x in anchors]
    if len(set(anchors)) != len(anchors):
        raise SemanticError("strategy anchors must be distinct")
    if len(anchors) < max(game.strategy_counts):
        raise SemanticError(
            f"need at least {max(game.strategy_counts)} strategy anchors, "
            f"got {len(anchors)}")
    values = game.payoff_values()
    bs = sorted(Fraction(x) for x in payoff_anchors)
    if len(set(bs)) != len(bs):
        raise SemanticError("payoff anchors must be distinct")
    if len(bs) < len(values):
        raise SemanticError(
            f"need at least {len(values)} payoff anchors, got {len(bs)}")
    for b in bs:
        if not alg.has_constant(b):
            raise SemanticError(f"{alg.id} has no truth constant for {b}")
    return _basic_game(game, alg, anchors, Table(tuple(zip(bs[:len(values)], values))))


# --- serialization --------------------------------------------------------------

def representation_to_json(rep: Representation) -> dict:
    if isinstance(rep.g, Affine):
        g_doc = {"kind": "affine", "a": format_rational(rep.g.slope),
                 "b": format_rational(rep.g.shift)}
    else:
        g_doc = {"kind": "table",
                 "points": [[format_rational(x), format_rational(y)]
                            for x, y in rep.g.points]}
    return {
        "g": g_doc,
        "c": [[[format_rational(x) for x in tup] for tup in table]
              for table in rep.coding],
    }


def representation_from_json(doc: dict, source: StrategicGame,
                             target: LogicalGame) -> Representation:
    try:
        g_doc = doc["g"]
        if g_doc["kind"] == "affine":
            g = Affine(parse_rational(g_doc["a"]), parse_rational(g_doc["b"]))
        elif g_doc["kind"] == "table":
            g = Table(tuple((parse_rational(x), parse_rational(y))
                            for x, y in json_array(g_doc["points"], "points", 2)))
        else:
            raise InputError(f"unknown transform kind {g_doc['kind']!r}")
        coding = tuple(tuple(tuple(parse_rational(x) for x in tup) for tup in table)
                       for table in json_array(doc["c"], "c", 3))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad representation document: {exc}") from None
    return Representation(source, target, coding, g)
