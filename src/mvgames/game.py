"""Finite strategic games and logical games over a standard algebra.

Strategic games follow the usual normal form: players 1..n, strategies
identified with 0..|S_i|-1, and exact rational payoffs for every profile.
A logical game instead gives each player a block of propositional variables,
a finite set of value tuples she may assign to them, and a payoff formula
evaluated in the chosen algebra.  Strategy sets are stored sorted
lexicographically, so a strategy's index doubles as its lexicographic rank.

The module also owns the canonical JSON file formats for strategic games,
logical games, and mixed profiles.  All values are immutable.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from numbers import Rational
from typing import Iterator, Optional, Sequence

from . import formula as fm
from .algebra import Algebra, catalog_lookup, format_rational, parse_rational
from .chars import has_pseudo_char
from .errors import InputError, SemanticError

Profile = tuple[int, ...]
ValueTuple = tuple[Fraction, ...]


@dataclass(frozen=True)
class StrategicGame:
    """Normal-form game with rational payoffs, total over all profiles.

    `payoffs` must not be mutated after construction: `integer_payoffs`,
    which the oracle reads, is computed from it once and kept."""

    strategy_names: tuple[tuple[str, ...], ...]
    payoffs: dict[Profile, tuple[Fraction, ...]]

    def __post_init__(self):
        n = self.n_players
        if n == 0:
            raise SemanticError("a game needs at least one player")
        expected = set(itertools.product(*[range(c) for c in self.strategy_counts]))
        if set(self.payoffs) != expected:
            raise SemanticError("payoffs must be total over all strategy profiles")
        for profile, values in self.payoffs.items():
            if len(values) != n:
                raise SemanticError(f"profile {profile}: need one payoff per player")

    @property
    def n_players(self) -> int:
        return len(self.strategy_names)

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(len(names) for names in self.strategy_names)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*[range(c) for c in self.strategy_counts])

    def payoff(self, profile: Profile, player: int) -> Fraction:
        return self.payoffs[tuple(profile)][player]

    @cached_property
    def integer_payoffs(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per player, (level, numerators): the player's payoffs as integer
        numerators over their lcm, the level, in profile order.  Each
        distinct payoff object is converted once, keyed by identity as in
        `payoff_values`."""
        rows = [self.payoffs[profile] for profile in self.profiles()]
        out = []
        for column in (zip(*rows) if rows else [()] * self.n_players):
            level, numerator = _levels({id(v): v for v in column})
            out.append((level, tuple(map(numerator.__getitem__, map(id, column)))))
        return tuple(out)

    def payoff_values(self) -> tuple[Fraction, ...]:
        """Sorted distinct payoff values of all players.  The payoffs are
        deduplicated by identity first: games share one object per value,
        and hashing a `Fraction` costs far more than hashing its id."""
        objects = {id(v): v for vec in self.payoffs.values() for v in vec}
        return tuple(sorted(set(objects.values())))


def make_game(counts: Sequence[int], payoff_fn, names=None) -> StrategicGame:
    """Build a game from per-player strategy counts and profile -> payoff vector."""
    if names is None:
        names = tuple(tuple(f"s{k}" for k in range(c)) for c in counts)
    payoffs = {}
    for profile in itertools.product(*[range(c) for c in counts]):
        payoffs[profile] = tuple(v if type(v) is Fraction else Fraction(v)
                                 for v in payoff_fn(profile))
    return StrategicGame(tuple(tuple(ns) for ns in names), payoffs)


@dataclass(frozen=True)
class LogicalGame:
    """Game whose strategies assign algebra values to controlled variables.

    Construction compiles the payoff formulas (`payoff_table.program`) and
    checks the program's variables against the players': a payoff formula
    that uses another name raises here, and one that does not compile
    raises at the payoff table's first read."""

    algebra: Algebra
    variables: tuple[tuple[str, ...], ...]
    strategies: tuple[tuple[ValueTuple, ...], ...]
    payoff_formulas: tuple[fm.Formula, ...]

    def __post_init__(self):
        n = len(self.variables)
        if n == 0:
            raise SemanticError("a game needs at least one player")
        if not (n == len(self.strategies) == len(self.payoff_formulas)):
            raise SemanticError("variables, strategies, payoff_formulas: one entry per player")
        flat = [v for block in self.variables for v in block]
        if len(flat) != len(set(flat)):
            raise SemanticError("controlled variable blocks must be pairwise disjoint")
        object.__setattr__(self, "strategies", tuple(
            _strategy_set(i, block) for i, block in enumerate(self.strategies)))
        for i, block in enumerate(self.strategies):
            if not block:
                raise SemanticError(f"player {i + 1} has an empty strategy set")
            for tup in block:
                if len(tup) != len(self.variables[i]):
                    raise SemanticError(
                        f"player {i + 1}: strategy {tup} does not match |V_i|")
                for component in tup:
                    if not self.algebra.contains(component):
                        raise SemanticError(
                            f"strategy component {component} outside the domain of "
                            f"{self.algebra.id}")
        # The payoff values that `payoff`, gamma and the mixed check all read.
        table = fm.Table(self.payoff_formulas, self.algebra, self.variables, self.strategies)
        object.__setattr__(self, "payoff_table", table)
        allowed = set(flat)
        try:    # the program's variables are those of every phi_i, folded away or not
            known = allowed.issuperset(name for name, _ in table.program._variables)
        except SemanticError:   # raised again at the table's first read
            known = False
        if not known:
            for i, phi in enumerate(self.payoff_formulas):
                extra = set(fm.free_variables(phi)) - allowed
                if extra:
                    raise SemanticError(
                        f"payoff formula of player {i + 1} uses unknown variables {sorted(extra)}")

    @property
    def n_players(self) -> int:
        return len(self.variables)

    @property
    def all_variables(self) -> tuple[str, ...]:
        return tuple(v for block in self.variables for v in block)

    def profiles(self) -> Iterator[tuple[ValueTuple, ...]]:
        return itertools.product(*self.strategies)

    def assignment(self, profile: Sequence[ValueTuple]) -> dict[str, Fraction]:
        out = {}
        for block, tup in zip(self.variables, profile):
            out.update(zip(block, tup))
        return out


def payoff(lg: LogicalGame, profile: Sequence[ValueTuple]) -> tuple[Fraction, ...]:
    """Per-player formula values at the strategy profile."""
    if len(profile) != lg.n_players:
        raise SemanticError(f"a profile needs {lg.n_players} strategies, got {len(profile)}")
    table, row = lg.payoff_table, 0
    for i, (tup, (_, _, index, stride)) in enumerate(zip(profile, table.blocks)):
        s = index.get(tuple(fm.pairs(tup)))
        if s is None:
            raise SemanticError(f"{tuple(tup)} is not a strategy of player {i + 1}")
        row += s * stride
    return tuple(column[row] for column in table.rows)


def _levels(objects: dict) -> tuple[int, dict[int, int]]:
    """For `objects`, a map id(v) -> v of distinct objects, the lcm of their
    denominators and id(v) -> v's numerator over it: integer keys that
    order and tell apart the values exactly as the values do, each made
    once per object."""
    scale = lcm(*{v.denominator for v in objects.values()})
    return scale, {key: v.numerator * (scale // v.denominator) for key, v in objects.items()}


def _strategy_set(i: int, block) -> tuple[ValueTuple, ...]:
    """Player i's strategies as tuples, deduplicated and sorted as a set of
    them would be, on integer keys: of equal tuples the first is kept."""
    block = list(map(tuple, block))
    objects = {id(x): x for tup in block for x in tup}
    for x in objects.values():
        if not isinstance(x, Rational):
            raise SemanticError(f"player {i + 1}: strategy component {x!r} is not a rational")
    (_, level), kept = _levels(objects), {}
    for tup in block:
        kept.setdefault(tuple([level[id(x)] for x in tup]), tup)
    return tuple(kept[key] for key in sorted(kept))


def relevant_elements(lg: LogicalGame) -> tuple[Fraction, ...]:
    """Sorted algebra values that some player can actually assign; of equal
    values the first found is kept.  On integer keys, as `_strategy_set`."""
    objects = {id(x): x for block in lg.strategies for tup in block for x in tup}
    kept = {}
    for key, level in _levels(objects)[1].items():
        kept.setdefault(level, objects[key])
    return tuple(kept[level] for level in sorted(kept))


@dataclass(frozen=True)
class GameFlags:
    full: Optional[bool]       # None: undecidable over an infinite domain
    expressible: bool
    weakly_expressible: bool
    relevant: tuple[Fraction, ...]     # `relevant_elements`, which the flags were decided on


def classify(lg: LogicalGame) -> GameFlags:
    relevant = relevant_elements(lg)
    expressible = all(lg.algebra.has_constant(a) for a in relevant)
    weakly = expressible or all(has_pseudo_char(lg.algebra, a) for a in relevant)
    if lg.algebra.is_finite:
        size = lg.algebra.chain + 1
        full = all(len(block) == size ** len(vs)
                   for block, vs in zip(lg.strategies, lg.variables))
    else:
        full = None
    return GameFlags(full, expressible, weakly, relevant)


def logical_to_strategic(lg: LogicalGame) -> StrategicGame:
    """Forget the logical structure: strategy ids are lexicographic ranks,
    and the payoff table's rows are the profiles in that order."""
    ids = itertools.product(*[range(len(block)) for block in lg.strategies])
    payoffs = dict(zip(ids, zip(*lg.payoff_table.rows)))
    names = tuple(tuple(map(format_strategy, block)) for block in lg.strategies)
    return StrategicGame(names, payoffs)


def format_strategy(tup: ValueTuple) -> str:
    """A value tuple as comma-separated rationals; the empty tuple as "()"."""
    return ",".join(map(format_rational, tup)) or "()"


@dataclass(frozen=True)
class MixedProfile:
    """One probability vector per player, aligned with strategy indices."""

    probabilities: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        # On integers: the numerators over the vector's lcm sum to that lcm.
        for i, vector in enumerate(self.probabilities):
            if any(p.numerator < 0 for p in vector):
                raise SemanticError(f"player {i + 1}: negative probability")
            scale = lcm(*(p.denominator for p in vector))
            total = sum(p.numerator * (scale // p.denominator) for p in vector)
            if total != scale:
                raise SemanticError(
                    f"player {i + 1}: probabilities sum to {Fraction(total, scale)}, not 1")

    @classmethod
    def _unchecked(cls, probabilities) -> MixedProfile:
        """A profile of vectors its caller built as distributions, not checked again."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "probabilities", probabilities)
        return profile


def dirac(counts: Sequence[int], profile: Profile) -> MixedProfile:
    """The mixed profile concentrated at one pure profile."""
    return MixedProfile(tuple(
        tuple(Fraction(1) if k == profile[i] else Fraction(0) for k in range(c))
        for i, c in enumerate(counts)))


# --- file formats ------------------------------------------------------------

def json_array(value, what: str, depth: int = 1) -> list:
    """`value`, checked to be JSON arrays nested `depth` deep.  Python would
    read a string there as its characters, so a string is an input error."""
    level = [value]
    for _ in range(depth):
        if not all(type(v) is list for v in level):
            raise InputError(f"{what} must be a JSON array{' of arrays' * (depth - 1)}")
        level = [x for v in level for x in v]
    return value


def game_to_json(game: StrategicGame) -> dict:
    # Each payoff object is formatted once, keyed by identity: hashing a
    # `Fraction` costs about what formatting it does, and the games built here
    # share one object per distinct value (`game_from_json` parses each
    # literal once, a filled payoff table converts each value once).
    values = {id(v): v for row in game.payoffs.values() for v in row}
    text = {key: format_rational(v) for key, v in values.items()}
    return {
        "players": game.n_players,
        "strategies": [list(names) for names in game.strategy_names],
        "payoffs": [[text[id(v)] for v in game.payoffs[p]] for p in game.profiles()],
    }


def game_from_json(doc: dict) -> StrategicGame:
    try:
        n = doc["players"]
        blocks = json_array(doc["strategies"], "strategies", 2)
        rows = json_array(doc["payoffs"], "payoffs", 2)
        if not all(isinstance(name, str) for block in blocks for name in block):
            raise InputError("every strategy name must be a JSON string")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad strategic-game document: {exc}") from None
    if type(n) is not int:
        raise InputError("players must be a JSON integer")
    names = tuple(map(tuple, blocks))
    if len(names) != n:
        raise InputError("strategies must list one block per player")
    counts = [len(block) for block in names]
    if len(rows) != prod(counts):
        raise InputError(f"expected {prod(counts)} payoff rows, got {len(rows)}")
    payoffs, parsed = {}, {}    # parsed: each distinct literal's value
    for profile, row in zip(itertools.product(*[range(c) for c in counts]), rows):
        if len(row) != n:
            raise InputError(f"payoff row for {profile} must have {n} entries")
        for text in row:
            # A non-string, unhashable or not, raises in `parse_rational`.
            if type(text) is not str or text not in parsed:
                parsed[text] = parse_rational(text)
        payoffs[profile] = tuple(parsed[text] for text in row)
    return StrategicGame(names, payoffs)


def lgame_to_json(lg: LogicalGame) -> dict:
    return {
        "algebra": lg.algebra.id,
        "variables": [list(block) for block in lg.variables],
        "strategies": [[[format_rational(x) for x in tup] for tup in block]
                       for block in lg.strategies],
        "payoff_formulas": [fm.to_text(phi) for phi in lg.payoff_formulas],
    }


def lgame_from_json(doc: dict) -> LogicalGame:
    try:
        alg = catalog_lookup(doc["algebra"])
        variables = tuple(map(tuple, json_array(doc["variables"], "variables", 2)))
        for name in itertools.chain(*variables):
            if not _parses_back(name):
                raise InputError(f"variable name {name!r} does not parse as that variable")
        strategies = tuple(tuple(tuple(map(parse_rational, tup)) for tup in block)
                           for block in json_array(doc["strategies"], "strategies", 3))
        formulas = tuple(map(fm.parse, json_array(doc["payoff_formulas"], "payoff_formulas")))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad logical-game document: {exc}") from None
    return LogicalGame(alg, variables, strategies, formulas)


def _parses_back(name) -> bool:
    """Is `name` a string the formula grammar reads back as that variable?"""
    try:
        return isinstance(name, str) and fm.parse(name) == fm.Var(name)
    except fm.ParseError:
        return False


def profile_to_json(profile: MixedProfile) -> list[dict]:
    return [{str(k): format_rational(p) for k, p in enumerate(vector) if p != 0}
            for vector in profile.probabilities]


def profile_from_json(doc, counts: Sequence[int]) -> MixedProfile:
    if len(json_array(doc, "mixed profile")) != len(counts):
        raise InputError("mixed profile must list one map per player")
    vectors = []
    for i, (entry, count) in enumerate(zip(doc, counts)):
        if not isinstance(entry, dict):
            raise InputError(f"player {i + 1}: expected a map of strategy ids "
                             f"to probabilities")
        vector = [Fraction(0)] * count
        ids = {str(k): k for k in range(count)}     # as profile_to_json writes them
        for key, text in entry.items():
            if key not in ids:
                raise InputError(f"player {i + 1}: strategy id {key!r} not in 0..{count - 1}")
            vector[ids[key]] = parse_rational(text)
        vectors.append(tuple(vector))
    return MixedProfile(tuple(vectors))


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_json(path) -> dict:
    """A JSON document; an object that names one key twice is malformed."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:   # ValueError: bad JSON or UTF-8
        raise InputError(f"cannot read {path}: {exc}") from None


def write_text(path, text: str) -> None:
    """Write a UTF-8 file in place; a path that cannot be written is an input error.

    A regular file is cut after the new text, not emptied first: on ext4
    (auto_da_alloc) the next rewrite of an emptied file waits for its I/O.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def dump_json(doc, path) -> None:
    write_text(path, json.dumps(doc, indent=2) + "\n")
