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
from math import lcm, prod
from typing import Iterator, Optional, Sequence

from . import formula as fm
from .algebra import Algebra, catalog_lookup, format_rational, parse_rational
from .chars import has_pseudo_char
from .errors import InputError, SemanticError

Profile = tuple[int, ...]
ValueTuple = tuple[Fraction, ...]


@dataclass(frozen=True)
class StrategicGame:
    """Normal-form game with rational payoffs, total over all profiles."""

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

    def payoff_values(self) -> tuple[Fraction, ...]:
        """Sorted distinct payoff values of all players."""
        return tuple(sorted({v for vec in self.payoffs.values() for v in vec}))


def make_game(counts: Sequence[int], payoff_fn, names=None) -> StrategicGame:
    """Build a game from per-player strategy counts and profile -> payoff vector."""
    if names is None:
        names = tuple(tuple(f"s{k}" for k in range(c)) for c in counts)
    payoffs = {}
    for profile in itertools.product(*[range(c) for c in counts]):
        payoffs[profile] = tuple(Fraction(v) for v in payoff_fn(profile))
    return StrategicGame(tuple(tuple(ns) for ns in names), payoffs)


@dataclass(frozen=True)
class LogicalGame:
    """Game whose strategies assign algebra values to controlled variables."""

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
        object.__setattr__(
            self, "strategies",
            tuple(tuple(sorted(set(map(tuple, block)))) for block in self.strategies))
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
        allowed, inputs = set(flat), [fm.free_variables(phi) for phi in self.payoff_formulas]
        for i, names in enumerate(inputs):
            extra = set(names) - allowed
            if extra:
                raise SemanticError(
                    f"payoff formula of player {i + 1} uses unknown variables {sorted(extra)}")
        # The payoff values that `payoff`, gamma and the mixed check all read,
        # and each strategy's `pairs`, its part of a key there.
        object.__setattr__(self, "payoff_table",
                           fm.Table(self.payoff_formulas, self.algebra, flat, inputs))
        object.__setattr__(self, "_keys", [{t: fm.pairs(t) for t in b} for b in self.strategies])

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
    key, values = [], []
    for i, tup in enumerate(profile):
        part = lg._keys[i].get(tuple(tup))
        if part is None:
            raise SemanticError(f"{tuple(tup)} is not a strategy of player {i + 1}")
        key += part
        values += tup
    return lg.payoff_table.at(key, values)


def relevant_elements(lg: LogicalGame) -> tuple[Fraction, ...]:
    """Sorted algebra values that some player can actually assign."""
    found = {x for block in lg.strategies for tup in block for x in tup}
    return tuple(sorted(found))


@dataclass(frozen=True)
class GameFlags:
    full: Optional[bool]       # None: undecidable over an infinite domain
    expressible: bool
    weakly_expressible: bool


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
    return GameFlags(full=full, expressible=expressible, weakly_expressible=weakly)


def logical_to_strategic(lg: LogicalGame) -> StrategicGame:
    """Forget the logical structure: strategy ids are lexicographic ranks."""
    counts = [len(block) for block in lg.strategies]
    lg.payoff_table.fill(lg.strategies)
    payoffs = {}
    for ids in itertools.product(*[range(c) for c in counts]):
        profile = tuple(lg.strategies[i][k] for i, k in enumerate(ids))
        payoffs[ids] = payoff(lg, profile)
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
    return {
        "players": game.n_players,
        "strategies": [list(names) for names in game.strategy_names],
        "payoffs": [[format_rational(v) for v in game.payoffs[p]]
                    for p in game.profiles()],
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
            if not _reads_back(name):
                raise InputError(f"variable name {name!r} does not parse as that variable")
        strategies = tuple(tuple(tuple(map(parse_rational, tup)) for tup in block)
                           for block in json_array(doc["strategies"], "strategies", 3))
        formulas = tuple(map(fm.parse, json_array(doc["payoff_formulas"], "payoff_formulas")))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad logical-game document: {exc}") from None
    return LogicalGame(alg, variables, strategies, formulas)


def _reads_back(name) -> bool:
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
