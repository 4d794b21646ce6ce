"""Brute-force game-theoretic ground truth, independent of the formula engine.

Everything here works on plain payoff tables with exact rational arithmetic:
pure equilibria by exhaustive unilateral-deviation scanning, mixed-profile
verification through exact expected payoffs (checking pure deviations only,
which suffices for finite games), and a 2-player mixed-equilibrium finder by
support enumeration over exact rational linear systems.  Logical games are
accepted everywhere by first collapsing them to their payoff tables.

Degenerate support systems are solved parametrically; one rational
representative per solution face is emitted and flagged.  The finder is
complete for nondegenerate games; n-player mixed-equilibrium search is out
of scope (verification is n-player).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import SemanticError
from .game import (LogicalGame, MixedProfile, Profile, StrategicGame, dirac,
                   logical_to_strategic)

Game = Union[StrategicGame, LogicalGame]


def _as_table(game: Game) -> StrategicGame:
    return logical_to_strategic(game) if isinstance(game, LogicalGame) else game


def pure_ne_scan(game: Game) -> list[Profile]:
    """All pure Nash equilibria, by checking every unilateral deviation."""
    table = _as_table(game)
    out = []
    for profile in table.profiles():
        values = table.payoffs[profile]
        if all(table.payoffs[profile[:i] + (s,) + profile[i + 1:]][i] <= values[i]
               for i in range(table.n_players)
               for s in range(table.strategy_counts[i])):
            out.append(profile)
    return out


def expected_payoffs(game: Game, profile: MixedProfile) -> tuple[Fraction, ...]:
    """Exact expected payoff per player under a mixed profile."""
    table = _as_table(game)
    if tuple(len(v) for v in profile.probabilities) != table.strategy_counts:
        raise SemanticError("mixed profile does not match the game's strategy counts")
    totals = [Fraction(0)] * table.n_players
    for pure, values in table.payoffs.items():
        weight = Fraction(1)
        for i, s in enumerate(pure):
            weight *= profile.prob(i, s)
            if weight == 0:
                break
        if weight == 0:
            continue
        for i in range(table.n_players):
            totals[i] += values[i] * weight
    return tuple(totals)


def deviation_payoff(game: Game, profile: MixedProfile, player: int,
                     strategy: int) -> Fraction:
    """Expected payoff of `player` after switching to the pure `strategy`."""
    table = _as_table(game)
    counts = table.strategy_counts
    total = Fraction(0)
    others = [range(c) if j != player else (strategy,) for j, c in enumerate(counts)]
    for pure in itertools.product(*others):
        weight = Fraction(1)
        for j, s in enumerate(pure):
            if j == player:
                continue
            weight *= profile.prob(j, s)
            if weight == 0:
                break
        if weight == 0:
            continue
        total += table.payoffs[pure][player] * weight
    return total


def verify_mixed(game: Game, profile: MixedProfile) -> bool:
    """Mixed-equilibrium check: no profitable pure deviation for any player."""
    table = _as_table(game)
    base = expected_payoffs(table, profile)
    for i in range(table.n_players):
        for s in range(table.strategy_counts[i]):
            if deviation_payoff(table, profile, i, s) > base[i]:
                return False
    return True


# --- exact linear algebra ------------------------------------------------------

@dataclass
class LinearSolution:
    particular: list[Fraction]
    nullspace: list[list[Fraction]]

    @property
    def unique(self) -> bool:
        return not self.nullspace


def solve_linear(rows: Sequence[Sequence[Fraction]],
                 rhs: Sequence[Fraction]) -> Optional[LinearSolution]:
    """Solve A x = b exactly over the rationals.

    Returns None when inconsistent; otherwise a particular solution plus a
    basis of the nullspace (empty iff the solution is unique).
    """
    m = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0]) if n_rows else 0
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((k for k in range(r, n_rows) if m[k][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for k in range(n_rows):
            if k != r and m[k][c] != 0:
                factor = m[k][c]
                m[k] = [x - factor * y for x, y in zip(m[k], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for k in range(r, n_rows):
        if m[k][n_cols] != 0:
            return None
    particular = [Fraction(0)] * n_cols
    for row, c in zip(m, pivot_cols):
        particular[c] = row[n_cols]
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    nullspace = []
    for free in free_cols:
        vector = [Fraction(0)] * n_cols
        vector[free] = Fraction(1)
        for row, c in zip(m, pivot_cols):
            vector[c] = -row[free]
        nullspace.append(vector)
    return LinearSolution(particular, nullspace)


# --- 2-player support enumeration ---------------------------------------------

@dataclass(frozen=True)
class MixedCandidate:
    profile: MixedProfile
    payoffs: tuple[Fraction, ...]
    degenerate: bool


def _indifference_candidates(payoff_row, own_support, other_support):
    """Vectors over the opponent's support making `own_support` indifferent.

    Unknowns: opponent probabilities on the support plus the common payoff
    level u.  Yields (vector, level, degenerate) candidates; degenerate ones
    come from rank-deficient systems, one representative per free direction.
    """
    k = len(other_support)
    rows = []
    rhs = []
    for i in own_support:
        rows.append([payoff_row(i, j) for j in other_support] + [Fraction(-1)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * k + [Fraction(0)])
    rhs.append(Fraction(1))
    solution = solve_linear(rows, rhs)
    if solution is None:
        return
    if solution.unique:
        yield solution.particular[:k], solution.particular[k], False
        return
    # Rank-deficient: sample the affine solution space at a few rational
    # points; invalid samples are filtered by the caller's checks.
    samples = [solution.particular]
    for direction in solution.nullspace:
        for step in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(1, 4)):
            samples.append([p + step * d
                            for p, d in zip(solution.particular, direction)])
    for point in samples:
        yield point[:k], point[k], True


def find_mixed_2p(game: Game) -> list[MixedCandidate]:
    """All rational mixed equilibria of a 2-player game found by support
    enumeration; complete for nondegenerate games."""
    table = _as_table(game)
    if table.n_players != 2:
        raise SemanticError("support enumeration handles exactly 2 players")
    counts = table.strategy_counts

    def row_payoff(i, j):
        return table.payoffs[(i, j)][0]

    def col_payoff(j, i):
        return table.payoffs[(i, j)][1]

    found: dict[tuple, MixedCandidate] = {}
    supports1 = [s for size in range(1, counts[0] + 1)
                 for s in itertools.combinations(range(counts[0]), size)]
    supports2 = [s for size in range(1, counts[1] + 1)
                 for s in itertools.combinations(range(counts[1]), size)]
    for sup1 in supports1:
        for sup2 in supports2:
            for q, u, deg_q in _indifference_candidates(row_payoff, sup1, sup2):
                if any(x <= 0 for x in q):
                    continue
                full_q = _scatter(q, sup2, counts[1])
                if any(_dot(row_payoff, i, full_q) > u for i in range(counts[0])
                       if i not in sup1):
                    continue
                for p, w, deg_p in _indifference_candidates(col_payoff, sup2, sup1):
                    if any(x <= 0 for x in p):
                        continue
                    full_p = _scatter(p, sup1, counts[0])
                    if any(_dot(col_payoff, j, full_p) > w for j in range(counts[1])
                           if j not in sup2):
                        continue
                    profile = MixedProfile((tuple(full_p), tuple(full_q)))
                    if not verify_mixed(table, profile):
                        continue
                    key = (tuple(full_p), tuple(full_q))
                    degenerate = deg_q or deg_p
                    if key not in found or found[key].degenerate and not degenerate:
                        found[key] = MixedCandidate(
                            profile, expected_payoffs(table, profile), degenerate)
    return [found[key] for key in sorted(found)]


def _scatter(values, support, count):
    full = [Fraction(0)] * count
    for value, index in zip(values, support):
        full[index] = value
    return full


def _dot(payoff_fn, own, other_vector):
    return sum(payoff_fn(own, j) * q for j, q in enumerate(other_vector) if q != 0)


def transform_payoffs(game: StrategicGame, slopes: Sequence[Fraction],
                      shifts: Sequence[Fraction]) -> StrategicGame:
    """Per-player positive affine transform of the payoff table."""
    if any(a <= 0 for a in slopes):
        raise SemanticError("affine payoff transforms need positive slopes")
    payoffs = {profile: tuple(a * v + b for v, a, b in zip(values, slopes, shifts))
               for profile, values in game.payoffs.items()}
    return StrategicGame(game.strategy_names, payoffs)


def affine_invariance_check(game: Game, slopes: Sequence[Fraction],
                            shifts: Sequence[Fraction]) -> bool:
    """Equilibria found by the oracle survive positive affine payoff transforms."""
    table = _as_table(game)
    slopes = [Fraction(a) for a in slopes]
    shifts = [Fraction(b) for b in shifts]
    transformed = transform_payoffs(table, slopes, shifts)
    if pure_ne_scan(table) != pure_ne_scan(transformed):
        return False
    if table.n_players == 2:
        for candidate in find_mixed_2p(table):
            if not verify_mixed(transformed, candidate.profile):
                return False
        for candidate in find_mixed_2p(transformed):
            if not verify_mixed(table, candidate.profile):
                return False
    for profile in table.profiles():
        point = dirac(table.strategy_counts, profile)
        if verify_mixed(table, point) != verify_mixed(transformed, point):
            return False
    return True
