"""Brute-force game-theoretic ground truth, independent of the formula engine.

Everything here works on plain payoff tables with exact rational arithmetic:
pure equilibria by exhaustive unilateral-deviation scanning, a mixed
profile's expected payoffs and verdict (checking pure deviations only, which
suffices for finite games) from one pass over the payoff table, and a
2-player mixed-equilibrium finder by support enumeration over exact rational
linear systems.  Logical games are accepted everywhere by first collapsing
them to their payoff tables.

The mixed oracle runs on integers until it keeps a candidate: each player's
payoffs are scaled to integer numerators over their lcm, and each distinct
support system is solved once per call, by fraction-free Gauss-Jordan
elimination (Bareiss), which reaches the same reduced row echelon form as
rational elimination.  Degenerate support systems are solved parametrically;
one rational representative per solution face is emitted and flagged.  A
support pair is solved only when no strategy in either support is strictly
beaten, at every strategy of the other support, by another strategy of the
same player (conditional dominance; Porter, Nudelman and Shoham, 2008).  A
candidate the finder keeps puts positive weight on the whole opposing
support, and every strategy of its own support earns the same u.  A strategy
k strictly beating one of them would earn more than u: outside the support
it fails the best-response check, inside it breaks the equalities.  So the
skipped pairs hold no candidate and no answer changes.  Dominance must be
strict: a tie, or a weak dominance, would drop candidates of degenerate
games.  The finder is complete for nondegenerate games; n-player
mixed-equilibrium search is out of scope (verification is n-player).

A system is its opponent support and the set of own rows restricted to it:
duplicate or reordered equations leave the reduced form, so the samples,
unchanged.  The support's rows all earn u, so one best-response test on a
sample's payoffs to every own strategy serves every own support of the
system.  A support one strategy larger than one whose system has at most
one solution is not solved: an added equation only shrinks the solution
set, so it keeps that solution iff the added row earns u there.  Stability
and expected payoffs are sums over the two kept payoff vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
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


def _payoff_sums(table: StrategicGame,
                 profile: MixedProfile) -> tuple[tuple[Fraction, ...], bool]:
    """Each player's expected payoff under `profile`, and whether no pure
    deviation pays any player more, from one pass over the payoff table.

    The sums are of integers: player i's payoffs as numerators over their
    lcm L_i, each probability vector as numerators w_j over its own lcm D_j.
    Row i holds, per pure strategy s of i, the payoffs times the other
    players' weights, summed over the profiles in which i plays s, skipping
    terms of zero weight.  Player i earns sum_s w_i[s] * row[s] over L_i and
    every D_j, and no deviation pays i more iff max(row) * D_i <= that sum.
    """
    probabilities = profile.probabilities
    if tuple(len(v) for v in probabilities) != table.strategy_counts:
        raise SemanticError("mixed profile does not match the game's strategy counts")
    scales = [lcm(*(p.denominator for p in vector)) for vector in probabilities]
    weights = [[p.numerator * (d // p.denominator) for p in vector]
               for vector, d in zip(probabilities, scales)]
    levels = [lcm(*(values[i].denominator for values in table.payoffs.values()))
              for i in range(len(scales))]
    rows = [[0] * c for c in table.strategy_counts]
    for pure, values in table.payoffs.items():
        ws = [vector[s] for vector, s in zip(weights, pure)]
        for i, s in enumerate(pure):
            others = ws[:i] + ws[i + 1:]
            if all(others):
                v = values[i]
                rows[i][s] += v.numerator * (levels[i] // v.denominator) * prod(others)
    totals = [sum(w * x for w, x in zip(vector, row)) for vector, row in zip(weights, rows)]
    expected = tuple(Fraction(t, level * prod(scales)) for t, level in zip(totals, levels))
    return expected, all(max(row) * d <= t for row, d, t in zip(rows, scales, totals))


def expected_payoffs(game: Game, profile: MixedProfile) -> tuple[Fraction, ...]:
    """Exact expected payoff per player under a mixed profile."""
    return _payoff_sums(_as_table(game), profile)[0]


def verify_mixed(game: Game, profile: MixedProfile) -> bool:
    """Mixed-equilibrium check: no profitable pure deviation for any player."""
    return _payoff_sums(_as_table(game), profile)[1]


# --- exact linear algebra ------------------------------------------------------

@dataclass
class LinearSolution:
    """The solutions `numerators + span(directions)`, stored fraction-free:
    each vector is a list of integer numerators over `denominator` > 0."""
    numerators: list[int]
    directions: list[list[int]]
    denominator: int

    @property
    def unique(self) -> bool:
        return not self.directions


def solve_linear(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[LinearSolution]:
    """Solve A x = b exactly over the rationals; entries are ints (scale a
    rational equation by its lcm first).

    Returns None when inconsistent; otherwise a particular solution plus a
    basis of the nullspace (empty iff the solution is unique), read off the
    reduced row echelon form.  Fraction-free Gauss-Jordan elimination
    (Bareiss) ends at d times that form, d the last pivot, with every entry
    an integer minor on the way.
    """
    m = [[*row, b] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0]) if n_rows else 0
    pivot_cols = []
    previous = 1
    r = 0
    for c in range(n_cols):
        pivot = r
        while pivot < n_rows and not m[pivot][c]:
            pivot += 1
        if pivot == n_rows:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        scale = top[c]
        for k in range(n_rows):
            factor = m[k][c]
            if factor and k != r:
                m[k] = [(scale * x - factor * y) // previous for x, y in zip(m[k], top)]
            elif not factor and scale != previous:
                m[k] = [scale * x // previous for x in m[k]]
        previous = scale
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    if any(m[k][n_cols] for k in range(r, n_rows)):
        return None
    sign = -1 if previous < 0 else 1
    particular = [0] * n_cols
    for row, c in zip(m, pivot_cols):
        particular[c] = sign * row[n_cols]
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    nullspace = []
    for free in free_cols:
        vector = [0] * n_cols
        vector[free] = sign * previous
        for row, c in zip(m, pivot_cols):
            vector[c] = -sign * row[free]
        nullspace.append(vector)
    return LinearSolution(particular, nullspace, sign * previous)


# --- 2-player support enumeration ---------------------------------------------

@dataclass(frozen=True)
class MixedCandidate:
    profile: MixedProfile
    payoffs: tuple[Fraction, ...]
    degenerate: bool


def _indifference_samples(payoffs, level, own_support, other_support):
    """Solve the system making `own_support` indifferent against a mix over
    `other_support` (unknowns: the mix, then u, whose column holds -level).

    Returns whether it has at most one solution, and the samples that are
    positive and earn no own strategy more than u: (the mix as lowest-terms
    numerators over all opponent strategies, their denominator, degenerate,
    each own strategy's payoff against it, the largest).  A rank-deficient
    system is sampled at its particular solution and at steps 1, -1, 1/2,
    1/4 along each free direction, flagged degenerate."""
    k = len(other_support)
    rows = [[payoffs[i][j] for j in other_support] + [-level] for i in own_support]
    rows.append([1] * k + [0])
    solution = solve_linear(rows, [0] * len(own_support) + [1])
    if solution is None:
        return True, []
    point = solution.numerators[:k]
    samples = []
    for mix in [point] + [[4 * x + step * d for x, d in zip(point, direction)]
                          for direction in solution.directions for step in (4, -4, 2, 1)]:
        if min(mix) <= 0:
            continue
        g = gcd(*mix)
        probs = [0] * len(payoffs[0])
        for j, x in zip(other_support, mix):
            probs[j] = x // g
        values = [sum(row[j] * probs[j] for j in other_support) for row in payoffs]
        top = max(values)
        if top == values[own_support[0]]:
            # The mix sums to one: its numerators sum to its denominator.
            samples.append((tuple(probs), sum(mix) // g, not solution.unique, values, top))
    return solution.unique, samples


def _system_memo(payoffs, level):
    """`samples(own_support, other_support)`: `_indifference_samples`'s kept
    samples, with each distinct system solved once (see the module docstring)."""
    memo: dict[tuple, tuple[bool, list]] = {}
    restricted = {}     # per other support, every own row restricted to it

    def samples(own_support, other_support):
        rows = restricted.get(other_support)
        if rows is None:
            rows = restricted[other_support] = [tuple(row[j] for j in other_support)
                                                for row in payoffs]
        key = (other_support, frozenset(rows[i] for i in own_support))
        if key not in memo:
            for i in own_support:
                smaller = memo.get((other_support,
                                    frozenset(rows[s] for s in own_support if s != i)))
                if smaller and smaller[0]:
                    # Row i's equation keeps the one solution iff row i earns its top.
                    memo[key] = True, [s for s in smaller[1] if s[3][i] == s[4]]
                    break
            else:
                memo[key] = _indifference_samples(payoffs, level, own_support, other_support)
        return memo[key][1]
    return samples


def find_mixed_2p(game: Game) -> list[MixedCandidate]:
    """All rational mixed equilibria of a 2-player game found by support
    enumeration; complete for nondegenerate games.

    Degenerate candidates sample a continuum of equilibria at fixed steps
    along directions that scale with the u column's -level: a game and its
    positive affine image share the nondegenerate ones, while the degenerate
    ones (all equilibria of both games) can differ."""
    table = _as_table(game)
    if table.n_players != 2:
        raise SemanticError("support enumeration handles exactly 2 players")
    counts = table.strategy_counts
    # Each player's payoffs as integer numerators over their lcm, the level.
    row_level, col_level = (lcm(*(v[i].denominator for v in table.payoffs.values()))
                            for i in (0, 1))
    row_payoffs = [[int(table.payoffs[(i, j)][0] * row_level) for j in range(counts[1])]
                   for i in range(counts[0])]
    col_payoffs = [[int(table.payoffs[(i, j)][1] * col_level) for i in range(counts[0])]
                   for j in range(counts[1])]

    # Per opponent support, the own strategies no own strategy strictly beats
    # on it; a pair with a support outside these sets has no candidate.
    allowed1 = _undominated(row_payoffs, counts[1])
    allowed2 = _undominated(col_payoffs, counts[0])
    row_samples = _system_memo(row_payoffs, row_level)
    col_samples = _system_memo(col_payoffs, col_level)

    # Each candidate's support is its pair's, and a pair's samples are
    # distinct points, so no profile is found twice.
    found = []
    for sup1 in _supports(range(counts[0])):
        for sup2 in _supports(allowed2[sup1]):
            if not all(i in allowed1[sup2] for i in sup1):
                continue
            q_samples = row_samples(sup1, sup2)
            p_samples = col_samples(sup2, sup1) if q_samples else ()
            for q, q_den, deg_q, row_values, row_top in q_samples:
                for p, p_den, deg_p, col_values, col_top in p_samples:
                    # The stability test of `_payoff_sums`: max(row) * D <= sum w * row.
                    row_sum = sum(p[i] * row_values[i] for i in sup1)
                    col_sum = sum(q[j] * col_values[j] for j in sup2)
                    if row_top * p_den <= row_sum and col_top * q_den <= col_sum:
                        found.append((p, p_den, q, q_den, row_sum, col_sum, deg_q or deg_p))

    # In Fraction order, from each player's mixes over one lcm.
    p_scale, q_scale = lcm(*(c[1] for c in found)), lcm(*(c[3] for c in found))
    found.sort(key=lambda c: ([x * (p_scale // c[1]) for x in c[0]],
                              [x * (q_scale // c[3]) for x in c[2]]))
    return [MixedCandidate(MixedProfile((tuple(Fraction(x, p_den) for x in p),
                                         tuple(Fraction(x, q_den) for x in q))),
                           (Fraction(row_sum, row_level * p_den * q_den),
                            Fraction(col_sum, col_level * p_den * q_den)), degenerate)
            for p, p_den, q, q_den, row_sum, col_sum, degenerate in found]


def _supports(strategies) -> list[tuple[int, ...]]:
    """The nonempty subsets of `strategies`, by size, then lexicographically."""
    return [s for size in range(1, len(strategies) + 1)
            for s in itertools.combinations(strategies, size)]


def _undominated(payoffs, other_count) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map each support of the opponent to the own strategies (rows of
    `payoffs`) that no own strategy strictly beats at every column of it."""
    # beats[i][k]: the columns at which own strategy k beats i, as a bitmask.
    beats = [[sum(1 << j for j in range(other_count) if other[j] > row[j]) for other in payoffs]
             for row in payoffs]
    masks = {support: sum(1 << j for j in support) for support in _supports(range(other_count))}
    return {support: tuple(i for i, row in enumerate(beats) if not any(b & m == m for b in row))
            for support, m in masks.items()}


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
