"""Brute-force game-theoretic ground truth, independent of the formula engine.

Everything here works on plain payoff tables with exact rational arithmetic:
pure equilibria by a best-response scan over integer payoffs, a mixed
profile's expected payoffs and verdict (checking pure deviations only, which
suffices for finite games) by contracting each player's payoff column, and
a 2-player mixed-equilibrium finder by support enumeration over exact
rational linear systems.  Logical games are accepted everywhere by first
collapsing them to their payoff tables.

Every function reads a table's payoffs through its one integer view,
`StrategicGame.integer_payoffs` (per player, the numerators over their lcm,
the level, in profile order), which the game computes once and keeps; so a
table's `payoffs` must not be mutated after construction.  Nothing else is
kept across calls.  The mixed oracle runs on integers until it keeps a
candidate: each distinct support system is solved once per call, by
fraction-free Gauss-Jordan elimination (Bareiss), which reaches the same
reduced row echelon form as rational elimination.  The finder checks once
per call that its payoffs are ints and hands each system, an augmented
int matrix, to the bare core `_solve`; `solve_linear` is the public,
type-checked entry to the same core.  Degenerate support
systems are solved parametrically; one rational representative per solution
face is emitted and flagged.  A support pair is solved only when no
strategy in either support is strictly beaten, at every strategy of the
other support, by another strategy of the same player (conditional
dominance; Porter, Nudelman and Shoham, 2008).  A candidate the finder
keeps puts positive weight on the whole opposing support, and every
strategy of its own support earns the same u.  A strategy k strictly
beating one of them would earn more than u: outside the support it fails
the best-response check, inside it breaks the equalities.  So the skipped
pairs hold no candidate and no answer changes.  Dominance must be strict: a
tie, or a weak dominance, would drop candidates of degenerate games.  The
finder is complete for nondegenerate games; n-player mixed-equilibrium
search is out of scope (verification is n-player).

A system is its opponent support and the set of own rows restricted to it:
duplicate or reordered equations leave the reduced form, so the samples,
unchanged.  Per opponent support each distinct restricted row has one bit,
and the memo keys a set of rows by the OR of their bits.  The support's
rows all earn u, so one best-response test on a sample's payoffs to every
own strategy serves every own support of the system.  A support one
strategy larger than one whose system has at most one solution is not
solved: an added equation only shrinks the solution set, so it keeps that
solution iff the added row earns u there.  Stability and expected payoffs
are sums over the two kept payoff vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, and_, eq, gt, mul
from typing import Optional, Sequence, Union

from .errors import SemanticError
from .game import (LogicalGame, MixedProfile, Profile, StrategicGame, dirac,
                   logical_to_strategic)

Game = Union[StrategicGame, LogicalGame]


def _as_table(game: Game) -> StrategicGame:
    return logical_to_strategic(game) if isinstance(game, LogicalGame) else game


def pure_ne_scan(game: Game) -> list[Profile]:
    """All pure Nash equilibria, in profile order, by a best-response scan:
    a profile is one iff each player's payoff there is the largest the
    player earns against the same opponents.

    Player i's column of the integer payoffs (`integer_payoffs`) is in
    profile order; the profiles that differ only in i's strategy are k_i
    slices of it, one stride apart, so their maxima come from one pass per
    block of k_i slices."""
    table = _as_table(game)
    profiles = list(table.profiles())
    if not profiles:    # a player has no strategy
        return []
    stable = [True] * len(profiles)
    stride = len(profiles)
    for (_, column), k in zip(table.integer_payoffs, table.strategy_counts):
        stride //= k
        best = []
        for base in range(0, len(column), k * stride):
            slices = (column[start:start + stride]
                      for start in range(base, base + k * stride, stride))
            best += list(map(max, zip(*slices))) * k
        stable = list(map(and_, stable, map(eq, column, best)))
    return list(itertools.compress(profiles, stable))


def _contract(column, weights, counts, player):
    """Player's column (row-major over `counts`) weighted by every other
    player's weights and summed over their axes: one entry per own strategy.

    Axes after the player's go last to first, each then the last axis left,
    so a strategy's entries are a strided slice; axes before it go first to
    last, each then the first axis left, so they are a contiguous slice.
    Zero weights are skipped."""
    for j in [*range(len(counts) - 1, player, -1), *range(player)]:
        c = counts[j]
        size = len(column) // c
        total = [0] * size
        for s, w in enumerate(weights[j]):
            if w:
                part = column[s::c] if j > player else column[s * size:(s + 1) * size]
                total = list(map(add, total, map(mul, part, itertools.repeat(w))))
        column = total
    return column


def _payoff_sums(table: StrategicGame,
                 profile: MixedProfile) -> tuple[tuple[Fraction, ...], bool]:
    """Each player's expected payoff under `profile`, and whether no pure
    deviation pays any player more, from the integer payoffs.

    The sums are of integers: player i's payoffs as numerators over their
    level L_i (`integer_payoffs`), each probability vector as numerators w_j
    over its own lcm D_j.  Row i holds, per pure strategy s of i, the
    payoffs times the other players' weights, summed over the profiles in
    which i plays s (`_contract`).  Player i earns sum_s w_i[s] * row[s]
    over L_i and every D_j, and no deviation pays i more iff
    max(row) * D_i <= that sum.
    """
    probabilities = profile.probabilities
    counts = table.strategy_counts
    if tuple(len(v) for v in probabilities) != counts:
        raise SemanticError("mixed profile does not match the game's strategy counts")
    scales = [lcm(*(p.denominator for p in vector)) for vector in probabilities]
    weights = [[p.numerator * (d // p.denominator) for p in vector]
               for vector, d in zip(probabilities, scales)]
    levels = [level for level, _ in table.integer_payoffs]
    rows = [_contract(column, weights, counts, i)
            for i, (_, column) in enumerate(table.integer_payoffs)]
    totals = [sum(map(mul, vector, row)) for vector, row in zip(weights, rows)]
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
    rational equation by its lcm first), and any other entry is a TypeError.

    Returns None when inconsistent; otherwise a particular solution plus a
    basis of the nullspace (empty iff the solution is unique), read off the
    reduced row echelon form (`_solve`).
    """
    m = [[*row, b] for row, b in zip(rows, rhs)]
    # Exact division floors a non-integral entry to a wrong point, silently.
    if not set(map(type, itertools.chain.from_iterable(m))) <= {int}:
        raise TypeError("solve_linear takes int entries only")
    solution = _solve(m)
    return solution if solution is None else LinearSolution(*solution)


def _solve(m: list[list[int]]) -> Optional[tuple[list[int], list[list[int]], int]]:
    """`solve_linear` on the augmented matrix [A | b] of int entries, which
    it overwrites: (particular, directions, denominator), or None when
    inconsistent.  Fraction-free Gauss-Jordan elimination (Bareiss) ends at
    d times the reduced row echelon form, d the last pivot, with every entry
    an integer minor on the way."""
    n_rows = len(m)
    n_cols = len(m[0]) - 1 if n_rows else 0
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
    return particular, nullspace, sign * previous


# --- 2-player support enumeration ---------------------------------------------

@dataclass(frozen=True)
class MixedCandidate:
    profile: MixedProfile
    payoffs: tuple[Fraction, ...]
    degenerate: bool


def _indifference_samples(payoffs, level, own_support, other_support, restricted=None):
    """Solve the system making `own_support` indifferent against a mix over
    `other_support` (unknowns: the mix, then u, whose column holds -level).
    `restricted` holds every row of `payoffs` restricted to `other_support`,
    when the caller has them; the caller checks that every entry is an int.

    Returns whether it has at most one solution, and the samples that are
    positive and earn no own strategy more than u: (the mix as lowest-terms
    numerators over all opponent strategies, their denominator, degenerate,
    each own strategy's payoff against it, the largest).  A rank-deficient
    system is sampled at its particular solution and at steps 1, -1, 1/2,
    1/4 along each free direction, flagged degenerate."""
    if restricted is None:
        restricted = [[row[j] for j in other_support] for row in payoffs]
    k = len(other_support)
    system = [[*restricted[i], -level, 0] for i in own_support]
    system.append([1] * k + [0, 1])
    solution = _solve(system)
    if solution is None:
        return True, []
    particular, directions, _ = solution
    point = particular[:k]
    samples = []
    for mix in [point] + [[4 * x + step * d for x, d in zip(point, direction)]
                          for direction in directions for step in (4, -4, 2, 1)]:
        if min(mix) <= 0:
            continue
        g = gcd(*mix)
        if g != 1:
            mix = [x // g for x in mix]
        values = [sum(map(mul, row, mix)) for row in restricted]
        top = max(values)
        if top == values[own_support[0]]:
            probs = [0] * len(payoffs[0])
            for j, x in zip(other_support, mix):
                probs[j] = x
            # The mix sums to one: its numerators sum to its denominator.
            samples.append((tuple(probs), sum(mix), bool(directions), values, top))
    return not directions, samples


def _system_memo(payoffs, level):
    """`samples(own_support, other_support)`: `_indifference_samples`'s kept
    samples, with each distinct system solved once (see the module docstring).

    Per other support, each distinct restricted own row gets one bit, so a
    set of restricted rows is the OR of its rows' bits."""
    systems = {}    # per other support: (restricted rows, their bits, memo by set)

    def samples(own_support, other_support):
        system = systems.get(other_support)
        if system is None:
            restricted = [tuple(row[j] for j in other_support) for row in payoffs]
            index = {}
            bits = [1 << index.setdefault(row, len(index)) for row in restricted]
            system = systems[other_support] = restricted, bits, {}
        restricted, bits, memo = system
        key = 0
        for i in own_support:
            key |= bits[i]
        found = memo.get(key)
        if found is None:
            for i in own_support:
                rest = 0
                for s in own_support:
                    if s != i:
                        rest |= bits[s]
                smaller = memo.get(rest)
                if smaller and smaller[0]:
                    # Row i's equation keeps the one solution iff row i earns its top.
                    found = True, [s for s in smaller[1] if s[3][i] == s[4]]
                    break
            else:
                found = _indifference_samples(payoffs, level, own_support, other_support,
                                              restricted)
            memo[key] = found
        return found[1]
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
    n1, n2 = table.strategy_counts
    (row_level, row_column), (col_level, col_column) = table.integer_payoffs
    # `_solve` divides exactly: it would floor a non-integral entry to a wrong point.
    if not {type(row_level), type(col_level), *map(type, row_column),
            *map(type, col_column)} <= {int}:
        raise TypeError("support enumeration takes int payoff numerators only")
    # Rows are each player's own strategies.
    row_payoffs = [list(row_column[i * n2:(i + 1) * n2]) for i in range(n1)]
    col_payoffs = [list(col_column[j::n2]) for j in range(n2)]

    # Per opponent support, the own strategies no own strategy strictly beats
    # on it; a pair with a support outside these sets has no candidate.
    allowed1 = _undominated(row_payoffs, n2)
    allowed2 = _undominated(col_payoffs, n1)
    outside1 = {sup2: ~_mask(allowed) for sup2, allowed in allowed1.items()}
    supports2 = {allowed: _supports(allowed) for allowed in set(allowed2.values())}
    row_samples = _system_memo(row_payoffs, row_level)
    col_samples = _system_memo(col_payoffs, col_level)

    # Each candidate's support is its pair's, and a pair's samples are
    # distinct points, so no profile is found twice.
    found = []
    for sup1 in _supports(range(n1)):
        mask = _mask(sup1)
        for sup2 in supports2[allowed2[sup1]]:
            if mask & outside1[sup2]:
                continue
            q_samples = row_samples(sup1, sup2)
            p_samples = col_samples(sup2, sup1) if q_samples else ()
            for q, q_den, deg_q, row_values, row_top in q_samples:
                for p, p_den, deg_p, col_values, col_top in p_samples:
                    # The stability test of `_payoff_sums`: max(row) * D <= sum w * row.
                    row_sum = sum(map(mul, p, row_values))
                    col_sum = sum(map(mul, q, col_values))
                    if row_top * p_den <= row_sum and col_top * q_den <= col_sum:
                        found.append((p, p_den, q, q_den, row_sum, col_sum, deg_q or deg_p))

    # In Fraction order, from each player's mixes over one lcm.
    p_scale, q_scale = lcm(*(c[1] for c in found)), lcm(*(c[3] for c in found))
    found.sort(key=lambda c: ([x * (p_scale // c[1]) for x in c[0]],
                              [x * (q_scale // c[3]) for x in c[2]]))
    made = {}   # each probability, by (numerator, denominator)

    def fractions(numerators, denominator):
        out = []
        for x in numerators:
            value = made.get((x, denominator))
            if value is None:
                value = made[x, denominator] = Fraction(x, denominator)
            out.append(value)
        return tuple(out)

    return [MixedCandidate(MixedProfile._unchecked((fractions(p, p_den), fractions(q, q_den))),
                           (Fraction(row_sum, row_level * p_den * q_den),
                            Fraction(col_sum, col_level * p_den * q_den)), degenerate)
            for p, p_den, q, q_den, row_sum, col_sum, degenerate in found]


def _mask(strategies) -> int:
    return sum(1 << s for s in strategies)


def _supports(strategies) -> list[tuple[int, ...]]:
    """The nonempty subsets of `strategies`, by size, then lexicographically."""
    return [s for size in range(1, len(strategies) + 1)
            for s in itertools.combinations(strategies, size)]


def _undominated(payoffs, other_count) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map each support of the opponent to the own strategies (rows of
    `payoffs`) that no own strategy strictly beats at every column of it."""
    bits = [1 << j for j in range(other_count)]
    # covered[i]: every column mask at all of which some own strategy beats i.
    covered = []
    for row in payoffs:
        masks = set()
        for other in payoffs:
            beats = sum(itertools.compress(bits, map(gt, other, row)))
            # A mask already covered was a submask of one whose submasks are in.
            if beats not in masks:
                sub = beats
                while sub:
                    masks.add(sub)
                    sub = (sub - 1) & beats
        covered.append(masks)
    return {support: tuple(i for i, masks in enumerate(covered) if m not in masks)
            for support, m in ((s, _mask(s)) for s in _supports(range(other_count)))}


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
