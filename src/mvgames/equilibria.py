"""Propositional encodings of pure and mixed Nash equilibria.

Pure equilibria: for each player i and each of her strategies, one conjunct
"payoff after switching to that strategy -> payoff as played"; since
implication hits 1 exactly on <=, the big conjunction gamma is satisfied by
a strategy profile iff no unilateral deviation profits.  Expressible games
substitute truth constants for the deviating strategy's values; weakly
expressible games route them through auxiliary variables q_a pinned to the
value a by pseudo-characteristic formulas.  An existence formula conjoins
gamma with a disjunction asserting that the variables spell out some
strategy profile, so it is satisfiable iff a pure equilibrium exists; for
full games the membership disjunction is redundant and dropped.  Deciding
fixes each q_a to a, where the block of pseudo-characteristic formulas is
1, so it compiles the deviation conjuncts alone; the block is built when
gamma is first read, to be printed.

Mixed equilibria need truncated addition and product, i.e. an algebra
expanding the standard MV-algebra with the product connective.  One fresh
variable per (player, strategy) carries the probability; a partition-of-
unity formula is satisfied exactly by vectors summing to 1, and the expected
payoff of a player is the truncated sum over profiles of (payoff formula
with strategy constants substituted) * (product of the profile's probability
variables).  Because payoffs live in [0,1] and the profile probabilities sum
to 1, no truncation ever bites and the formula value equals the exact
real-arithmetic expectation.  Games over smaller algebras are first lifted
along a subreduct embedding into a catalog algebra that has the product and
the required truth constants.  The formula depends on the game alone: it
is built and compiled once per game and runs once per profile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import formula as fm
from .algebra import ONE, Algebra, catalog_lookup, format_rational, is_subreduct
from .chars import pseudo_char
from .errors import SemanticError
from .game import (GameFlags, LogicalGame, MixedProfile, ValueTuple, classify,
                   relevant_elements)
from .formula import App, Const, Subst, Var, conj_all, disj_all, odot_all, oplus_all


def _fresh(base: str, taken: set[str]) -> str:
    """`base`, prefixed with underscores until it is not taken; then taken."""
    name = base
    while name in taken:
        name = "_" + name
    taken.add(name)
    return name


@dataclass(frozen=True)
class PureNEEncoding:
    """Gamma of a logical game, held as its deviation conjunction
    /\\_{i,s} (phi_i(s) -> phi_i(v)); on the weak route each s plugs in
    q_a for a, and gamma conjoins the chi block /\\_a chi_a(q_a) before it."""
    game: LogicalGame
    deviations: fm.Formula
    full: Optional[bool]             # from `classify`: membership is redundant
    aux_q: dict[Fraction, str]       # empty in the expressible variant
    variant: str                     # "EXPRESSIBLE" | "WEAKLY_EXPRESSIBLE"

    @cached_property
    def gamma(self) -> fm.Formula:
        """The deviations, after the chi block on the weak route; built on
        first read, since deciding reads the deviations alone."""
        if self.variant == "EXPRESSIBLE":
            return self.deviations
        chi_block = conj_all(pseudo_char(self.game.algebra, a, name)
                             for a, name in self.aux_q.items())
        return App("and", (chi_block, self.deviations))

    @cached_property
    def existence(self) -> fm.Formula:
        """Gamma, conjoined with membership unless the game is full; built on
        first read, since deciding reads neither."""
        return self.gamma if self.full else App("and", (_membership(self.game), self.gamma))

    @cached_property
    def gamma_program(self) -> fm.Program:
        """The deviations, compiled once for every profile with each q_a
        fixed to a.  There chi_a(q_a) is 1, so this program gives gamma's
        values: compiled, the chi block would fold to 1 and leave no slot."""
        return fm.Program([self.deviations], self.game.algebra, self.game.payoff_table,
                          fixed={name: a for a, name in self.aux_q.items()})

    @cached_property
    def literal_program(self) -> fm.Program:
        """`gamma_program` with no table, each call its literal copy: it runs per profile."""
        return fm.Program([self.deviations], self.game.algebra,
                          fixed={name: a for a, name in self.aux_q.items()})


def _gamma_conjuncts(lg: LogicalGame, node_at: dict) -> list[fm.Formula]:
    """One conjunct per (player, strategy s): phi_i(node_at[s]) -> phi_i(v),
    where node_at maps each value in s to the node plugged in for it; as
    `Subst`s, every conjunct deviating to one profile shares phi_i's run."""
    conjuncts = []
    for i, phi in enumerate(lg.payoff_formulas):
        names = lg.variables[i]
        played = Subst(phi, ())
        for strategy in lg.strategies[i]:
            deviated = Subst(phi, tuple((name, node_at[value])
                                        for name, value in zip(names, strategy)))
            conjuncts.append(App("imp", (deviated, played)))
    return conjuncts


def _membership(lg: LogicalGame) -> fm.Formula:
    """\\/ over profiles s of /\\ chi_{s_i^j}(v_i^j): pins v to some profile."""
    relevant = relevant_elements(lg)
    chi_at = {(name, a): pseudo_char(lg.algebra, a, name)
              for block in lg.variables for name in block for a in relevant}
    return disj_all(conj_all(chi_at[name, value]
                             for block, tup in zip(lg.variables, profile)
                             for name, value in zip(block, tup))
                    for profile in lg.profiles())


def _build_pure(lg: LogicalGame, flags: GameFlags, weak: bool) -> PureNEEncoding:
    """The deviations, plugging in for each relevant element a its truth
    constant, or on the weak route a fresh q_a, which gamma pins to a."""
    relevant, taken = flags.relevant, set(lg.all_variables)
    aux_q = {a: _fresh(f"q_{a.numerator}_{a.denominator}", taken)
             for a in relevant} if weak else {}
    deviations = conj_all(_gamma_conjuncts(
        lg, {a: Var(aux_q[a]) if weak else Const(a) for a in relevant}))
    return PureNEEncoding(lg, deviations, flags.full, aux_q,
                          "WEAKLY_EXPRESSIBLE" if weak else "EXPRESSIBLE")


def build_gamma(lg: LogicalGame, flags: Optional[GameFlags] = None) -> PureNEEncoding:
    """Constant-substitution encoding; needs a truth constant per relevant
    element.  `flags` is `classify(lg)`, where the caller has it."""
    flags = classify(lg) if flags is None else flags
    if not flags.expressible:
        raise SemanticError(
            f"game over {lg.algebra.id} is not expressible; use build_gamma_weak")
    return _build_pure(lg, flags, weak=False)


def build_gamma_weak(lg: LogicalGame, flags: Optional[GameFlags] = None) -> PureNEEncoding:
    """Auxiliary-variable encoding; q_a variables play the role of constants.
    Its chi block, which pins each q_a to a, is built on the first read of
    `gamma`.  `flags` is `classify(lg)`, where the caller has it."""
    flags = classify(lg) if flags is None else flags
    if not flags.weakly_expressible:
        raise SemanticError(f"game over {lg.algebra.id} is not weakly expressible")
    return _build_pure(lg, flags, weak=True)


def build_encoding(lg: LogicalGame) -> PureNEEncoding:
    """Constant route when available, otherwise the auxiliary-variable route;
    the game is classified once."""
    flags = classify(lg)
    return (build_gamma if flags.expressible else build_gamma_weak)(lg, flags)


def satisfies_gamma(enc: PureNEEncoding, profile: Sequence[ValueTuple]) -> bool:
    """Gamma as printed at the profile, each call its literal copy and each q_a pinned to a."""
    return enc.literal_program.run(enc.game.assignment(profile))[0] == ONE


def decide_pure_ne(lg: LogicalGame,
                   enc: Optional[PureNEEncoding] = None
                   ) -> tuple[list[tuple[ValueTuple, ...]], bool]:
    """All gamma-satisfying strategy profiles, in the game's profile order,
    which is sorted since each strategy set is, plus the SAT verdict.

    Enumerating the strategy space is complete: the existence formula's
    membership disjunct confines satisfying assignments to profiles.  Gamma's
    program runs once over all the rows of the payoff table
    (`Program.over_rows`), each call a fold, a gather or its literal copy,
    each variable its block's column.
    """
    if enc is None:
        enc = build_encoding(lg)
    scale, (gamma,) = enc.gamma_program.over_rows(enc.game.payoff_table)
    found = list(itertools.compress(lg.profiles(), (v == scale for v in gamma)))
    return found, bool(found)


# --- mixed equilibria ---------------------------------------------------------

def build_prob_distr(variables: Sequence[str]) -> fm.Formula:
    """Partition-of-unity formula: satisfied iff the variables sum to exactly 1.

    For a single variable this degenerates to the variable itself (forced
    to 1); the general shape needs at least two summands.
    """
    names = [Var(v) for v in variables]
    if not names:
        raise SemanticError("a probability block needs at least one variable")
    if len(names) == 1:
        return names[0]
    total = oplus_all(names)
    caps = [App("imp", (oplus_all(names[:i] + names[i + 1:]), App("neg", (p,))))
            for i, p in enumerate(names)]
    return conj_all([total] + caps)


@dataclass(frozen=True)
class MixedNEEncoding:
    game: LogicalGame
    algebra: Algebra                              # expands STD_PL
    prob_vars: tuple[tuple[str, ...], ...]        # per player, lexicographic
    trace: tuple[tuple[str, fm.Formula], ...]     # probdistr_i, expected_i, dev_i_r, formula
    full: fm.Formula

    @cached_property
    def program(self) -> fm.Program:
        """Every trace root, compiled once for every profile.  The payoff
        formulas compile first, in the game's own algebra, so a formula that
        is not one of its terms raises there and not in the lifted algebra."""
        table = self.game.payoff_table
        table.program
        return fm.Program([root for _, root in self.trace], self.algebra, table)

    def assignment(self, profile: MixedProfile) -> dict[str, Fraction]:
        if len(profile.probabilities) != len(self.prob_vars):
            raise SemanticError(f"profile has {len(profile.probabilities)} probability "
                                f"vectors for {len(self.prob_vars)} players")
        out = {}
        for i, block in enumerate(self.prob_vars):
            if len(block) != len(profile.probabilities[i]):
                raise SemanticError(
                    f"player {i + 1}: profile has {len(profile.probabilities[i])} "
                    f"entries for {len(block)} strategies")
            out.update(zip(block, profile.probabilities[i]))
        return out


def lift_algebra_for_mixed(lg: LogicalGame) -> Algebra:
    """First catalog expansion of the standard PL-algebra, smallest first, that
    contains the game's algebra as a subreduct and a constant per relevant element.
    A game already over a product algebra keeps its own algebra.  Candidates
    agree on every shared connective, so the formula never depends on which."""
    candidates = [lg.algebra] + [catalog_lookup(name) for name in
                                 ("STD_PL", "STD_PL_DELTA", "STD_QPL_DELTA", "STD_LPIH")]
    for candidate in candidates:
        if "odot" not in candidate.ops or candidate.family != "mv":
            continue
        if not is_subreduct(lg.algebra, candidate):
            continue
        if all(candidate.has_constant(a) for a in relevant_elements(lg)):
            return candidate
    raise SemanticError(
        f"no catalog product-algebra expansion accommodates {lg.algebra.id}")


def build_mixed_encoding(lg: LogicalGame) -> MixedNEEncoding:
    """The game's mixed-equilibrium encoding: built on the first call and kept
    on the game, as its payoff table is, since it depends on the game alone."""
    if "_mixed" in lg.__dict__:
        return lg._mixed
    alg = lift_algebra_for_mixed(lg)
    taken = set(lg.all_variables)
    prob_vars = tuple(tuple(_fresh(f"p_{i + 1}__{rank}", taken) for rank in range(len(block)))
                      for i, block in enumerate(lg.strategies))
    prob = [[Var(name) for name in block] for block in prob_vars]

    # One pass over the profiles in rank order: i's payoff with the profile's
    # constants plugged in, times everyone's probabilities (one product) in
    # expected[i] and times the others' in the deviation sum for i's strategy.
    n = lg.n_players
    terms = [[] for _ in range(n)]
    dev_terms = [[[] for _ in block] for block in lg.strategies]
    for ranks in itertools.product(*[range(len(b)) for b in lg.strategies]):
        values = tuple((name, Const(x)) for i, rank in enumerate(ranks)
                       for name, x in zip(lg.variables[i], lg.strategies[i][rank]))
        probs = [prob[j][rank] for j, rank in enumerate(ranks)]
        everyone = odot_all(probs)
        for i, phi in enumerate(lg.payoff_formulas):
            plugged = Subst(phi, values)
            terms[i].append(App("odot", (plugged, everyone)))
            dev_terms[i][ranks[i]].append(App("odot", (plugged, odot_all(
                probs[:i] + probs[i + 1:]))))
    expected = tuple(oplus_all(parts) for parts in terms)

    prob_distr = tuple(build_prob_distr(block) for block in prob_vars)
    trace, player_conjuncts = [], []
    for i in range(n):
        deviations = [App("imp", (oplus_all(parts), expected[i])) for parts in dev_terms[i]]
        trace += [(f"probdistr_{i + 1}", prob_distr[i]), (f"expected_{i + 1}", expected[i])]
        trace += [(f"dev_{i + 1}_{rank}", dev) for rank, dev in enumerate(deviations)]
        player_conjuncts.append(conj_all([prob_distr[i]] + deviations))
    full = conj_all(player_conjuncts)
    trace.append(("formula", full))
    object.__setattr__(lg, "_mixed", MixedNEEncoding(lg, alg, prob_vars, tuple(trace), full))
    return lg._mixed


def check_mixed_ne(lg: LogicalGame, profile: MixedProfile,
                   enc: Optional[MixedNEEncoding] = None,
                   ) -> tuple[bool, list[tuple[str, Fraction]]]:
    """Evaluate the mixed-equilibrium formula at a rational profile.

    Returns the verdict (formula value 1) and the value of each trace root,
    from one run of the encoding's program: the formula is built and
    compiled once per game and runs once per profile.  Payoff values come
    from the game's payoff table, computed in the game's algebra; they are
    those of the lifted algebra, of which the game's is a subreduct.
    """
    if enc is None:
        enc = build_mixed_encoding(lg)
    values = enc.program.run(enc.assignment(profile))
    return values[-1] == ONE, [(name, v) for (name, _), v in zip(enc.trace, values)]


def format_trace(trace) -> str:
    return "\n".join(f"{key} {format_rational(value)}" for key, value in trace)
