"""Named sample games: strategic tables, logical forms, and their pairings.

Four entries, each a small bundle of the strategic game, a hand-written
logical form where one exists, and the representation tying them together:

* new_technology(c): three firms decide whether to adopt a technology worth
  a competitive edge c; zero-sum, unique pure equilibrium "all adopt".  The
  logical form lives on the 5-element Lukasiewicz chain with constants.
* matching_pennies: the classic 2x2 game, payoffs rescaled to {0,1} by
  x -> x/2 + 1/2 (the engine-side binary-representation input).
* love_and_hate(n, m): an even cycle of players on the chain 0..m/m; odd
  players want circle-distance 1/2 from their successor, even players want
  to match theirs.  Logical form on the constant-free chain L_m.
* vickrey(p, t, step): second-price sealed-bid auction with true values p_i
  and bids on a rational grid inside [0, t]; the logical form encodes bids
  into [1/2, 1] and needs rational constants plus delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import catalog_lookup
from .errors import SemanticError
from .formula import App, Const, Formula, Var, app, disj_all
from .game import LogicalGame, StrategicGame, make_game
from .represent import Affine, Representation


@dataclass(frozen=True)
class CorpusBundle:
    name: str
    strategic: StrategicGame
    logical: Optional[LogicalGame]
    representation: Optional[Representation]


# --- New Technology -------------------------------------------------------------

def new_technology(c: Fraction = Fraction(1)) -> CorpusBundle:
    c = Fraction(c)
    if c <= 0:
        raise SemanticError("the competitive edge c must be positive")

    def payoff_vector(profile):
        return tuple(c * (Fraction(a) - Fraction(b + d, 2))
                     for a, b, d in ((profile[0], profile[1], profile[2]),
                                     (profile[1], profile[0], profile[2]),
                                     (profile[2], profile[0], profile[1])))

    strategic = make_game((2, 2, 2), payoff_vector,
                          names=[("stay_put", "adopt")] * 3)
    alg = catalog_lookup("L_4_C")
    half, quarter = Const(Fraction(1, 2)), Const(Fraction(1, 4))
    variables = (("v1",), ("v2",), ("v3",))

    def payoff_formula(own: str, other1: str, other2: str) -> Formula:
        gain = app("oplus", half, App("and", (half, Var(own))))
        loss = app("oplus", App("and", (quarter, Var(other1))),
                   App("and", (quarter, Var(other2))))
        return app("ominus", gain, loss)

    formulas = (payoff_formula("v1", "v2", "v3"),
                payoff_formula("v2", "v1", "v3"),
                payoff_formula("v3", "v1", "v2"))
    strategies = tuple(((Fraction(0),), (Fraction(1),)) for _ in range(3))
    logical = LogicalGame(alg, variables, strategies, formulas)
    rep = Representation(strategic, logical, strategies, Affine(2 * c, -c))
    return CorpusBundle("new_technology", strategic, logical, rep)


# --- Matching Pennies -----------------------------------------------------------

def matching_pennies() -> CorpusBundle:
    def payoff_vector(profile):
        match = Fraction(1) if profile[0] == profile[1] else Fraction(0)
        return (match, 1 - match)

    strategic = make_game((2, 2), payoff_vector, names=[("h", "t")] * 2)
    return CorpusBundle("matching_pennies", strategic, None, None)


# --- Love and Hate --------------------------------------------------------------

def _eta(x: Formula, y: Formula) -> Formula:
    theta = App("or", (app("neg", app("imp", x, y)), app("neg", app("imp", y, x))))
    tent = App("and", (theta, app("neg", theta)))
    return App("oplus", (tent, tent))


def love_and_hate(n: int, m: int) -> CorpusBundle:
    if n < 2 or n % 2:
        raise SemanticError("love_and_hate needs an even number of players >= 2")
    if m < 2 or m % 2:
        raise SemanticError("love_and_hate needs an even chain size >= 2")

    # Strategies s and t are s/m and t/m on the chain; with d = |s - t| their
    # circle gap is 2 min(d, m - d) / m.  Player i + 1 is paid the gap to its
    # successor for even i, and one minus it for odd i.
    love = [Fraction(2 * min(d, m - d), m) for d in range(m + 1)]
    hate = [1 - gap for gap in love]

    def payoff_vector(profile):
        return tuple((hate if i % 2 else love)[abs(s - profile[(i + 1) % n])]
                     for i, s in enumerate(profile))

    strategic = make_game(
        (m + 1,) * n, payoff_vector,
        names=[tuple(str(Fraction(s, m)) for s in range(m + 1))] * n)
    alg = catalog_lookup("L_n", m)
    variables = tuple((f"v{i + 1}",) for i in range(n))
    formulas = []
    for i in range(n):
        successor = Var(f"v{(i + 1) % n + 1}")
        eta = _eta(Var(f"v{i + 1}"), successor)
        formulas.append(eta if i % 2 == 0 else app("neg", eta))
    chain = tuple((Fraction(s, m),) for s in range(m + 1))
    strategies = (chain,) * n
    logical = LogicalGame(alg, variables, strategies, tuple(formulas))
    rep = Representation(strategic, logical, strategies, Affine(1, 0))
    return CorpusBundle("love_and_hate", strategic, logical, rep)


# --- Vickrey auction ------------------------------------------------------------

def vickrey(values: Sequence[Fraction], t: Fraction, step: Fraction) -> CorpusBundle:
    values = [Fraction(p) for p in values]
    t = Fraction(t)
    step = Fraction(step)
    n = len(values)
    if n < 2:
        raise SemanticError("an auction needs at least 2 bidders")
    if any(p < 0 for p in values):
        raise SemanticError("true values must be non-negative")
    if t <= max(values):
        raise SemanticError("the bidding cap t must exceed every true value")
    if step <= 0 or (t / step).denominator != 1:
        raise SemanticError("the grid step must divide t")
    grid_size = int(t / step)
    bids = [k * step for k in range(grid_size + 1)]

    def payoff_vector(profile):
        chosen = [bids[k] for k in profile]
        top = max(chosen)
        winner = chosen.index(top)
        out = [Fraction(0)] * n
        out[winner] = values[winner] - max(b for j, b in enumerate(chosen) if j != winner)
        return tuple(out)

    strategic = make_game((grid_size + 1,) * n, payoff_vector,
                          names=[tuple(str(b) for b in bids)] * n)

    alg = catalog_lookup("STD_QL_DELTA")
    variables = tuple((f"v{i + 1}",) for i in range(n))
    all_vars = [Var(f"v{i + 1}") for i in range(n)]
    formulas = []
    half = Const(Fraction(1, 2))
    for i in range(n):
        kappa = disj_all(v for j, v in enumerate(all_vars) if j != i)
        top_bid = disj_all(all_vars)
        earlier = disj_all(all_vars[:i])
        iota = App("and", (
            app("delta", app("imp", top_bid, all_vars[i])),
            app("neg", app("delta", app("imp", all_vars[i], earlier)))))
        r_i = Const((t + values[i]) / (2 * t))
        gain = app("oplus", half, App("and", (iota, app("ominus", r_i, kappa))))
        loss = App("and", (iota, app("ominus", kappa, r_i)))
        formulas.append(app("ominus", gain, loss))

    def encode(bid: Fraction) -> Fraction:
        return (t + bid) / (2 * t)

    coding = tuple(tuple((encode(b),) for b in bids) for _ in range(n))
    logical = LogicalGame(alg, variables, coding, tuple(formulas))
    rep = Representation(strategic, logical, coding, Affine(2 * t, -t))
    return CorpusBundle("vickrey", strategic, logical, rep)
