r"""One-variable formulas that pin down individual truth values.

Three gadgets recur in every game encoding:

* pseudo-characteristic chi_a: value 1 exactly at a,
* characteristic delta_a: value 1 at a and 0 everywhere else,
* the hat xi_{m,n}: an MV-formula peaking with value exactly 1/n at m/n
  and strictly below 1/n elsewhere on [0,1].

With a truth constant for `a` available, chi_a(v) = (v -> a) /\ (a -> v)
works in any standard algebra.  Without constants, MV-type algebras still
admit chi_a for every rational a: n-fold truncated addition of the hat.
Characteristic formulas come either from the delta operator (D chi_a) or,
on a Lukasiewicz chain with n+1 elements, from the n-fold strong conjunction
of chi_a.  Irrational values admit none of these, which is one reason the
whole engine stays within the rationals.

The hat is built by walking the Stern-Brocot tree: starting from the hats
~v at 0 and v at 1, inserting the Farey mediant c of adjacent nodes a < b
turns the pair of hat formulas (L, R) into L /\ R at c, L - R at a, and
R - L at b.  The formulas produced share subterms, so their DAG size is
linear in the path length even though the printed tree is not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .algebra import ONE, ZERO, Algebra
from .errors import SemanticError
from .formula import Const, Formula, Var, app, oplus_all


def pseudo_char(alg: Algebra, a: Fraction, variable: str = "x") -> Formula:
    """One-variable formula whose value is 1 iff the variable equals `a`."""
    return _chi_rule(alg, Fraction(a))(variable)


def has_pseudo_char(alg: Algebra, a: Fraction) -> bool:
    """Does some one-variable formula pin the value `a` (see `pseudo_char`)?
    Decided by the rule alone; no formula is built."""
    try:
        _chi_rule(alg, Fraction(a))
    except SemanticError:
        return False
    return True


def _chi_rule(alg: Algebra, a: Fraction):
    """The rule `pseudo_char` builds chi_a by, as a function of the
    variable's name; raises where no rule pins `a`."""
    if not alg.contains(a):
        raise SemanticError(f"{a} is not in the domain of {alg.id}")
    if a == ONE:
        return Var
    if a == ZERO and "imp" in alg.ops:
        # Evaluates as v -> 0 where negation is derived.
        return lambda variable: app("neg", Var(variable))
    if alg.has_constant(a):
        def chi(variable):
            v, bar = Var(variable), Const(a)
            return app("and", app("imp", v, bar), app("imp", bar, v))
        return chi
    if alg.family == "mv":
        m, n = a.numerator, a.denominator
        return lambda variable: oplus_all([mcnaughton_hat(m, n, variable)] * n)
    raise SemanticError(f"no pseudo-characteristic formula for {a} in {alg.id}")


@lru_cache(maxsize=None)
def _hat_cached(m: int, n: int, variable: str) -> Formula:
    v = Var(variable)
    if (m, n) == (1, 1):
        return v
    left_node, right_node = Fraction(0), Fraction(1)
    left, right = app("neg", v), v
    target = Fraction(m, n)
    while True:
        mediant = Fraction(left_node.numerator + right_node.numerator,
                           left_node.denominator + right_node.denominator)
        peak = app("and", left, right)
        if mediant == target:
            return peak
        if target < mediant:
            left, right = app("ominus", left, right), peak
            right_node = mediant
        else:
            left, right = peak, app("ominus", right, left)
            left_node = mediant


def mcnaughton_hat(m: int, n: int, variable: str = "x") -> Formula:
    """Constant-free MV-formula valued exactly 1/n at m/n, below 1/n elsewhere."""
    if not (1 <= m <= n):
        raise SemanticError(f"hat needs 1 <= m <= n, got {m}/{n}")
    if gcd(m, n) != 1:
        raise SemanticError(f"hat needs gcd(m, n) = 1, got {m}/{n}")
    return _hat_cached(m, n, variable)


def characteristic(alg: Algebra, a: Fraction, variable: str = "x") -> Formula:
    """One-variable formula valued 1 at `a` and 0 at every other domain element."""
    a = Fraction(a)
    if not alg.contains(a):
        raise SemanticError(f"{a} is not in the domain of {alg.id}")
    if alg.chain == 1:
        # Two-element domain: any pseudo-characteristic formula is characteristic.
        return pseudo_char(alg, a, variable)
    if "delta" in alg.ops:
        return app("delta", pseudo_char(alg, a, variable))
    if alg.family == "mv" and alg.chain is not None:
        # On the chain with denominator n, values below 1 are <= (n-1)/n, so
        # the n-fold strong conjunction collapses them to 0.
        chi = pseudo_char(alg, a, variable)
        out = chi
        for _ in range(alg.chain - 1):
            out = app("and_strong", out, chi)
        return out
    raise SemanticError(f"no characteristic formula for {a} in {alg.id}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def zeta(m: int, a: Fraction, b: Fraction, variable: str = "x") -> Formula:
    """Constant-free formula taking value `b` at `a` on the (m+1)-element chain.

    `m` must be prime so that a = p/m is automatically in lowest terms; `a`
    must avoid the chain endpoints.
    """
    if not is_prime(m):
        raise SemanticError(f"zeta needs a prime chain size, got {m}")
    a, b = Fraction(a), Fraction(b)
    p, q = a * m, b * m
    if p.denominator != 1 or not 0 < p < m:
        raise SemanticError(f"zeta needs a = p/{m} strictly inside the chain, got {a}")
    if q.denominator != 1 or not 0 <= q <= m:
        raise SemanticError(f"zeta needs b on the chain with denominator {m}, got {b}")
    hat = mcnaughton_hat(int(p), m, variable)
    return oplus_all([hat] * int(q))
