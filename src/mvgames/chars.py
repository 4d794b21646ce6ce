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

Each gadget is split into its rule and its build.  The rule makes the
checks on one value and chooses the route, and raises what the gadget
raises; it tests values on their integer numerators, with no `Fraction`
arithmetic.  The build makes the formula on one variable.  A caller that
needs a gadget on many variables derives its rule once per value
(`characteristic_rule`, `zeta_rule`) and builds it per variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .algebra import Algebra
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
    m, n = a.numerator, a.denominator
    if m == n:
        return Var
    if m == 0 and "imp" in alg.ops:
        # Evaluates as v -> 0 where negation is derived.
        return lambda variable: app("neg", Var(variable))
    if alg.has_constant(a):
        def chi(variable):
            v, bar = Var(variable), Const(a)
            return app("and", app("imp", v, bar), app("imp", bar, v))
        return chi
    if alg.family == "mv":
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
    return characteristic_rule(alg, Fraction(a))(variable)


def characteristic_rule(alg: Algebra, a: Fraction):
    """The rule `characteristic` builds delta_a by, as a function of the
    variable's name.  The route is chosen before chi_a's rule is derived,
    so a value with no route raises "no characteristic formula" here, as
    `characteristic` does, never chi_a's error."""
    if not alg.contains(a):
        raise SemanticError(f"{a} is not in the domain of {alg.id}")
    if alg.chain == 1:
        # Two-element domain: any pseudo-characteristic formula is characteristic.
        return _chi_rule(alg, a)
    if "delta" in alg.ops:
        chi = _chi_rule(alg, a)
        return lambda variable: app("delta", chi(variable))
    if alg.family == "mv" and alg.chain is not None:
        # On the chain with denominator n, values below 1 are <= (n-1)/n, so
        # the n-fold strong conjunction collapses them to 0.
        chi, n = _chi_rule(alg, a), alg.chain

        def delta(variable):
            out = base = chi(variable)
            for _ in range(n - 1):
                out = app("and_strong", out, base)
            return out
        return delta
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
    p = _chain_level(m, a)
    if p is None or not 0 < p < m:
        raise SemanticError(f"zeta needs a = p/{m} strictly inside the chain, got {a}")
    return zeta_rule(m, b)(p, variable)


def zeta_rule(m: int, b: Fraction):
    """The rule `zeta` builds zeta by for the value `b` on the chain L_m, as
    a function of the integer p, a = p/m, and the variable's name: the
    q-fold truncated sum of the hat at p/m, where b = q/m.  The checks on
    `m` and `b` run here, once per value; p must lie strictly inside the
    chain, as `zeta` checks."""
    if not is_prime(m):
        raise SemanticError(f"zeta needs a prime chain size, got {m}")
    q = _chain_level(m, b)
    if q is None or not 0 <= q <= m:
        raise SemanticError(f"zeta needs b on the chain with denominator {m}, got {b}")
    return lambda p, variable: oplus_all([mcnaughton_hat(p, m, variable)] * q)


def _chain_level(m: int, value: Fraction):
    """The integer k with value = k/m, or None where there is none."""
    n, d = value.numerator, value.denominator
    return n * (m // d) if m % d == 0 else None
