"""Truth-value algebras over the rational unit interval.

Every algebra here is a "standard algebra": its domain is a set of rationals
in [0,1] containing 1, and the three mandatory binary connectives hit the
value 1 exactly when both arguments are 1 (and), at least one is 1 (or), or
the first is <= the second (imp).  All arithmetic is exact: truth values are
`fractions.Fraction` instances, so every operation table is reproducible
bit-for-bit.  Irrational truth values are unsupported by design.

The catalog covers the two-valued Boolean algebra, finite Godel and
Lukasiewicz chains (optionally with truth constants and the delta operator),
and the standard infinite-valued algebras with product / product-implication
expansions.  Algebras are immutable and all operations are pure functions.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .errors import InputError, SemanticError

ZERO = Fraction(0)
ONE = Fraction(1)

# Connective names with arities.  `bot`/`top` are the 0/1 truth constants
# present in every catalog language; other constants appear in formulas as
# explicit rational literals.
ARITY = {
    "and": 2,
    "or": 2,
    "imp": 2,
    "neg": 1,
    "and_strong": 2,
    "oplus": 2,
    "ominus": 2,
    "odot": 2,
    "imp_pi": 2,
    "delta": 1,
}

# Python's int/str digit limit: `Fraction` would expand a longer exponent
# in full, and could not print a longer numerator or denominator.
MAX_DIGITS = 4300
_TOO_LONG, _EXPONENT = 10 ** MAX_DIGITS, re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def parse_rational(text: str) -> Fraction:
    """Parse 'm/n', integer shorthand 'k' or a decimal such as '2.5e-3' into
    an exact rational; exponents and parts are bounded by MAX_DIGITS."""
    if not isinstance(text, str):
        raise InputError(f"bad rational literal {text!r}: expected a string like '1/2'")
    try:
        exp = _EXPONENT.search(text)
        value = None if exp and abs(int(exp[1])) > MAX_DIGITS else Fraction(text.strip())
        if value is None or max(abs(value.numerator), value.denominator) >= _TOO_LONG:
            raise ValueError(f"exponent or digits beyond {MAX_DIGITS}")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Lowest-terms 'm/n'; integers are printed bare."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:      # more digits than the interpreter prints: an input too large
        raise InputError("value too long to print (input too large)") from None


def as_truth_value(value) -> Fraction:
    """Validate and canonicalize a truth value (rational in [0,1])."""
    v = Fraction(value)
    if not ZERO <= v <= ONE:
        raise SemanticError(f"truth value {v} outside [0,1]")
    return v


# --- connective interpretations -------------------------------------------
# Function identity doubles as the "declared catalog relation" used by
# is_subreduct on infinite domains: two algebras agree on a connective iff
# they install the same interpretation function.

def _and(x, y):
    return min(x, y)


def _or(x, y):
    return max(x, y)


def _imp_luk(x, y):
    return min(ONE - x + y, ONE)


def _imp_godel(x, y):
    return ONE if x <= y else y


def _imp_bool(x, y):
    # Classical x -> y = not x or y; total only on {0,1}.
    return max(ONE - x, y)


def _neg_luk(x):
    return ONE - x


def _and_strong(x, y):
    return max(x + y - ONE, ZERO)


def _oplus(x, y):
    return min(x + y, ONE)


def _ominus(x, y):
    return max(x - y, ZERO)


def _odot(x, y):
    return x * y


def _imp_pi(x, y):
    return ONE if x <= y else y / x


def _delta(x):
    return ONE if x == ONE else ZERO


# Integer twins, keyed by function identity like is_subreduct: on numerators
# a, b over D, `INTEGER_TWINS[op](D)` returns the integer D * op(a/D, b/D)
# (see `formula`).  `_odot` and `_imp_pi` multiply and divide: no twin.
INTEGER_TWINS = {
    _and: lambda D: lambda a, b: a if a <= b else b,
    _or: lambda D: lambda a, b: b if a <= b else a,
    _imp_luk: lambda D: lambda a, b: D if a <= b else D - a + b,
    _imp_godel: lambda D: lambda a, b: D if a <= b else b,
    _imp_bool: lambda D: lambda a, b: D - a if D - a > b else b,
    _neg_luk: lambda D: lambda a: D - a,
    _and_strong: lambda D: lambda a, b: a + b - D if a + b > D else 0,
    _oplus: lambda D: lambda a, b: a + b if a + b < D else D,
    _ominus: lambda D: lambda a, b: a - b if a > b else 0,
    _delta: lambda D: lambda a: D if a == D else 0,
}

# struct codes of little-endian ints by size; wider lanes are packed by slicing bytes
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class Lanes:
    """Columns of `size` numerators over D in [0, D], each packed in one int
    (SWAR, "SIMD within a register": Lamport, CACM 1975; Knuth, TAOCP 4A,
    7.1.3).  Row i holds bits [i*w, (i+1)*w), w = 8 * `width` for the least
    width 1, 2, 4, 8, ... with 2D < 2^(w-1): a sum of two numerators stays
    below each lane's top bit, the guard.  `twins[op]` is `INTEGER_TWINS[op](D)`
    on such columns, a few whole-int operations that no lane borrows from or
    carries out of; `twins` takes unary ops as (a, a)."""

    def __init__(self, D: int, size: int):
        width = 1
        while 2 * D >= 1 << (8 * width - 1):
            width *= 2
        self.D, self.size, self.width = D, size, width
        self.ones = self.repunit(size, width)
        top = 8 * width - 1
        # the guard bit and D in every lane, and one lane of ones
        guard, D, full = self.ones << top, D * self.ones, (2 << top) - 1

        def ge(a, b):       # each lane all ones where a >= b, else 0
            return ((((a | guard) - b) & guard) >> top) * full

        def sat(a, b):      # max(a - b, 0)
            t = (a | guard) - b
            g = t & guard
            return t & (g - (g >> top))

        def low(a, b):
            return b ^ ((a ^ b) & ge(b, a))

        def high(a, b):
            return a ^ ((a ^ b) & ge(b, a))

        self.twins = {
            _and: low, _or: high, _ominus: sat,
            _imp_luk: lambda a, b: D - sat(a, b),
            _imp_godel: lambda a, b: b ^ ((D ^ b) & ge(b, a)),
            _imp_bool: lambda a, b: high(D - a, b),
            _neg_luk: lambda a, _: D - a,
            _and_strong: lambda a, b: sat(a + b, D),
            _oplus: lambda a, b: low(a + b, D),
            _delta: lambda a, _: D & ge(a, D),
        }

    @staticmethod
    def repunit(count: int, width: int) -> int:
        """1 in each of `count` lanes of `width` bytes."""
        return int.from_bytes((b"\1" + bytes(width - 1)) * count, "little")

    def pack(self, column) -> int:
        """The int whose lane i holds column[i]."""
        code = _CODES.get(self.width)
        if code is None:
            data = b"".join(v.to_bytes(self.width, "little") for v in column)
        else:
            data = struct.pack(f"<{self.size}{code}", *column)
        return int.from_bytes(data, "little")

    def unpack(self, packed: int) -> list[int]:
        """The numerators in the lanes of `packed`, row by row."""
        data, width = packed.to_bytes(self.size * self.width, "little"), self.width
        code = _CODES.get(width)
        if code is None:
            return [int.from_bytes(data[i:i + width], "little")
                    for i in range(0, len(data), width)]
        return list(struct.unpack(f"<{self.size}{code}", data))

    def gather(self, column: int, stride: int, count: int, t: int) -> int:
        """Row r + (t - s) * stride of `column` at each row r, s = (r // stride)
        % count: in each span of stride * count rows, its t-th run of stride
        rows repeated count times (a shift, a span mask, a repunit product)."""
        run = stride * self.width
        keep = int.from_bytes((b"\xff" * run + bytes(run * (count - 1)))
                              * (self.size // (stride * count)), "little")
        return ((column >> 8 * run * t) & keep) * self.repunit(count, run)


_MV_OPS = {
    "and": _and,
    "or": _or,
    "imp": _imp_luk,
    "neg": _neg_luk,
    "and_strong": _and_strong,
    "oplus": _oplus,
    "ominus": _ominus,
}

_GODEL_OPS = {"and": _and, "or": _or, "imp": _imp_godel}

_BOOL_OPS = {"and": _and, "or": _or, "imp": _imp_bool, "neg": _neg_luk}


@dataclass(frozen=True)
class Algebra:
    """A catalog standard algebra with exact rational operations.

    chain=n means the finite domain {0, 1/n, ..., 1}; chain=None means all
    rationals in [0,1] (membership predicate, not an enumerator).  constants
    says which truth constants the language provides: the lattice bounds
    only, every chain element, or every rational in [0,1].
    """

    id: str
    family: str                      # "boolean" | "godel" | "mv"
    chain: Optional[int]
    ops: dict[str, Callable]
    constants: str                   # "bounds" | "chain" | "rationals"

    @property
    def is_finite(self) -> bool:
        return self.chain is not None

    @property
    def connectives(self) -> frozenset[str]:
        return frozenset(self.ops)

    def contains(self, value: Fraction) -> bool:
        n, d = value.numerator, value.denominator     # lowest terms, d > 0
        return 0 <= n <= d and (self.chain is None or self.chain % d == 0)

    def domain_elements(self) -> tuple[Fraction, ...]:
        if self.chain is None:
            raise SemanticError(f"{self.id} has an infinite domain")
        return tuple(Fraction(k, self.chain) for k in range(self.chain + 1))

    def has_constant(self, value: Fraction) -> bool:
        """Is the truth constant for `value` available in the language?"""
        if not self.contains(value):
            return False
        if self.constants == "rationals":
            return True
        if self.constants == "chain":
            return True  # all domain elements have constants
        return value.numerator in (0, value.denominator)     # 0 or 1, on integers

    def __repr__(self):
        return f"Algebra({self.id})"


# --- catalog ----------------------------------------------------------------

_PARAMETRIC = re.compile(r"^([LG])_(\d+|n)(_C)?(_DELTA)?$")

_FIXED_IDS = {
    "BOOL2", "STD_L", "STD_L_DELTA", "STD_QL", "STD_QL_DELTA", "STD_G",
    "STD_QG", "STD_QG_DELTA", "STD_PL", "STD_PL_DELTA", "STD_QPL_DELTA",
    "STD_LPI", "STD_LPIH",
}


def _build(concrete_id: str) -> Algebra:
    if concrete_id == "BOOL2":
        return Algebra("BOOL2", "boolean", 1, dict(_BOOL_OPS), "bounds")

    m = _PARAMETRIC.match(concrete_id)
    if m:
        letter, n_text, with_c, with_delta = m.groups()
        n = int(n_text)
        if n < 1:
            raise InputError(f"chain parameter must be >= 1 in {concrete_id!r}")
        if letter == "L":
            if with_delta:
                raise InputError(f"unknown algebra identifier {concrete_id!r}")
            ops = dict(_MV_OPS)
            return Algebra(concrete_id, "mv", n, ops, "chain" if with_c else "bounds")
        ops = dict(_GODEL_OPS)
        if with_delta:
            if not with_c:
                raise InputError(f"unknown algebra identifier {concrete_id!r}")
            ops["delta"] = _delta
        return Algebra(concrete_id, "godel", n, ops, "chain" if with_c else "bounds")

    if concrete_id not in _FIXED_IDS:
        raise InputError(f"unknown algebra identifier {concrete_id!r}")

    if concrete_id.startswith("STD_G") or concrete_id.startswith("STD_QG"):
        ops = dict(_GODEL_OPS)
        family = "godel"
    else:
        ops = dict(_MV_OPS)
        family = "mv"
    if "PL" in concrete_id or "LPI" in concrete_id:
        ops["odot"] = _odot
    if "LPI" in concrete_id:
        ops["imp_pi"] = _imp_pi
    if concrete_id.endswith("_DELTA"):
        ops["delta"] = _delta
    constants = "rationals" if ("Q" in concrete_id or concrete_id == "STD_LPIH") else "bounds"
    return Algebra(concrete_id, family, None, ops, constants)


@lru_cache(maxsize=None)
def _lookup_cached(concrete_id: str) -> Algebra:
    return _build(concrete_id)


def catalog_lookup(identifier: str, n: Optional[int] = None) -> Algebra:
    """Look up a catalog algebra.

    `identifier` is either a concrete id like "L_4_C" or "STD_PL", or a
    parametric one ("L_n", "G_n_C_DELTA") together with the chain size `n`.
    """
    concrete = identifier
    if "_n" in identifier:
        if n is None:
            raise InputError(f"algebra {identifier!r} needs a chain parameter n")
        concrete = identifier.replace("_n", f"_{n}", 1)
    elif n is not None:
        m = _PARAMETRIC.match(identifier)
        if not m or int(m.group(2)) != n:
            raise InputError(f"conflicting chain parameter for {identifier!r}")
    return _lookup_cached(concrete)


def is_subreduct(a: Algebra, b: Algebra) -> bool:
    """True iff a's domain, signature, and operations embed into b's.

    Finite `a`: operation agreement is checked exhaustively on a's domain.
    Infinite `a`: agreement holds iff both install the same catalog
    interpretation per connective.
    """
    # Domain containment.
    if a.chain is None:
        if b.chain is not None:
            return False
    elif not all(b.contains(x) for x in a.domain_elements()):
        return False
    # Signature containment: connectives plus available truth constants.
    if not a.connectives <= b.connectives:
        return False
    if not _constants_subset(a, b):
        return False
    # Operation agreement.
    if a.chain is None:
        return all(a.ops[name] is b.ops[name] for name in a.ops)
    domain = a.domain_elements()
    for name, op in a.ops.items():
        if op is b.ops[name]:
            continue
        if ARITY[name] == 1:
            if any(op(x) != b.ops[name](x) for x in domain):
                return False
        else:
            if any(op(x, y) != b.ops[name](x, y) for x in domain for y in domain):
                return False
    return True


def _constants_subset(a: Algebra, b: Algebra) -> bool:
    if a.constants == "bounds":
        return True
    if b.constants == "rationals":
        return True
    if b.constants == "bounds":
        return False
    # both chain-valued: a's constant set is its whole domain
    return all(b.contains(x) for x in a.domain_elements())
