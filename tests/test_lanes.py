"""Packed columns (`algebra.Lanes`) against the integer kernel, lane by lane.

Every packed twin gives in each lane what its `INTEGER_TWINS` twin gives on
that lane's numerators, and sets no bit outside the lanes, for D at each
lane-width boundary (lanes of 1, 2, 4, 8 and 16 bytes, and 32 just past the
last) and between them.  Packing round-trips.  A gather, as `over_rows` runs
it on a payoff column, equals the list gather it replaced on random block
layouts of 2 and 3 players, one gather or several in a row.
"""

import itertools
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgames.algebra import INTEGER_TWINS, Lanes

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# The largest D each lane width takes: 2D < 2^(w-1), w = 8 * width.
EDGES = {width: (1 << (8 * width - 2)) - 1 for width in (1, 2, 4, 8, 16)}
BOUNDARIES = sorted({d + step for d in EDGES.values() for step in (-1, 0, 1)})
OPS = sorted(INTEGER_TWINS, key=lambda fn: fn.__name__)


def _name(fn):
    return fn.__name__


def _check_twin(op, D, a, b):
    """The packed twin of `op` on columns a and b (a alone for a unary op)."""
    lanes, twin = Lanes(D, len(a)), INTEGER_TWINS[op](D)
    packed_a = lanes.pack(a)
    assert lanes.unpack(packed_a) == a
    if op.__code__.co_argcount == 1:
        out, expected = lanes.twins[op](packed_a, packed_a), [twin(x) for x in a]
    else:
        out = lanes.twins[op](packed_a, lanes.pack(b))
        expected = [twin(x, y) for x, y in zip(a, b)]
    assert lanes.unpack(out) == expected
    assert out == lanes.pack(expected)      # no bit set outside the lanes


def test_lane_width_is_the_least_that_keeps_a_sum_below_the_guard():
    assert Lanes(1, 1).width == 1
    for width, top in EDGES.items():
        assert Lanes(top, 3).width == width
        assert Lanes(top + 1, 3).width == 2 * width


@pytest.mark.parametrize("op", OPS, ids=_name)
@pytest.mark.parametrize("D", BOUNDARIES)
def test_packed_twins_at_each_width_boundary(op, D):
    values = sorted({0, 1, D // 2, D - 1, D})
    pairs = list(itertools.product(values, repeat=2))
    _check_twin(op, D, [x for x, _ in pairs], [y for _, y in pairs])


@st.composite
def lane_cases(draw):
    """D, and two columns over D that often tie or sit at 0, D or D/2."""
    D = draw(st.sampled_from(BOUNDARIES + [1, 2, 12]) | st.integers(1, 1 << 200))
    value = st.sampled_from([0, D, D // 2, max(D - 1, 0)]) | st.integers(0, D)
    rows = draw(st.lists(st.tuples(value, value, st.booleans()), min_size=1, max_size=12))
    return D, [x for x, _, _ in rows], [x if tie else y for x, y, tie in rows]


@pytest.mark.parametrize("op", OPS, ids=_name)
@PROPERTY
@given(lane_cases())
def test_each_packed_twin_equals_its_integer_twin_lane_by_lane(op, case):
    _check_twin(op, *case)


def list_gather(column, stride, count, t):
    """The gather `over_rows` ran on lists: in each span of stride * count
    rows, its t-th run of stride rows, count times."""
    out = []
    for base in range(t * stride, len(column), stride * count):
        out += column[base:base + stride] * count
    return out


@st.composite
def layouts(draw):
    """A column over the profiles of 2 or 3 players with 1 to 5 strategies
    each, and the (stride, count, t) of some blocks bound to a strategy t."""
    counts = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    D = draw(st.sampled_from([1, 12, EDGES[1], EDGES[1] + 1, EDGES[8] + 1]))
    column = draw(st.lists(st.integers(0, D), min_size=prod(counts), max_size=prod(counts)))
    gathers = [(prod(counts[b + 1:]), count, draw(st.integers(0, count - 1)))
               for b, count in enumerate(counts) if draw(st.booleans())]
    return D, column, draw(st.permutations(gathers))


@PROPERTY
@given(layouts())
def test_gathers_equal_list_gathers(case):
    D, column, gathers = case
    lanes = Lanes(D, len(column))
    packed, expected = lanes.pack(column), column
    for stride, count, t in gathers:
        packed, expected = lanes.gather(packed, stride, count, t), \
            list_gather(expected, stride, count, t)
        assert len(expected) == len(column)
        assert lanes.unpack(packed) == expected
        assert packed == lanes.pack(expected)
    for stride, count, t in gathers:    # each row reads its block's strategy t
        column = [column[r + (t - (r // stride) % count) * stride] for r in range(len(column))]
    assert lanes.unpack(packed) == column
