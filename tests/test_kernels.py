"""Property-based tests: every backend == big-int semantics.

The big-int backend is the semantic oracle; every operation of every
registered backend must round-trip against it bit-for-bit — including
the pivot argmax tie-breaks and the perfect-pivot early exit that make
the engines' :class:`~repro.counting.counters.Counters`
backend-invariant.  Widths deliberately straddle the 64-bit word
boundary (empty rows, 1-bit rows, 63/64/65, multi-word), and the
pivot tests include candidate sets of at least ``_PIVOT_SCALAR_PC``
so the word-array backend's vectorized scan runs, not only its scalar
small-scan path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CountingError
from repro.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    BigIntKernel,
    WordArrayKernel,
    resolve_kernel,
)
from repro.kernels.wordarray import _PIVOT_SCALAR_PC

WIDTHS = [0, 1, 2, 7, 63, 64, 65, 100, 128, 130, 200]

#: Every registered backend; the differential suite uses the same roster.
AVAILABLE = tuple(KERNELS)
#: Backends checked against the big-int oracle.
OTHERS = tuple(n for n in AVAILABLE if n != "bigint")


def _kern(name):
    return KERNELS[name]()


def _all_kernels():
    return [_kern(name) for name in AVAILABLE]


# ------------------------------------------------------------ strategies
@st.composite
def rows_and_mask(draw):
    """(d, row masks without self-bits, a candidate mask)."""
    d = draw(st.sampled_from([1, 2, 5, 17, 63, 64, 65, 90, 130]))
    masks = [
        draw(st.integers(min_value=0, max_value=(1 << d) - 1)) & ~(1 << i)
        for i in range(d)
    ]
    P = draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    return d, masks, P


def _pair(d, masks, other="wordarray"):
    bi, ot = BigIntKernel(), _kern(other)
    return (bi, bi.rows_from_ints(masks, d)), (ot, ot.rows_from_ints(masks, d))


# ------------------------------------------------------------ registry
def test_registry_and_resolve():
    assert set(KERNELS) == {"bigint", "wordarray"}
    assert DEFAULT_KERNEL == "bigint"
    for name in AVAILABLE:
        cls = KERNELS[name]
        assert cls.name == name
        assert resolve_kernel(name).name == name
    inst = WordArrayKernel()
    assert resolve_kernel(inst) is inst
    assert resolve_kernel(None).name == "bigint"
    with pytest.raises(CountingError, match="registered backends"):
        resolve_kernel("avx512")


def test_resolve_returns_fresh_instances():
    # Backends hold scratch buffers; sharing instances across engines
    # would alias row storage.
    assert resolve_kernel("wordarray") is not resolve_kernel("wordarray")


# ------------------------------------------------------------ round-trips
@pytest.mark.parametrize("d", WIDTHS)
def test_row_int_round_trip(d):
    rng = np.random.default_rng(d)
    masks = [
        int(rng.integers(0, 2**63)) % (1 << d) & ~(1 << i) if d else 0
        for i in range(d)
    ]
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        assert kern.num_rows(rows) == d
        for i in range(d):
            assert kern.row_int(rows, i) == masks[i]
            assert kern.row_accessor(rows)(i) == masks[i]


@pytest.mark.parametrize("d", WIDTHS)
def test_load_rows_matches_set_row(d):
    # The bulk loader must land, from packed little-endian uint64
    # words, the exact rows the per-row path does — including
    # rebuilding any cached mirrors.
    rng = np.random.default_rng(1000 + d)
    masks = [
        int(rng.integers(0, 2**63)) % (1 << d) & ~(1 << i) if d else 0
        for i in range(d)
    ]
    bits = [np.flatnonzero([(m >> b) & 1 for b in range(d)]) for m in masks]
    nw = max(1, (d + 63) >> 6)
    words = np.array(
        [[(m >> (64 * w)) & (2**64 - 1) for w in range(nw)] for m in masks],
        dtype=np.uint64,
    ).reshape(d, nw)
    for kern in _all_kernels():
        ref = kern.alloc_rows(d)
        for i in range(d):
            kern.set_row(ref, i, bits[i])
        expect = [kern.row_int(ref, i) for i in range(d)]
        rows = kern.alloc_rows(d)
        kern.load_rows(rows, words)
        assert [kern.row_int(rows, i) for i in range(d)] == expect == masks
        # Loading over dirty storage must fully overwrite, not OR in.
        if d:
            kern.set_row(rows, 0, np.arange(d, dtype=np.int64))
            kern.load_rows(rows, words)
            assert kern.row_int(rows, 0) == masks[0]
            assert kern.count_rows(rows, (1 << d) - 1)[0] == (
                masks[0].bit_count()
            )


@pytest.mark.parametrize("d", [1, 63, 64, 65, 130])
def test_empty_rows(d):
    for kern in _all_kernels():
        rows = kern.alloc_rows(d)
        for i in range(d):
            assert kern.row_int(rows, i) == 0
        assert list(kern.count_rows(rows, (1 << d) - 1)) == [0] * d
        # set then clear a row
        kern.set_row(rows, 0, np.array([d - 1], dtype=np.int64))
        assert kern.row_int(rows, 0) == 1 << (d - 1)
        kern.set_row(rows, 0, np.array([], dtype=np.int64))
        assert kern.row_int(rows, 0) == 0


def test_zero_width_rows():
    for kern in _all_kernels():
        rows = kern.alloc_rows(0)
        assert kern.num_rows(rows) == 0
        assert list(kern.count_rows(rows, 0)) == []


# ------------------------------------------------------------ op parity
@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=120, deadline=None)
@given(data=rows_and_mask())
def test_intersect_ops_match_bigint(other, data):
    d, masks, P = data
    (bi, rb), (ot, rw) = _pair(d, masks, other)
    assert list(bi.count_rows(rb, P)) == list(ot.count_rows(rw, P))
    for i in range(d):
        expect = masks[i] & P
        assert bi.intersect_count(rb, i, P) == (expect, expect.bit_count())
        assert ot.intersect_count(rw, i, P) == (expect, expect.bit_count())


@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=120, deadline=None)
@given(data=rows_and_mask())
def test_pivot_select_matches_bigint(other, data):
    d, masks, P = data
    pc = P.bit_count()
    if pc == 0:
        return
    (bi, rb), (ot, rw) = _pair(d, masks, other)
    assert bi.pivot_select(rb, P, pc) == ot.pivot_select(rw, P, pc)


def test_pivot_select_tie_break_is_lowest_id():
    # Two candidates with identical counts: the scalar scan keeps the
    # first maximum (ascending local id); the vectorized argmax must
    # break the tie identically.  K_70 crosses a word boundary on the
    # scalar scan; K_130 is wide enough for the vectorized one.
    for d in (70, 130):
        assert (d >= _PIVOT_SCALAR_PC) == (d == 130)
        full = (1 << d) - 1
        masks = [full & ~(1 << i) for i in range(d)]  # complete graph K_d
        for kern in _all_kernels():
            rows = kern.rows_from_ints(masks, d)
            best, best_row, best_cnt, edge_sum = kern.pivot_select(
                rows, full, d
            )
            assert best == 0  # every vertex ties; lowest id wins
            assert best_cnt == d - 1  # perfect pivot
            assert best_row == full & ~1
            assert edge_sum == d - 1  # scan stops at the first (perfect) row


def _perfect_at_two(d, P):
    """Rows over candidate set ``P`` whose scan meets its first perfect
    pivot at the third candidate: row counts 1, 2, pc-1, pc-1, ..."""
    ids = [i for i in range(d) if P >> i & 1]
    masks = [0] * d
    masks[ids[0]] = 1 << ids[1]
    masks[ids[1]] = (1 << ids[0]) | (1 << ids[2])
    for i in ids[2:]:
        masks[i] = P & ~(1 << i)  # perfect: adjacent to every other
    assert not P >> (d - 1) & 1
    masks[ids[0]] |= 1 << (d - 1)  # outside P: must not count
    return ids, masks


def test_pivot_select_perfect_pivot_early_exit_accounting():
    # The third candidate is the first perfect pivot; the scan must
    # charge the first three rows only, on every backend.
    cases = [(66, (1 << 5) - 1)]  # P = {0..4}: the scalar scan
    # P = every even id of 200: the vectorized scan (pc = 100).
    cases.append((200, sum(1 << i for i in range(0, 200, 2))))
    for d, P in cases:
        pc = P.bit_count()
        ids, masks = _perfect_at_two(d, P)
        for kern in _all_kernels():
            rows = kern.rows_from_ints(masks, d)
            best, best_row, best_cnt, edge_sum = kern.pivot_select(
                rows, P, pc
            )
            assert best == ids[2]
            assert best_cnt == pc - 1
            assert best_row == masks[ids[2]]
            assert edge_sum == 1 + 2 + (pc - 1)
    assert cases[-1][1].bit_count() >= _PIVOT_SCALAR_PC


def test_pivot_select_respects_mask_outside_bits():
    # Bits of a row outside P must not leak into counts or best_row.
    d = 130
    masks = [((1 << d) - 1) & ~(1 << i) for i in range(d)]
    P = (1 << 3) | (1 << 64) | (1 << 129)
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, best_cnt, edge_sum = kern.pivot_select(rows, P, 3)
        assert best == 3
        assert best_cnt == 2  # the other two candidates
        assert best_row == P & ~(1 << 3)
    # A candidate set wide enough for the vectorized scan: the odd ids
    # of K_200, each row holding every even id outside P.
    d = 200
    full = (1 << d) - 1
    masks = [full & ~(1 << i) for i in range(d)]
    P = sum(1 << i for i in range(1, d, 2))
    pc = P.bit_count()
    assert pc >= _PIVOT_SCALAR_PC
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, best_cnt, edge_sum = kern.pivot_select(rows, P, pc)
        assert best == 1
        assert best_cnt == pc - 1
        assert best_row == P & ~(1 << 1)
        assert edge_sum == pc - 1


def test_wordarray_buffer_reuse_does_not_corrupt_new_roots():
    # The word-array backend reuses one preallocated buffer across
    # alloc_rows calls; a later (smaller) allocation must start zeroed.
    kern = WordArrayKernel()
    big = kern.alloc_rows(130)
    for i in range(130):
        kern.set_row(big, i, np.arange(i + 1, dtype=np.int64))
    small = kern.alloc_rows(70)
    for i in range(70):
        assert kern.row_int(small, i) == 0
