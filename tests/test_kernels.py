"""The bitset kernel against a plain set-based oracle.

:func:`repro.kernels.pivot_select` is the one pivot scan; it is held
here against a scan written over Python sets, so the pivot argmax
tie-break, the perfect-pivot early exit and the ``edge_sum`` work
charge — which fix every engine's
:class:`~repro.counting.counters.Counters` — are pinned independently
of the big-int implementation.  The row loader
(:func:`~repro.kernels.words_to_ints`) and the engines' inline
intersect (``rows[w] & P``, ``bit_count()``) are held to the same
oracle, and the test backends of ``tests/backends.py`` to the same
rules and, op by op, to the program's results.  Widths straddle the
64-bit word boundary (empty rows, 1-bit rows, 63/64/65, multi-word).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PivotScaleConfig
from repro.counting.sct import SCTEngine
from repro.errors import CountingError
from repro.graph.generators import erdos_renyi
from repro.kernels import KERNEL, kernel_name, pivot_select, words_to_ints
from repro.ordering import core_ordering, directionalize
from repro.parallel.runtime import parallel_count
from tests.backends import (
    KERNEL_NAMES,
    KERNELS,
    BigIntKernel,
    WordArrayKernel,
    make_kernel,
    pack_rows as _pack,
)

WIDTHS = [0, 1, 2, 7, 63, 64, 65, 100, 128, 130, 200]

#: Backends checked op by op against the program's results.
OTHERS = tuple(n for n in KERNEL_NAMES if n != "bigint")


def _all_kernels():
    return [make_kernel(name) for name in KERNEL_NAMES]


def _rows(masks, d):
    """The program's rows for ``masks``, through its loader."""
    return words_to_ints(_pack(masks, d)) if d else []


def _load(masks, d, kern):
    rows = kern.alloc_rows(d)
    if d:
        kern.load_rows(rows, _pack(masks, d))
    return kern, rows


def _set_row(bits):
    """A row built one bit at a time — the reference for the bulk
    loader's word encoding."""
    row = 0
    for b in bits:
        row |= 1 << int(b)
    return row


def _bits(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def _set_scan(row_sets, P):
    """The pivot scan over sets: candidates in ascending id order, the
    first maximum wins, the scan stops at the first candidate adjacent
    to every other, and ``edge_sum`` sums the counts scanned up to that
    stop.  Returns ``(best, best_set, best_cnt, edge_sum)``."""
    pc = len(P)
    best, best_set, best_cnt, edge_sum = -1, set(), -1, 0
    for i in sorted(P):
        inter = row_sets[i] & P
        edge_sum += len(inter)
        if len(inter) > best_cnt:
            best, best_set, best_cnt = i, inter, len(inter)
            if best_cnt == pc - 1:
                break
    return best, best_set, best_cnt, edge_sum


# ------------------------------------------------------------ strategies
#: Widths on and around every word boundary up to 200, plus any width.
_WIDTH = st.one_of(
    st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 200]),
    st.integers(min_value=1, max_value=200),
)


@st.composite
def rows_and_candidates(draw):
    """``(d, row masks without self-bits, a non-empty candidate mask)``.

    Row and candidate densities are drawn from a few levels, 0 and 1
    included, so that all-tied scans and perfect pivots are common."""
    d = draw(_WIDTH)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    adj = rng.random((d, d)) < density
    np.fill_diagonal(adj, False)
    masks = [sum(1 << int(j) for j in np.flatnonzero(r)) for r in adj]
    keep = rng.random(d) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    keep[int(rng.integers(d))] = True
    P = sum(1 << int(j) for j in np.flatnonzero(keep))
    return d, masks, P


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


# ------------------------------------------------------------ resolution
def test_registry_and_resolve():
    # The suites' backends report their own names, and the program's
    # kernel= resolution names only its one backend: a test backend's
    # name and a backend object are both refused.
    assert set(KERNELS) == {"bigint", "wordarray"}
    for name in KERNEL_NAMES:
        inst = make_kernel(name)
        assert inst.name == name
        with pytest.raises(CountingError, match="only backend"):
            kernel_name(inst)
    assert kernel_name(None) == KERNEL.name == "bigint"
    with pytest.raises(CountingError, match="only backend"):
        kernel_name("wordarray")


def test_resolve_kernel():
    # kernel= is name-only: None and "bigint" resolve to the backend,
    # everything else raises.
    assert kernel_name() == kernel_name(None) == kernel_name("bigint")
    assert kernel_name() == "bigint"
    for bad in ("avx512", "BIGINT", BigIntKernel(), KERNEL, 0):
        with pytest.raises(CountingError, match="only backend"):
            kernel_name(bad)


def test_engines_take_none_name_or_instance():
    # The kernel= callers (and the frozen benchmark) pass None or
    # "bigint"; a backend object, once accepted, is now refused like
    # any other value.  PivotScaleConfig names the backend as a class
    # constant, not a constructor argument.
    g = erdos_renyi(30, 0.3, seed=1)
    dag = directionalize(g, core_ordering(g))
    ref = SCTEngine(g, dag).count(4)
    for kernel in (None, "bigint"):
        engine = SCTEngine(g, dag, kernel=kernel)
        assert engine.kernel.name == "bigint"
        assert engine.kernel is KERNEL
        r = engine.count(4)
        assert (r.kernel, r.count) == ("bigint", ref.count)
    for bad in ("avx512", BigIntKernel(), WordArrayKernel()):
        with pytest.raises(CountingError, match="unknown kernel"):
            SCTEngine(g, dag, kernel=bad)
        with pytest.raises(CountingError, match="unknown kernel"):
            SCTEngine(g, dag, "dense", kernel=bad)
    with pytest.raises(CountingError, match="unknown kernel"):
        parallel_count(g, dag, k=4, kernel="avx512", processes=2)
    assert PivotScaleConfig().kernel == PivotScaleConfig.kernel == "bigint"
    with pytest.raises(TypeError):
        PivotScaleConfig(kernel="bigint")


# ------------------------------------------------------------ row storage
@pytest.mark.parametrize("d", WIDTHS)
def test_row_int_round_trip(d):
    # The loader lands, from packed little-endian uint64 words, exactly
    # the rows they encode; the test backends' row_int / row_accessor
    # read them back, and reloading overwrites dirty storage.
    rng = np.random.default_rng(d)
    masks = [
        int(rng.integers(0, 2**63)) % (1 << d) & ~(1 << i) if d else 0
        for i in range(d)
    ]
    assert _rows(masks, d) == masks
    for kern in _all_kernels():
        kern, rows = _load(masks, d, kern)
        for i in range(d):
            assert kern.row_int(rows, i) == masks[i]
            assert kern.row_accessor(rows)(i) == masks[i]
        if d:
            kern.load_rows(rows, _pack([(1 << d) - 1] * d, d))
            kern.load_rows(rows, _pack(masks, d))
            assert [kern.row_int(rows, i) for i in range(d)] == masks


@pytest.mark.parametrize("d", WIDTHS)
def test_load_rows_matches_set_row(d):
    # The bulk loader must land, from packed little-endian uint64
    # words, the exact rows that setting each row's bits one at a time
    # gives — the program's and every test backend's, over dirty
    # storage too.
    rng = np.random.default_rng(1000 + d)
    masks = [
        int(rng.integers(0, 2**63)) % (1 << d) & ~(1 << i) if d else 0
        for i in range(d)
    ]
    bits = [np.flatnonzero([(m >> b) & 1 for b in range(d)]) for m in masks]
    expect = [_set_row(b) for b in bits]
    rows = _rows(masks, d)
    assert rows == expect == masks
    if d:
        assert (rows[0] & (1 << d) - 1).bit_count() == len(bits[0])
    for kern in _all_kernels():
        krows = kern.alloc_rows(d)
        kern.load_rows(krows, _pack(masks, d))
        assert [kern.row_int(krows, i) for i in range(d)] == expect
        # Loading over dirty storage must fully overwrite, not OR in.
        if d:
            kern.load_rows(krows, _pack([(1 << d) - 1] * d, d))
            kern.load_rows(krows, _pack(masks, d))
            assert kern.row_int(krows, 0) == masks[0]
            assert kern.intersect_count(krows, 0, (1 << d) - 1) == (
                masks[0], masks[0].bit_count()
            )


@pytest.mark.parametrize("d", [1, 63, 64, 65, 130])
def test_empty_rows(d):
    # Every candidate ties at 0: the lowest id wins, nothing is charged.
    full = (1 << d) - 1
    assert pivot_select(_rows([0] * d, d), full, d) == (0, 0, 0, 0)
    for kern in _all_kernels():
        rows = kern.alloc_rows(d)
        for i in range(d):
            assert kern.row_int(rows, i) == 0
            assert kern.intersect_count(rows, i, full) == (0, 0)
        assert kern.pivot_select(rows, full, d) == (0, 0, 0, 0)


def test_zero_width_rows():
    assert words_to_ints(np.zeros((0, 1), dtype=np.uint64)) == []
    kern, rows = _load([], 0, BigIntKernel())
    assert rows == []
    kern.load_rows(rows, np.zeros((0, 1), dtype=np.uint64))
    assert rows == []


# ------------------------------------------------------------ fused ops
@settings(max_examples=150, deadline=None)
@given(data=rows_and_candidates())
def test_intersect_count_matches_set_scan(data):
    # The engines' inline intersect over the loaded rows.
    d, masks, P = data
    rows = _rows(masks, d)
    P_set = _bits(P)
    for i in range(d):
        inter = rows[i] & P
        assert _bits(inter) == _bits(masks[i]) & P_set
        assert inter.bit_count() == len(_bits(masks[i]) & P_set)


@settings(max_examples=150, deadline=None)
@given(data=rows_and_candidates())
def test_pivot_select_matches_set_scan(data):
    d, masks, P = data
    best, best_row, best_cnt, edge_sum = pivot_select(
        _rows(masks, d), P, P.bit_count()
    )
    e_best, e_set, e_cnt, e_sum = _set_scan(
        [_bits(m) for m in masks], _bits(P)
    )
    assert (best, best_cnt, edge_sum) == (e_best, e_cnt, e_sum)
    assert _bits(best_row) == e_set


@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=120, deadline=None)
@given(data=rows_and_mask())
def test_intersect_ops_match_bigint(other, data):
    d, masks, P = data
    rows = _rows(masks, d)
    ot, rw = _load(masks, d, make_kernel(other))
    for i in range(d):
        expect = masks[i] & P
        child = rows[i] & P
        assert (child, child.bit_count()) == (expect, expect.bit_count())
        assert ot.intersect_count(rw, i, P) == (expect, expect.bit_count())


@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=120, deadline=None)
@given(data=rows_and_mask())
def test_pivot_select_matches_bigint(other, data):
    d, masks, P = data
    pc = P.bit_count()
    if pc == 0:
        return
    ot, rw = _load(masks, d, make_kernel(other))
    assert pivot_select(_rows(masks, d), P, pc) == ot.pivot_select(rw, P, pc)


def _scans(masks, d):
    """``pivot_select`` over ``masks``: the program's, then each test
    backend's."""
    rows = _rows(masks, d)
    yield lambda P, pc: pivot_select(rows, P, pc)
    for kern in _all_kernels():
        kern, krows = _load(masks, d, kern)
        yield lambda P, pc, kern=kern, krows=krows: kern.pivot_select(
            krows, P, pc
        )


def test_pivot_select_tie_break_is_lowest_id():
    # Complete graphs: every candidate ties, and the first is perfect.
    # K_70 and K_130 cross one and two word boundaries.
    for d in (70, 130):
        full = (1 << d) - 1
        masks = [full & ~(1 << i) for i in range(d)]
        for scan in _scans(masks, d):
            best, best_row, best_cnt, edge_sum = scan(full, d)
            assert best == 0  # every vertex ties; lowest id wins
            assert best_cnt == d - 1  # perfect pivot
            assert best_row == full & ~1
            assert edge_sum == d - 1  # scan stops at the first row
    # No perfect pivot (that needs 4): rows 1 and 2 tie at the maximum
    # and the scan keeps the first, charging every row; then a later,
    # strictly larger count wins.
    masks = [0b00010, 0b01101, 0b11010, 0b00110, 0b00100]
    for scan in _scans(masks, 5):
        assert scan(0b11111, 5) == (1, 0b01101, 3, 1 + 3 + 3 + 2 + 1)
    masks = [0b00010, 0b00101, 0b11010, 0b00100, 0b00100]
    for scan in _scans(masks, 5):
        assert scan(0b11111, 5) == (2, 0b11010, 3, 1 + 2 + 3 + 1 + 1)


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
    cases = [
        (66, (1 << 5) - 1),  # P = {0..4}
        (200, sum(1 << i for i in range(0, 200, 2))),  # every even id
    ]
    for d, P in cases:
        pc = P.bit_count()
        ids, masks = _perfect_at_two(d, P)
        for scan in _scans(masks, d):
            best, best_row, best_cnt, edge_sum = scan(P, pc)
            assert best == ids[2]
            assert best_cnt == pc - 1
            assert best_row == masks[ids[2]]
            assert edge_sum == 1 + 2 + (pc - 1)


def test_pivot_select_respects_mask_outside_bits():
    # Bits of a row outside P must not leak into counts or best_row.
    d = 130
    masks = [((1 << d) - 1) & ~(1 << i) for i in range(d)]
    P = (1 << 3) | (1 << 64) | (1 << 129)
    for scan in _scans(masks, d):
        best, best_row, best_cnt, edge_sum = scan(P, 3)
        assert best == 3
        assert best_cnt == 2  # the other two candidates
        assert best_row == P & ~(1 << 3)
    # The odd ids of K_200, each row holding every even id outside P.
    d = 200
    full = (1 << d) - 1
    masks = [full & ~(1 << i) for i in range(d)]
    P = sum(1 << i for i in range(1, d, 2))
    pc = P.bit_count()
    for scan in _scans(masks, d):
        best, best_row, best_cnt, edge_sum = scan(P, pc)
        assert best == 1
        assert best_cnt == pc - 1
        assert best_row == P & ~(1 << 1)
        assert edge_sum == pc - 1


def test_wordarray_buffer_reuse_does_not_corrupt_new_roots():
    # The word-array test backend reuses one buffer across alloc_rows
    # calls; a later (smaller) allocation must start all-zero, as the
    # contract's alloc_rows promises.
    kern = WordArrayKernel()
    big = kern.alloc_rows(130)
    kern.load_rows(big, _pack([(1 << (i + 1)) - 1 for i in range(130)], 130))
    small = kern.alloc_rows(70)
    full = (1 << 70) - 1
    for i in range(70):
        assert kern.row_int(small, i) == 0
        assert kern.intersect_count(small, i, full) == (0, 0)
    assert kern.pivot_select(small, full, 70) == (0, 0, 0, 0)
