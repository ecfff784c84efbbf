"""Property-based tests: every backend == big-int semantics.

The big-int backend is the semantic oracle; every operation of every
registered backend must round-trip against it bit-for-bit — including
the pivot argmax tie-breaks and the perfect-pivot early exit that make
the engines' :class:`~repro.counting.counters.Counters`
backend-invariant.  The tier-2 frontier kernels
(``pivot_select_sweep`` / ``expand_children`` / the batched
``intersect_count_sweep``) are held to the scalar scan the same way,
on both their adaptive small-frontier scalar paths and their word-tile
vector paths.  Widths deliberately straddle the 64-bit word boundary
(empty rows, 1-bit rows, 63/64/65, multi-word).

Backends enroll through :func:`repro.kernels.available_kernels`, so the
numba backend is exercised exactly when the ``[jit]`` extra is
installed — its absence is a fallback, never a failure (the nopython
cores still run here as plain Python and are tested below either way).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CountingError, KernelUnavailableError
from repro.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    BigIntKernel,
    NumbaKernel,
    WordArrayKernel,
    available_kernels,
    kernel_availability,
    resolve_kernel,
)
from repro.kernels.jit import (
    _expand_core,
    _pivot_sweep_core,
    _popcount64,
    _sweep_core,
    numba_unavailable_reason,
)
from repro.kernels.wordarray import (
    _EXPAND_SCALAR_CHILDREN,
    _SWEEP_SCALAR_AREA,
)

WIDTHS = [0, 1, 2, 7, 63, 64, 65, 100, 128, 130, 200]

#: Every backend that can actually run here (numba auto-enrolls with
#: the ``[jit]`` extra); the differential suite uses the same roster.
AVAILABLE = tuple(available_kernels())
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


@st.composite
def rows_and_frontier(draw):
    """(d, row masks, a frontier of non-empty candidate masks)."""
    d = draw(st.sampled_from([1, 2, 5, 17, 63, 64, 65, 90, 130]))
    masks = [
        draw(st.integers(min_value=0, max_value=(1 << d) - 1)) & ~(1 << i)
        for i in range(d)
    ]
    F = draw(st.integers(min_value=1, max_value=5))
    Ps = [
        draw(st.integers(min_value=1, max_value=(1 << d) - 1))
        for _ in range(F)
    ]
    return d, masks, Ps


def _pair(d, masks, other="wordarray"):
    bi, ot = BigIntKernel(), _kern(other)
    return (bi, bi.rows_from_ints(masks, d)), (ot, ot.rows_from_ints(masks, d))


def _dense_case(d, F, seed, density=0.9):
    """Seeded dense rows + frontier masks (drives the vector paths)."""
    rng = np.random.default_rng(seed)
    masks = []
    for i in range(d):
        bits = np.flatnonzero(rng.random(d) < density)
        m = 0
        for b in bits:
            m |= 1 << int(b)
        masks.append(m & ~(1 << i))
    Ps = []
    for _ in range(F):
        bits = np.flatnonzero(rng.random(d) < density)
        P = 0
        for b in bits:
            P |= 1 << int(b)
        Ps.append(P or 1)
    return masks, Ps


# ------------------------------------------------------------ registry
def test_registry_and_resolve(monkeypatch):
    # Neutralize any ambient backend override (the CI numba job runs
    # this whole suite under REPRO_KERNEL=numba).
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert set(KERNELS) == {"bigint", "wordarray", "numba"}
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
    # The unknown-kernel error names both the registry and what can
    # actually run here, so a typo is diagnosable from the message.
    with pytest.raises(CountingError, match="available here"):
        resolve_kernel("avx512")


def test_env_var_overrides_default(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "wordarray")
    assert resolve_kernel(None).name == "wordarray"
    monkeypatch.setenv(KERNEL_ENV, "")
    assert resolve_kernel(None).name == DEFAULT_KERNEL
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert resolve_kernel(None).name == DEFAULT_KERNEL


def test_availability_reports_why():
    avail = kernel_availability()
    assert set(avail) == set(KERNELS)
    assert avail["bigint"] is None
    assert avail["wordarray"] is None
    assert avail["numba"] == numba_unavailable_reason()
    assert set(AVAILABLE) == {n for n, why in avail.items() if why is None}


def test_numba_backend_contract():
    reason = numba_unavailable_reason()
    if reason is None:
        assert "numba" in AVAILABLE
        assert resolve_kernel("numba").name == "numba"
        assert NumbaKernel().frontier is True
    else:
        assert "numba" not in AVAILABLE
        with pytest.raises(KernelUnavailableError) as ei:
            NumbaKernel()
        assert ei.value.backend == "numba"
        assert reason in str(ei.value)
        # Configs written for JIT-capable hosts still run: resolving
        # falls back to wordarray with a warning naming the reason.
        with pytest.warns(RuntimeWarning, match="numba"):
            kern = resolve_kernel("numba")
        assert kern.name == "wordarray"


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


def test_mask_native_round_trip():
    # Native masks are the frontier recursion's currency; the boundary
    # conversions must be exact in both directions.
    d = 130
    masks, Ps = _dense_case(d, 4, seed=3)
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        for P in Ps:
            native = kern.to_native(rows, P)
            assert kern.mask_int(rows, native) == P
            assert kern.mask_int(rows, kern.to_native(rows, 0)) == 0


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
        assert bi.intersect(rb, i, P) == expect
        assert ot.intersect(rw, i, P) == expect
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
    # break the tie identically.
    d = 70  # crosses a word boundary
    full = (1 << d) - 1
    masks = [full & ~(1 << i) for i in range(d)]  # complete graph K_d
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, best_cnt, edge_sum = kern.pivot_select(rows, full, d)
        assert best == 0  # every vertex ties; lowest id wins
        assert best_cnt == d - 1  # perfect pivot
        assert best_row == full & ~1
        assert edge_sum == d - 1  # scan stops at the first (perfect) row


def test_pivot_select_perfect_pivot_early_exit_accounting():
    # Row 2 is the first perfect pivot; the scan must charge rows 0-2
    # only, on both backends.
    d = 66
    sub = (1 << 5) - 1  # P = {0..4}
    masks = [0] * d
    masks[0] = 0b00010  # |row0 ∩ P| = 1
    masks[1] = 0b00101  # |row1 ∩ P| = 2
    masks[2] = 0b11011  # |row2 ∩ P| = 4 == pc-1 -> stop
    masks[3] = sub & ~(1 << 3)  # would also be perfect, never scanned
    masks[4] = 1 << 65  # out-of-P high word, never scanned
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, best_cnt, edge_sum = kern.pivot_select(rows, sub, 5)
        assert best == 2
        assert best_cnt == 4
        assert best_row == masks[2]
        assert edge_sum == 1 + 2 + 4


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


# ------------------------------------------------------ frontier kernels
def _scalar_sweep_reference(masks, Ps):
    """The scalar oracle for pivot_select_sweep: one big-int
    pivot_select per frontier mask."""
    bi = BigIntKernel()
    rb = bi.rows_from_ints(masks, len(masks))
    return [bi.pivot_select(rb, P, P.bit_count()) for P in Ps]


def _check_sweep(kern, masks, Ps):
    d = len(masks)
    rows = kern.rows_from_ints(masks, d)
    pcs = [P.bit_count() for P in Ps]
    native = [kern.to_native(rows, P) for P in Ps]
    bests, brows, bcnts, edges = kern.pivot_select_sweep(rows, native, pcs)
    expect = _scalar_sweep_reference(masks, Ps)
    for j, (eb, ebr, ebc, ees) in enumerate(expect):
        assert bests[j] == eb, (kern.name, j)
        assert kern.mask_int(rows, brows[j]) == ebr, (kern.name, j)
        assert bcnts[j] == ebc, (kern.name, j)
        assert edges[j] == ees, (kern.name, j)


def _check_expand(kern, masks, P):
    """Expand under the big-int oracle's pivot choice and compare the
    whole (ws, children, ccs) expansion to the scalar branch loop."""
    d = len(masks)
    bi = BigIntKernel()
    rb = bi.rows_from_ints(masks, d)
    pc = P.bit_count()
    best, best_row, _, _ = bi.pivot_select(rb, P, pc)
    if best < 0:
        return 0
    e_ws, e_children, e_ccs = BigIntKernel.expand_children(
        bi, rb, P, best, best_row
    )
    rows = kern.rows_from_ints(masks, d)
    ws, children, ccs = kern.expand_children(
        rows, kern.to_native(rows, P), best, kern.to_native(rows, best_row)
    )
    assert ws == e_ws, kern.name
    assert [kern.mask_int(rows, c) for c in children] == e_children, kern.name
    assert ccs == e_ccs, kern.name
    return len(ws)


@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=100, deadline=None)
@given(data=rows_and_frontier())
def test_pivot_select_sweep_matches_scalar(other, data):
    d, masks, Ps = data
    _check_sweep(_kern(other), masks, Ps)


@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=100, deadline=None)
@given(data=rows_and_mask())
def test_expand_children_matches_scalar(other, data):
    d, masks, P = data
    if P.bit_count() == 0:
        return
    _check_expand(_kern(other), masks, P)


@pytest.mark.parametrize("other", OTHERS)
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_frontier_vector_paths_match_scalar(other, seed):
    # Dense 130-wide cases push the adaptive kernels onto their
    # word-tile vector paths (F * d over the sweep area, child count
    # over the expand threshold) — the paths hypothesis's small cases
    # rarely reach.
    d, F = 130, 20
    assert F * d >= _SWEEP_SCALAR_AREA
    masks, Ps = _dense_case(d, F, seed=seed, density=0.45)
    kern = _kern(other)
    _check_sweep(kern, masks, Ps)
    expanded = max(_check_expand(kern, masks, P) for P in Ps)
    assert expanded >= _EXPAND_SCALAR_CHILDREN


@pytest.mark.parametrize("other", OTHERS)
def test_frontier_sweep_entries_match(other):
    # The batched intersect_count_sweep form: every (mask, row) entry
    # read back through sweep_entry equals the direct big-int compute,
    # on every backend regardless of batch representation.
    d = 96
    masks, Ps = _dense_case(d, 6, seed=5, density=0.5)
    for kern in (BigIntKernel(), _kern(other)):
        rows = kern.rows_from_ints(masks, d)
        batch = kern.intersect_count_sweep(
            rows, [kern.to_native(rows, P) for P in Ps]
        )
        for j, P in enumerate(Ps):
            for i in range(d):
                expect = masks[i] & P
                assert kern.sweep_entry(rows, batch, j, i) == (
                    expect,
                    expect.bit_count(),
                ), (kern.name, j, i)


def test_pivot_sweep_empty_frontier():
    for kern in _all_kernels():
        rows = kern.rows_from_ints([0b10, 0b01], 2)
        assert kern.pivot_select_sweep(rows, [], []) == ([], [], [], [])


def test_expand_children_no_branches():
    # A perfect pivot leaves no branch vertices: cand == 0.
    d = 5
    full = (1 << d) - 1
    masks = [full & ~(1 << i) for i in range(d)]
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, _, _ = kern.pivot_select(rows, full, d)
        ws, children, ccs = kern.expand_children(
            rows, kern.to_native(rows, full), best,
            kern.to_native(rows, best_row),
        )
        assert (ws, list(children), ccs) == ([], [], [])


# ------------------------------------------------------------ jit cores
# The nopython cores stay plain-Python callable when numba is missing,
# so their semantics are checkable in every environment — the compiled
# and interpreted paths share this exact code.
def test_jit_popcount64():
    rng = np.random.default_rng(9)
    for x in [0, 1, 2**63, 2**64 - 1, *rng.integers(0, 2**63, 20).tolist()]:
        assert int(_popcount64(np.uint64(x))) == int(x).bit_count()


def _word_rows(masks, d):
    wa = WordArrayKernel()
    rows = wa.rows_from_ints(masks, d)
    return wa, rows


def test_jit_pivot_sweep_core_matches_scalar():
    d = 130
    masks, Ps = _dense_case(d, 12, seed=21, density=0.55)
    wa, rows = _word_rows(masks, d)
    M = np.stack([wa.to_native(rows, P) for P in Ps])
    pcs = np.asarray([P.bit_count() for P in Ps], dtype=np.int64)
    pos, best_rows, cnts, edges = _pivot_sweep_core(rows.mat, M, pcs)
    for j, (eb, ebr, ebc, ees) in enumerate(_scalar_sweep_reference(masks, Ps)):
        assert int(pos[j]) == eb
        assert int.from_bytes(best_rows[j].tobytes(), "little") == ebr
        assert int(cnts[j]) == ebc
        assert int(edges[j]) == ees


def test_jit_expand_core_matches_scalar():
    d = 130
    masks, Ps = _dense_case(d, 4, seed=22, density=0.5)
    bi = BigIntKernel()
    rb = bi.rows_from_ints(masks, d)
    wa, rows = _word_rows(masks, d)
    for P in Ps:
        best, best_row, _, _ = bi.pivot_select(rb, P, P.bit_count())
        e_ws, e_children, e_ccs = BigIntKernel.expand_children(
            bi, rb, P, best, best_row
        )
        P0 = P & ~(1 << best)
        cand = P0 & ~best_row
        if cand == 0:
            continue
        ws_a = wa._mask_bits(rows, cand)
        P0w = np.frombuffer(
            P0.to_bytes(rows.nbytes_row, "little"), dtype=np.uint64
        ).copy()
        children, ccs = _expand_core(rows.mat, P0w, ws_a)
        assert [int(w) for w in ws_a] == e_ws
        assert [
            int.from_bytes(c.tobytes(), "little") for c in children
        ] == e_children
        assert [int(c) for c in ccs] == e_ccs


def test_jit_sweep_core_matches_direct():
    d = 70
    masks, Ps = _dense_case(d, 5, seed=23, density=0.5)
    wa, rows = _word_rows(masks, d)
    M = np.stack([wa.to_native(rows, P) for P in Ps])
    inter, counts = _sweep_core(rows.mat, M)
    for j, P in enumerate(Ps):
        for i in range(d):
            expect = masks[i] & P
            assert int.from_bytes(inter[j, i].tobytes(), "little") == expect
            assert int(counts[j, i]) == expect.bit_count()


# ------------------------------------------------------------ buffers
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
