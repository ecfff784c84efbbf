"""Instrumentation counters: merging and derived quantities."""

from repro.counting.counters import Counters


def test_defaults_zero():
    c = Counters()
    assert c.work == 0.0
    assert c.function_calls == 0


def test_work_composition():
    c = Counters(set_op_words=10.0, index_lookups=5.0, build_words=2.0)
    assert c.work == 17.0


def test_merge_sums_and_maxes():
    a = Counters(function_calls=3, max_depth=4, peak_subgraph_bytes=100,
                 set_op_words=1.0)
    b = Counters(function_calls=2, max_depth=7, peak_subgraph_bytes=50,
                 set_op_words=2.0)
    a.merge(b)
    assert a.function_calls == 5
    assert a.max_depth == 7
    assert a.peak_subgraph_bytes == 100
    assert a.set_op_words == 3.0


def test_as_dict_keys():
    d = Counters().as_dict()
    assert "work" in d and "function_calls" in d and "peak_subgraph_bytes" in d


def test_work_is_recursion_share_plus_build_bit_exactly():
    # Values where float addition order shows: (a + b) + c != a + (b + c).
    c = Counters(set_op_words=1e16, index_lookups=1.0, build_words=1.0)
    assert c.recursion_work == 1e16 + 1.0
    assert c.work == c.recursion_work + c.build_words
    assert c.work != c.set_op_words + (c.index_lookups + c.build_words)
