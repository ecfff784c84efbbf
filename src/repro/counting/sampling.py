"""Approximate k-clique counting by sampling.

The paper's related work surveys approximation via sampling (Turán
shadow, color-based sampling) as the alternative when exact counting is
too expensive.  Two estimators are provided, both *unbiased* and both
reusing the exact SCT engine on a sparsified graph, so accuracy can be
traded for time without new counting machinery:

* **vertex sampling** — keep each vertex independently with probability
  ``p``; every k-clique survives with probability ``p^k``, so
  ``count(sample) / p^k`` is unbiased.
* **color sparsification** — partition vertices into ``t`` color
  classes uniformly; keep only monochromatic edges and count within
  classes.  A k-clique survives iff all members share a color
  (probability ``t^{1-k}``), giving the color-based estimator of Ye et
  al. [49] in its simplest form.  Denser locally, sparser globally —
  typically lower variance per unit work on clique-rich graphs.

Averaging ``repeats`` independent estimates tightens the estimate as
``1/sqrt(repeats)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counting.sct import SCTEngine, count_kcliques
from repro.errors import CountingError
from repro.graph.build import from_edge_array, induced_subgraph
from repro.graph.csr import CSRGraph
from repro.ordering.core import core_ordering
from repro.runtime.controller import RunController

__all__ = [
    "ApproxCount",
    "sample_count_vertex",
    "sample_count_color",
    "sample_count_roots",
    "sample_all_sizes_roots",
]


@dataclass(frozen=True)
class ApproxCount:
    """An unbiased estimate with its per-repeat spread.

    ``std_error`` is the standard error of the mean across repeats
    (0 when ``repeats == 1``).
    """

    estimate: float
    std_error: float
    k: int
    repeats: int
    method: str


def _check(k: int, repeats: int) -> None:
    if k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    if repeats < 1:
        raise CountingError("repeats must be >= 1")


def _summarize(samples: list[float], k: int, method: str) -> ApproxCount:
    arr = np.asarray(samples, dtype=np.float64)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return ApproxCount(
        estimate=float(arr.mean()),
        std_error=se,
        k=k,
        repeats=arr.size,
        method=method,
    )


def sample_count_vertex(
    g: CSRGraph,
    k: int,
    p: float,
    *,
    repeats: int = 5,
    seed: int = 0,
    controller: RunController | None = None,
) -> ApproxCount:
    """Vertex-sampling estimator: count on a ``p``-fraction induced
    subgraph, scale by ``p^{-k}``.

    ``controller`` is checked at repeat granularity (one repeat = one
    root-equivalent task) for budgets and fault injection.
    """
    _check(k, repeats)
    if not 0.0 < p <= 1.0:
        raise CountingError("sampling probability p must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    samples: list[float] = []
    for i in range(repeats):
        if controller is not None:
            controller.tick()
        keep = np.flatnonzero(rng.random(g.num_vertices) < p)
        sub = induced_subgraph(g, keep)
        r = count_kcliques(sub, k, core_ordering(sub))
        samples.append(float(r.count or 0) / p**k)
        if controller is not None:
            controller.charge_nodes(r.counters.function_calls)
            controller.complete_root(i)
    return _summarize(samples, k, "vertex-sampling")


def sample_count_color(
    g: CSRGraph,
    k: int,
    num_colors: int,
    *,
    repeats: int = 5,
    seed: int = 0,
    controller: RunController | None = None,
) -> ApproxCount:
    """Color-sparsification estimator: keep monochromatic edges only,
    scale by ``t^{k-1}``."""
    _check(k, repeats)
    if num_colors < 1:
        raise CountingError("num_colors must be >= 1")
    rng = np.random.default_rng(seed)
    edges = g.edge_array()
    samples: list[float] = []
    for i in range(repeats):
        if controller is not None:
            controller.tick()
        colors = rng.integers(0, num_colors, size=g.num_vertices)
        mono = edges[colors[edges[:, 0]] == colors[edges[:, 1]]]
        sub = from_edge_array(mono, num_vertices=g.num_vertices)
        r = count_kcliques(sub, k, core_ordering(sub))
        samples.append(float(r.count or 0) * float(num_colors) ** (k - 1))
        if controller is not None:
            controller.charge_nodes(r.counters.function_calls)
            controller.complete_root(i)
    return _summarize(samples, k, "color-sparsification")


def _root_sample_p(remaining: int, p: float | None) -> float:
    """Default sample rate: ~256 roots per repeat, at least 5%."""
    if p is not None:
        if not 0.0 < p <= 1.0:
            raise CountingError("sampling probability p must lie in (0, 1]")
        return p
    return min(1.0, max(0.05, 256.0 / remaining))


def _sample_roots(engine: SCTEngine, roots) -> np.ndarray:
    """The roots to sample over, as an int64 array (default: all)."""
    if roots is None:
        return np.arange(engine.graph.num_vertices, dtype=np.int64)
    return np.asarray(roots, dtype=np.int64)


def sample_count_roots(
    engine: SCTEngine,
    k: int,
    roots=None,
    *,
    p: float | None = None,
    repeats: int = 3,
    seed: int = 0,
) -> ApproxCount:
    """Root-sampling estimator over ``roots`` (default: every root).

    The SCT total decomposes as ``Σ_v c_v`` over per-root counts, so
    keeping each root with probability ``p`` and counting it *exactly*
    gives the unbiased Horvitz-Thompson estimate ``Σ_sampled c_v / p``
    of the roots' share.  This is the estimator the graceful-
    degradation ladder folds in for the roots an exhausted budget left
    uncounted (see :mod:`repro.runtime.degrade`): unlike whole-graph
    vertex sampling it composes exactly with partial exact progress.
    """
    _check(k, repeats)
    roots = _sample_roots(engine, roots)
    if roots.size == 0:
        return ApproxCount(0.0, 0.0, k, repeats, "root-sampling")
    p = _root_sample_p(roots.size, p)
    rng = np.random.default_rng(seed)
    samples: list[float] = []
    for _ in range(repeats):
        keep = roots[rng.random(roots.size) < p]
        c = sum(engine.count_root(int(v), k) for v in keep)
        samples.append(float(c) / p)
    return _summarize(samples, k, "root-sampling")


def sample_all_sizes_roots(
    engine: SCTEngine,
    roots=None,
    *,
    max_k: int | None = None,
    p: float | None = None,
    repeats: int = 3,
    seed: int = 0,
) -> tuple[list[float], float]:
    """All-k companion of :func:`sample_count_roots`.

    Returns ``(estimates, total_std_error)`` where ``estimates[s]``
    estimates the s-cliques contributed by ``roots`` (default: every
    root) and ``total_std_error`` is the spread of the summed estimate
    across repeats.
    """
    if repeats < 1:
        raise CountingError("repeats must be >= 1")
    length, _cap = engine._allk_shape(max_k)
    roots = _sample_roots(engine, roots)
    if roots.size == 0:
        return [0.0] * length, 0.0
    p = _root_sample_p(roots.size, p)
    rng = np.random.default_rng(seed)
    rows: list[list[float]] = []
    for _ in range(repeats):
        keep = roots[rng.random(roots.size) < p]
        row = [0.0] * length
        for v in keep:
            for s, c in enumerate(engine.count_root_all(int(v), max_k)):
                row[s] += c
        rows.append([c / p for c in row])
    arr = np.asarray(rows, dtype=np.float64)
    means = arr.mean(axis=0)
    totals = arr.sum(axis=1)
    se = (
        float(totals.std(ddof=1) / np.sqrt(totals.size))
        if totals.size > 1
        else 0.0
    )
    return [float(c) for c in means], se
