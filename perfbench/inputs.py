"""Seeded input recipes owned by the benchmark (NumPy only).

The program ships its own generators and dataset analogs, but those are
program code that a later change may alter (and the dataset loader is
memoized), so the benchmark re-implements the recipes it needs here.
Every recipe is a pure function of ``(seed, index)``: the same seed
always yields the same edge arrays and edit streams, which
:func:`digest` fingerprints so two runs can be shown to have measured
identical inputs.

Recipes (bump :data:`RECIPE_VERSION` whenever any of them changes):

* :func:`clique_rich_graph` - the LiveJournal-analog shape: a sparse
  power-law background, heavily overlapping planted cliques and a
  complete 14-partite pocket of 3-vertex groups, ~2.4k vertices.
* :func:`sparse_wide_graph` - a Chung-Lu power-law graph with an
  assortative hub (many cheap roots).
* :func:`edit_batches` / :func:`mirror_stream` - consecutive batches of
  inserts (friend-of-friend closures) and deletes (existing edges),
  replayed forward and then undone in reverse.
"""

from __future__ import annotations

import hashlib

import numpy as np

RECIPE_VERSION = 1

#: Per-recipe stream tags keep the random streams of different recipes
#: independent even when they share a seed.
_TAG_CLIQUE_RICH = 1
_TAG_SPARSE_WIDE = 2
_TAG_EDITS = 3


def _rng(tag: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([RECIPE_VERSION, tag, int(seed), int(index)])


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Deduplicated ``u < v`` rows, sorted, self loops dropped."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = np.sort(e, axis=1)
    e = e[e[:, 0] != e[:, 1]]
    if e.size == 0:
        return e.reshape(0, 2)
    return np.unique(e, axis=0)


def digest(a) -> str:
    """Short SHA-256 fingerprint of an integer array."""
    h = hashlib.sha256(f"v{RECIPE_VERSION}".encode())
    h.update(np.ascontiguousarray(np.asarray(a, dtype=np.int64)).tobytes())
    return h.hexdigest()[:16]


def _power_law_weights(rng, n: int, exponent: float, lo: float,
                       hi: float | None = None) -> np.ndarray:
    """Bounded-Pareto expected degrees, shuffled over the vertices.

    The weights are the distribution's ``n`` evenly spaced quantiles
    rather than random draws: the seed picks which vertex gets which
    weight and the wiring, not the hub sizes, so the work a graph
    carries varies far less from seed to seed.
    """
    hi = float(np.sqrt(n) * lo) if hi is None else hi
    a = 1.0 - exponent
    u = (np.arange(n) + 0.5) / n
    return rng.permutation((lo**a + u * (hi**a - lo**a)) ** (1.0 / a))


def _chung_lu(rng, weights: np.ndarray) -> np.ndarray:
    """Ball-dropping Chung-Lu sampler: endpoints drawn by weight."""
    n = weights.size
    p = weights / weights.sum()
    m = int(weights.sum() / 2)
    src = rng.choice(n, size=m, p=p)
    dst = rng.choice(n, size=m, p=p)
    return np.column_stack((src, dst)).astype(np.int64)


def _clique_edges(members: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(members.size, k=1)
    return np.column_stack((members[iu[0]], members[iu[1]]))


def _planted(rng, sizes, pool: np.ndarray, overlap: float) -> np.ndarray:
    """Cliques planted in ``pool``; each reuses ``overlap`` of its members
    from earlier plants, so their sub-cliques multiply."""
    used: list[int] = []
    chunks = []
    for size in sizes:
        take_old = min(int(round(overlap * size)), len(used))
        old = (rng.choice(np.array(used), take_old, replace=False)
               if take_old else np.zeros(0, dtype=np.int64))
        fresh = rng.choice(np.setdiff1d(pool, old), size - take_old,
                           replace=False)
        members = np.concatenate((old, fresh)).astype(np.int64)
        used.extend(int(v) for v in members)
        chunks.append(_clique_edges(members))
    return np.concatenate(chunks)


def _multipartite_pocket(rng, groups: int, group_size: int,
                         pool: np.ndarray) -> np.ndarray:
    """A complete multipartite pocket on vertices drawn from ``pool``:
    members of one group are never adjacent, every cross-group pair is."""
    ids = rng.choice(pool, groups * group_size, replace=False).astype(np.int64)
    part = np.repeat(np.arange(groups), group_size)
    iu = np.triu_indices(ids.size, k=1)
    keep = part[iu[0]] != part[iu[1]]
    return np.column_stack((ids[iu[0][keep]], ids[iu[1][keep]]))


def _assortative_hub(rng, edges: np.ndarray, n: int,
                     common: float) -> np.ndarray:
    """Join the two highest-degree vertices and give them a ``common``
    share of shared neighbors - the Sec. III-E assortativity signal."""
    deg = np.bincount(edges.ravel(), minlength=n)
    hub, second = (int(v) for v in np.argsort(-deg, kind="stable")[:2])
    nbrs = np.unique(np.concatenate((edges[edges[:, 0] == hub, 1],
                                     edges[edges[:, 1] == hub, 0])))
    want = int(round(common * min(deg[hub], deg[second] + 1)))
    shared = rng.choice(nbrs, size=min(want, nbrs.size), replace=False)
    extra = [(hub, second)] + [(second, int(v)) for v in shared
                               if int(v) != second]
    return canonical_edges(np.concatenate((edges, np.array(extra))))


def clique_rich_graph(seed: int, index: int) -> tuple[np.ndarray, int]:
    """``(edges, n)`` of one LiveJournal-analog graph (~2.4k vertices)."""
    rng = _rng(_TAG_CLIQUE_RICH, seed, index)
    n = 2400
    background = _chung_lu(rng, _power_law_weights(rng, n, 2.6, 3.0))
    rich = _planted(
        rng, [32, 30, 28, 20, 18, 18, 16, 16, 15, 15, 14, 14, 13, 13, 12,
              12, 12],
        np.arange(300, dtype=np.int64), overlap=0.55,
    )
    more = _planted(rng, [8] * 20, np.arange(n, dtype=np.int64), overlap=0.2)
    pocket = _multipartite_pocket(rng, 14, 3, np.arange(300, n))
    edges = canonical_edges(np.concatenate((background, rich, more, pocket)))
    return _assortative_hub(rng, edges, n, common=0.25), n


def sparse_wide_graph(seed: int, index: int, n: int
                      ) -> tuple[np.ndarray, int]:
    """``(edges, n)`` of one sparse Chung-Lu power-law graph (~5 edges
    per vertex) with an assortative hub."""
    rng = _rng(_TAG_SPARSE_WIDE, seed, index)
    background = canonical_edges(
        _chung_lu(rng, _power_law_weights(rng, n, 2.5, 3.4))
    )
    return _assortative_hub(rng, background, n, common=0.3), n


def edit_batches(seed: int, edges: np.ndarray, n: int, batches: int,
                 per_side: int = 16) -> list[list[tuple[str, int, int]]]:
    """``batches`` consecutive edit batches starting from the graph
    ``edges``: each holds ``per_side`` inserts of absent edges, then
    ``per_side`` deletes of present ones, all pairs distinct and valid
    against the graph the earlier batches left, so no record is a
    skipped no-op.

    Inserts close a random open wedge ``u - w - v`` (friend of a
    friend); deletes remove a random edge of a uniformly chosen vertex.
    """
    rng = _rng(_TAG_EDITS, seed, 0)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in canonical_edges(edges).tolist():
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for _ in range(batches):
        batch: list[tuple[str, int, int]] = []
        touched: set[tuple[int, int]] = set()
        while len(batch) < 2 * per_side:
            inserting = len(batch) < per_side
            w = int(rng.integers(n))
            nb = sorted(adj[w])
            if len(nb) < (2 if inserting else 1):
                continue
            if inserting:
                i, j = rng.choice(len(nb), 2, replace=False)
                u, v = sorted((nb[i], nb[j]))
                if v in adj[u]:
                    continue
            else:
                u, v = sorted((w, nb[int(rng.integers(len(nb)))]))
            if (u, v) in touched:
                continue
            touched.add((u, v))
            batch.append(("+" if inserting else "-", u, v))
        for op, u, v in batch:
            (adj[u].add if op == "+" else adj[u].discard)(v)
            (adj[v].add if op == "+" else adj[v].discard)(u)
        out.append(batch)
    return out


def inverse(batch):
    """The batch that undoes ``batch`` on the graph it produced."""
    flip = {"+": "-", "-": "+"}
    return [(flip[op], u, v) for op, u, v in batch]


def mirror_stream(batches):
    """The replayed edge stream: the batches in order, then their
    inverses in reverse order, which returns the graph to its start, so
    the stream can cycle for as long as a run lasts."""
    return list(batches) + [inverse(b) for b in reversed(batches)]


def stream_digest(stream) -> str:
    """Fingerprint of an edit stream (ops encoded as +1 / -1)."""
    rows = [(1 if op == "+" else -1, u, v) for batch in stream
            for op, u, v in batch]
    return digest(np.array(rows, dtype=np.int64).reshape(-1, 3))
