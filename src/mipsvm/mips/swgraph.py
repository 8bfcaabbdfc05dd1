"""Navigable small-world graph for inner-product search.

Nodes are class rows; links are undirected and kept to at most
``max_neighbors`` per node.  Queries run a greedy best-first traversal from
a small persistent entry set, keeping a candidate list of ``ef_search``
nodes; inserts use the same traversal with ``ef_construction``.  Similarity
is the raw inner product, which is what makes the graph usable as a MIPS
backend even though it is not a metric.  The traversal ranks by
:func:`mipsvm.sparse.dot`'s floats and proposes its best node as a
one-class pool, and :meth:`MipsIndex.query_batch` gives its exact score.

The graph keeps no rows: it reads the base class's store, and an update
relinks the changed rows one at a time.  Deletion reconnects the removed
node's neighbors pairwise before pruning, so the graph stays connected
under the churn of training-time refreshes.  Entry points are
reservoir-sampled at insert time; queries never touch the RNG and are
safe to run concurrently.
"""

from __future__ import annotations

import heapq
from itertools import combinations

import numpy as np

# dot is unused here; perfbench/tracing.py patches it on this module
from ..sparse import _dot_arrays, dot  # noqa: F401
from .base import BACKEND_DEFAULTS, MipsIndex

ENTRY_POINTS = 4


class SwGraphIndex(MipsIndex):
    kind = "swgraph"
    # perfbench/tracing.py wraps these by name on each backend class
    query, update_row = MipsIndex.query, MipsIndex.update_row

    def __init__(self, dim: int, *,
                 max_neighbors: int = BACKEND_DEFAULTS["swg_max_neighbors"],
                 ef_construction: int = BACKEND_DEFAULTS["swg_ef_construction"],
                 ef_search: int = BACKEND_DEFAULTS["swg_ef_search"], seed: int = 0):
        super().__init__(dim)
        if max_neighbors < 1 or ef_construction < 1 or ef_search < 1:
            raise ValueError("graph parameters must be positive")
        self.max_neighbors = int(max_neighbors)
        self.ef_construction = int(ef_construction)
        self.ef_search = int(ef_search)
        self._adj: dict[int, set[int]] = {}
        self._entries: list[int] = []
        self._rng = np.random.default_rng(seed)
        self._inserted_total = 0
        self._relinked = self._block  # the store the graph was last relinked from
        self._pending: set[int] = set()  # the replaced rows not yet relinked

    # -- traversal --------------------------------------------------------

    def _row(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Index and value views of the row of class ``c`` as the graph links
        it: its previous value while ``c`` waits to be relinked."""
        block = self._relinked if c in self._pending else self._block
        lo, hi = block.indptr[c:c + 2].tolist()
        return block.indices[lo:hi], block.data[lo:hi]

    def _search(self, idx, val, ef: int) -> list[tuple[float, int]]:
        """Greedy best-first candidates for the query ``(idx, val)``, best
        first, ranked by their exact dots."""
        visited = set(self._entries)
        frontier = []
        results: list[tuple[float, int]] = []
        for e in self._entries:
            s = _dot_arrays(*self._row(e), idx, val)
            heapq.heappush(frontier, (-s, e))
            heapq.heappush(results, (s, e))
        while frontier:
            neg_s, u = heapq.heappop(frontier)
            if len(results) >= ef and -neg_s < results[0][0]:
                break
            for v in sorted(self._adj[u]):
                if v in visited:
                    continue
                visited.add(v)
                s = _dot_arrays(*self._row(v), idx, val)
                if len(results) < ef or s > results[0][0]:
                    heapq.heappush(results, (s, v))
                    if len(results) > ef:
                        heapq.heappop(results)
                    heapq.heappush(frontier, (-s, v))
        return sorted(results, key=lambda t: (-t[0], t[1]))

    # -- structural maintenance --------------------------------------------

    def _link(self, a: int, b: int):
        if a != b:
            self._adj[a].add(b)
            self._adj[b].add(a)

    def _prune(self, v: int):
        """Trim v's neighbor list to max_neighbors by similarity to v.

        An edge whose other endpoint would be left without any link is kept
        in preference to better-scoring ones, so pruning cannot isolate a
        node.  Component-level splits are handled afterwards by
        :meth:`_repair_connectivity`.
        """
        if len(self._adj[v]) <= self.max_neighbors:
            return
        # trim one below the cap so a later repair link cannot overshoot it
        target = max(1, self.max_neighbors - 1)
        row_v = self._row(v)
        ranked = sorted(self._adj[v],
                        key=lambda w: (-_dot_arrays(*self._row(w), *row_v), w))
        must_keep = [w for w in ranked if len(self._adj[w]) <= 1]
        others = [w for w in ranked if len(self._adj[w]) > 1]
        keep = set((must_keep + others)[:max(target, len(must_keep))])
        for w in [w for w in ranked if w not in keep]:
            self._adj[v].discard(w)
            self._adj[w].discard(v)

    def _component(self, start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def _repair_connectivity(self):
        """Relink stray components left behind by greedy pruning.

        Each detached component gets one edge from its smallest node to the
        most similar node of the main component, preferring partners below
        the degree cap.  Deterministic, so rebuilt indexes stay identical.
        """
        if len(self._adj) <= 1:
            return
        seen = self._component(min(self._adj))
        while len(seen) < len(self._adj):
            r = min(c for c in self._adj if c not in seen)
            comp = self._component(r)
            row_r = self._row(r)
            pool = [u for u in seen if len(self._adj[u]) < self.max_neighbors]
            if not pool:
                pool = list(seen)
            best = max(sorted(pool),
                       key=lambda u: (_dot_arrays(*self._row(u), *row_r), -u))
            self._link(r, best)
            seen |= comp

    def _insert(self, c: int):
        others_exist = bool(self._adj)
        self._adj[c] = set()
        if others_exist:
            candidates = [v for _, v in self._search(*self._row(c), self.ef_construction)
                          if v != c]
            for v in candidates[:self.max_neighbors]:
                self._link(c, v)
            for v in list(self._adj[c]):
                self._prune(v)
        self._inserted_total += 1
        if len(self._entries) < ENTRY_POINTS:
            self._entries.append(c)
        else:
            j = int(self._rng.integers(self._inserted_total))
            if j < ENTRY_POINTS:
                self._entries[j] = c

    def _delete(self, c: int):
        """Unlink ``c``; the insert that follows links its new row."""
        neighbors = sorted(self._adj.pop(c))
        for v in neighbors:
            self._adj[v].discard(c)
        for a, b in combinations(neighbors, 2):
            self._link(a, b)
        for v in neighbors:
            self._prune(v)
        if c in self._entries:
            self._entries.remove(c)
        if not self._entries and self._adj:
            self._entries.append(min(self._adj))

    # -- MipsIndex interface ------------------------------------------------

    def _changed(self, ids) -> None:
        """Relink the rows ``ids`` in order, one delete, insert and repair
        each, as one :meth:`update_row` per row would: a replaced row not yet
        relinked reads its old value in the store last relinked from, which
        no one writes in place; a new row is not linked before its insert."""
        super()._changed(ids)
        ids = ids.tolist()
        self._pending = {c for c in ids if c in self._adj}
        for c in ids:
            self._pending.discard(c)
            if c in self._adj:
                self._delete(c)
            self._insert(c)
            self._repair_connectivity()
        self._relinked = self._block

    def _candidates(self, X, excluded):
        """One traversal per row: its best node other than the excluded
        class as a one-class pool, or an empty pool when the traversal
        surfaced only that class."""
        bounds, indptr, pools = X.indptr.tolist(), [0], []
        for lo, hi, e in zip(bounds[:-1], bounds[1:], excluded.tolist()):
            found = self._search(X.indices[lo:hi], X.data[lo:hi], self.ef_search)
            pools += [c for _, c in found if c != e][:1]
            indptr.append(len(pools))
        return np.array(indptr, dtype=np.int64), np.array(pools, dtype=np.int64)

    # -- introspection (used by tests and demos) ----------------------------

    def connected(self) -> bool:
        """True when every inserted node is reachable from every other."""
        if len(self._adj) <= 1:
            return True
        return len(self._component(next(iter(self._adj)))) == len(self._adj)

    def degree(self, c: int) -> int:
        return len(self._adj[c])
