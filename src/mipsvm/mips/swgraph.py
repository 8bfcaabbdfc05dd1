"""Navigable small-world graph for inner-product search.

Nodes are class rows; links are undirected and kept to at most
``max_neighbors`` per node.  Queries run a greedy best-first traversal from
a small persistent entry set, keeping a candidate list of ``ef_search``
nodes; inserts use the same traversal with ``ef_construction``.  Similarity
is the raw inner product, which is what makes the graph usable as a MIPS
backend even though it is not a metric.

Deletion (the first half of an update) reconnects the removed node's
neighbors pairwise before pruning, so the graph stays connected under the
churn of training-time refreshes.  Entry points are reservoir-sampled at
insert time; queries never touch the RNG and are safe to run concurrently.
"""

from __future__ import annotations

import heapq
from itertools import combinations

import numpy as np

from ..sparse import SparseVector, dot
from .base import BACKEND_DEFAULTS, MipsIndex

ENTRY_POINTS = 4


class SwGraphIndex(MipsIndex):
    kind = "swgraph"

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

    # -- traversal --------------------------------------------------------

    def _search(self, x: SparseVector, ef: int) -> list[tuple[float, int]]:
        """Greedy best-first candidates, best first; scores are exact dots."""
        entries = self._entries if self._entries else sorted(self._rows)[:1]
        visited = set(entries)
        frontier = []
        results: list[tuple[float, int]] = []
        for e in entries:
            s = dot(self._rows[e], x)
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
                s = dot(self._rows[v], x)
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
        row_v = self._rows[v]
        ranked = sorted(self._adj[v],
                        key=lambda w: (-dot(self._rows[w], row_v), w))
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
        if len(self._rows) <= 1:
            return
        seen = self._component(min(self._rows))
        while len(seen) < len(self._rows):
            r = min(c for c in self._rows if c not in seen)
            comp = self._component(r)
            row_r = self._rows[r]
            pool = [u for u in seen if len(self._adj[u]) < self.max_neighbors]
            if not pool:
                pool = list(seen)
            best = max(sorted(pool),
                       key=lambda u: (dot(self._rows[u], row_r), -u))
            self._link(r, best)
            seen |= comp

    def _insert(self, c: int, row: SparseVector):
        others_exist = bool(self._rows)
        self._store(c, row)
        self._adj[c] = set()
        if others_exist:
            candidates = [v for _, v in self._search(row, self.ef_construction)
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
        neighbors = sorted(self._adj.pop(c))
        del self._rows[c]
        for v in neighbors:
            self._adj[v].discard(c)
        for a, b in combinations(neighbors, 2):
            self._link(a, b)
        for v in neighbors:
            self._prune(v)
        if c in self._entries:
            self._entries.remove(c)
        if not self._entries and self._rows:
            self._entries.append(min(self._rows))

    # -- MipsIndex interface ------------------------------------------------

    def update_row(self, c: int, new_row: SparseVector) -> None:
        self._check_row(new_row)
        c = int(c)
        if c in self._rows:
            self._delete(c)
        self._insert(c, new_row)
        self._repair_connectivity()

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        self._check_row(x)
        self._require_candidate(exclude)
        for s, c in self._search(x, self.ef_search):
            if c != exclude:
                return c, float(s)
        # traversal surfaced only the excluded class; scan the rest
        return self._scan(x, exclude)

    # -- introspection (used by tests and demos) ----------------------------

    def connected(self) -> bool:
        """True when every inserted node is reachable from every other."""
        if len(self._rows) <= 1:
            return True
        return len(self._component(next(iter(self._rows)))) == len(self._rows)

    def degree(self, c: int) -> int:
        return len(self._adj[c])
