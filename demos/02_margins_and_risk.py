"""Exact vs approximate margins and the hinge risk.

The margin of (x, y) is the true-class score minus the best rival score.
Finding that rival exactly costs a scan over all C classes; the inexact
version asks a search index for a rival candidate instead.  Because the
exact rival maximizes the subtracted score, the approximate margin can only
err upward, which is the one-sided guarantee everything else builds on.
"""

import numpy as np

from mipsvm import (SparseVector, WeightMatrix, build_index, empirical_risk,
                    exact_margin, hinge_loss, inexact_margin)
from mipsvm.dataio import Dataset

rng = np.random.default_rng(0)
C, d = 30, 16

W = WeightMatrix(C, d)
for c in range(C):
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    W.add_to_row(c, 1.0, SparseVector(np.arange(d), v, d, check=False))

x = SparseVector(np.arange(d), rng.standard_normal(d), d, check=False)
y = 4

m = exact_margin(W, x, y)
print(f"exact margin:  {m.margin:+.4f}  (rival class {m.rival})")
print(f"hinge loss at rho=1: {hinge_loss(m.margin, 1.0):.4f}")

# A deliberately weak LSH index (2 bits, 1 table) makes approximation
# errors visible; candidates are still re-scored exactly.
rows = [(c, W.materialize_row(c)) for c in range(C)]
weak = build_index(rows, "simplelsh", dim=d, lsh_bits=2, lsh_tables=1, seed=1)
mb = inexact_margin(weak, W, x, y)
print(f"\nweak-LSH margin: {mb.margin:+.4f}  (rival class {mb.rival})")
print("dominance (approx >= exact):", mb.margin >= m.margin)

# Over a whole dataset the same dominance makes the approximate empirical
# hinge risk a lower bound on the exact one.
data = Dataset([(int(rng.integers(C)),
                 SparseVector(np.arange(d), rng.standard_normal(d), d,
                              check=False)) for _ in range(400)], d, C)
exact_risk = empirical_risk(W, data, rho=1.0)
approx_risk = empirical_risk(W, data, rho=1.0, index=weak)
print(f"\nexact  risk: hinge={exact_risk.empirical_hinge:.4f} "
      f"error={exact_risk.zero_one:.3f}")
print(f"approx risk: hinge={approx_risk.empirical_hinge:.4f} "
      f"error={approx_risk.zero_one:.3f}")
print("approx hinge <= exact hinge:",
      approx_risk.empirical_hinge <= exact_risk.empirical_hinge)

# With the exact backend the two margins coincide bit for bit.
exact_index = build_index(rows, "exact", dim=d)
same = all(inexact_margin(exact_index, W, xq, yq) == exact_margin(W, xq, yq)
           for yq, xq in data.examples[:100])
print("\nexact backend degenerates to the exact margin:", same)
