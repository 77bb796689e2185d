"""Edit-distance DP kernel.

``edit_matrix`` fills the integer unit-cost DP matrix one row at a time,
vectorized with numpy: substitution and deletion come from the previous
row, and the insertion recurrence along the row is a prefix minimum.  The
backtrace in ``edit_distance_counts`` turns the matrix into
substitution/deletion/insertion counts and resolves ties in a fixed order:
substitution, then deletion, then insertion.
"""

from __future__ import annotations

import numpy as np

# the one backend; kept as a name because run records report it
BACKEND = "numpy"


def edit_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full unit-cost edit-distance DP matrix for int id sequences."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    n = a.shape[0]
    m = b.shape[0]
    dp = np.empty((n + 1, m + 1), dtype=np.int64)
    dp[0] = np.arange(m + 1)
    cols = np.arange(m + 1)
    for i in range(1, n + 1):
        prev = dp[i - 1]
        sub = prev[:-1] + (b != a[i - 1])
        dele = prev[1:] + 1
        base = np.empty(m + 1, dtype=np.int64)
        base[0] = i
        np.minimum(sub, dele, out=base[1:])
        # dp[i, j] = min_{k<=j} (base[k] + j - k): prefix minimum of base[k]-k
        dp[i] = np.minimum.accumulate(base - cols) + cols
    return dp


def edit_distance_counts(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int, int]:
    """Edit distance of ``b`` against reference ``a``, with operation counts.

    Returns ``(distance, substitutions, deletions, insertions)``; the
    backtrace prefers substitution over deletion over insertion when costs
    tie, so counts are deterministic (distance is unique regardless).
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    dp = edit_matrix(a, b)
    i, j = a.shape[0], b.shape[0]
    subs = dels = ins = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + (a[i - 1] != b[j - 1]):
            if a[i - 1] != b[j - 1]:
                subs += 1
            i -= 1
            j -= 1
        elif i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return int(dp[a.shape[0], b.shape[0]]), subs, dels, ins
