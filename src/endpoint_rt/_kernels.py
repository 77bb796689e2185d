"""Edit-distance DP kernel.

``edit_matrices`` fills the integer unit-cost DP matrices of one reference
against many hypotheses together, one reference row at a time, vectorized
with numpy over every hypothesis and column: the hypotheses are padded to
the longest into one ``(k, m)`` array, substitution and deletion come from
the previous row, and the insertion recurrence along the row is a prefix
minimum.  A cell reads only cells above it and to its left, so the padding
changes no cell of a hypothesis's own matrix.  The backtrace in
``edit_distance_counts_batch`` turns each matrix into
substitution/deletion/insertion counts and resolves ties in a fixed order:
substitution, then deletion, then insertion.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# the one backend; kept as a name because run records report it
BACKEND = "numpy"


def edit_matrices(a: np.ndarray, bs: Sequence[np.ndarray]) -> np.ndarray:
    """Unit-cost edit-distance DP matrices of reference ``a`` against each of ``bs``.

    Returns shape ``(k, n + 1, m + 1)`` for k hypotheses, ``n = len(a)`` and
    m the longest hypothesis; hypothesis h's own matrix is
    ``[h, :, :len(bs[h]) + 1]``, and the cells right of it are padding.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    bs = [np.ascontiguousarray(b, dtype=np.int64) for b in bs]
    n = a.shape[0]
    m = max((b.shape[0] for b in bs), default=0)
    padded = np.zeros((len(bs), m), dtype=np.int64)
    for h, b in enumerate(bs):
        padded[h, : b.shape[0]] = b
    cols = np.arange(m + 1)
    dp = np.empty((len(bs), n + 1, m + 1), dtype=np.int64)
    dp[:, 0] = cols
    base = np.empty((len(bs), m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        prev = dp[:, i - 1]
        base[:, 0] = i
        sub = prev[:, :-1] + (padded != a[i - 1])
        np.minimum(sub, prev[:, 1:] + 1, out=base[:, 1:])
        # dp[i, j] = min_{k<=j} (base[k] + j - k): prefix minimum of base[k]-k
        dp[:, i] = np.minimum.accumulate(base - cols, axis=1) + cols
    return dp


def edit_distance_counts_batch(
    a: np.ndarray, bs: Sequence[np.ndarray]
) -> list[tuple[int, int, int, int]]:
    """Edit distance of each of ``bs`` against reference ``a``, from one DP.

    Gives ``(distance, substitutions, deletions, insertions)`` per
    hypothesis; the backtrace prefers substitution over deletion over
    insertion when costs tie, so the counts are deterministic.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    bs = [np.ascontiguousarray(b, dtype=np.int64) for b in bs]
    ref = a.tolist()
    out = []
    for dp, b in zip(edit_matrices(a, bs).tolist(), bs):
        hyp = b.tolist()
        i, j = len(ref), len(hyp)
        subs = dels = ins = 0
        while i or j:
            if i and j and dp[i][j] == dp[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
                if ref[i - 1] != hyp[j - 1]:
                    subs += 1
                i -= 1
                j -= 1
            elif i and dp[i][j] == dp[i - 1][j] + 1:
                dels += 1
                i -= 1
            else:
                ins += 1
                j -= 1
        out.append((dp[len(ref)][len(hyp)], subs, dels, ins))
    return out
