"""Seeded inputs for the benchmark workloads.

Everything here depends only on numpy and the seed, never on the program
under test, so a change to ``gspnn`` cannot change what it is fed.
"""

from __future__ import annotations

import numpy as np

# MovieLens-100k shape: 943 users, 1682 items, 100,000 ratings, at least 20
# ratings per user, long-tailed item popularity (the most-rated ML-100k item
# has 583 ratings). About 6% of user-item pairs are rated.
ML_USERS = 943
ML_ITEMS = 1682
ML_RATINGS = 100_000
ML_MIN_PER_USER = 20
ML_MAX_PER_USER = 737
# Item popularity falls as 1 / (rank + offset): the offset sets the head
# (~550 raters for the top item) and keeps every item rated about ten times
# or more in expectation.
POPULARITY_OFFSET = 40.0
TASTE_GROUPS = 4


def movielens_like_lines(seed: int) -> list[str]:
    """Lines of a ``u.data`` file shaped like MovieLens-100k.

    Users and items each belong to one of ``TASTE_GROUPS`` taste groups; a
    user rates items of their own group higher, so item rating vectors within
    a group correlate and the rating task is learnable. Ratings are integers
    in 1..5 and no (user, item) pair repeats.
    """
    rng = np.random.default_rng(seed)
    # Per-user counts: the floor plus a multinomial share of the rest, with
    # gamma-distributed activity so a few users rate hundreds of items.
    activity = rng.gamma(1.0, size=ML_USERS)
    extra = rng.multinomial(ML_RATINGS - ML_USERS * ML_MIN_PER_USER,
                            activity / activity.sum())
    counts = np.minimum(ML_MIN_PER_USER + extra, ML_MAX_PER_USER)

    rank_of_item = rng.permutation(ML_ITEMS)
    popularity = 1.0 / (rank_of_item + POPULARITY_OFFSET)
    popularity /= popularity.sum()

    user_group = rng.integers(TASTE_GROUPS, size=ML_USERS)
    item_group = rng.integers(TASTE_GROUPS, size=ML_ITEMS)
    item_bias = rng.normal(scale=0.4, size=ML_ITEMS)
    user_bias = rng.normal(scale=0.3, size=ML_USERS)

    lines = []
    for u in range(ML_USERS):
        items = rng.choice(ML_ITEMS, size=int(counts[u]), replace=False,
                           p=popularity)
        affinity = np.where(item_group[items] == user_group[u], 1.2, -0.5)
        raw = 3.3 + affinity + item_bias[items] + user_bias[u] \
            + rng.normal(scale=0.7, size=items.size)
        ratings = np.clip(np.rint(raw), 1, 5).astype(int)
        stamp = 874_000_000 + 1_000 * u
        for k, (i, r) in enumerate(zip(items.tolist(), ratings.tolist())):
            lines.append(f"{u + 1}\t{i + 1}\t{r}\t{stamp + k}")
    return lines


def weighted_graph_edges(n_nodes: int, edge_prob: float,
                         rng: np.random.Generator) -> list[tuple[int, int, float]]:
    """Erdos-Renyi edges with weights uniform in [0.5, 1.5], plus a random
    spanning path so the graph is always connected."""
    upper = np.triu(rng.random((n_nodes, n_nodes)) < edge_prob, k=1)
    order = rng.permutation(n_nodes)
    a, b = order[:-1], order[1:]
    upper[np.minimum(a, b), np.maximum(a, b)] = True
    rows, cols = np.nonzero(upper)
    weights = rng.uniform(0.5, 1.5, size=rows.size)
    return [(int(i), int(j), float(w)) for i, j, w in zip(rows, cols, weights)]
