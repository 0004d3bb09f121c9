"""Order statistics and seeded request order."""

from __future__ import annotations

import random

# The tail is read at the highest percentile that still has this many
# samples above it, so it never rests on one or two outliers.
TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """Tail latency and where it was read.

    Returns (value, percentile, n): value is the sample with exactly
    `beyond` samples above it in sorted order, and percentile is the
    share of samples at or below it, in percent.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def pass_order(weights, seed, pass_index):
    """One pass over the fixed multiset of request classes.

    Class i appears weights[i] times; the order is a shuffle drawn from
    (seed, pass_index), so every pass plays the same multiset and the
    same seed always plays the same sequence.
    """
    bag = [i for i, w in enumerate(weights) for _ in range(w)]
    random.Random(seed * 1_000_003 + pass_index).shuffle(bag)
    return bag
