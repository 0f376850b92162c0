"""Contiguous span planning.

Cuts ``num_items`` into ``[start, stop)`` spans of a fixed size.  The
engine's per-sample cell folds (:mod:`repro.eval.eval_shards`) cut each
contiguous run of a cell's missing samples into chunks of at most
``forward_batch`` samples with it.
"""

from __future__ import annotations

Span = tuple[int, int]


def plan_shards(num_items: int, shard_size: int) -> list[Span]:
    """Split ``num_items`` into contiguous ``[start, stop)`` shards.

    Span boundaries depend only on ``shard_size``, never on the total:
    a batch that *grows* keeps every existing span and appends new ones
    (``plan_shards(9, 3)`` is a prefix of ``plan_shards(12, 3)``).
    That prefix stability is what lets a larger re-run of a sharded
    workload serve its old spans from the result cache and execute only
    the new suffix.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(start + shard_size, num_items))
        for start in range(0, num_items, shard_size)
    ]
