"""Join planning: broadcast map-side join vs hash-shuffle join.

``auto_join`` is the engine's one join entry: no other module calls
``Dataset.join``. It makes broadcast vs shuffle an engine decision, the
way the reference's pipeline builder resolves transforms from sink
requirements (nusamai/src/transformer): it broadcasts the build side when
— and only when — its size is *provably* small, and otherwise plans the
partitioned hash join over :data:`JOIN_PARTITIONS` partitions.

Size evidence, in order:
1. an explicit ``right_size_hint`` in bytes — caller knowledge the plan
   cannot show (a semi-join output bounded by its scan, a per-key stats
   table bounded by a multiple of its key column);
2. :func:`_size_bound`, read off the build side's logical plan and never
   executed (executing an unknown-size side to discover it is too big
   would be the scale bug this module exists to avoid):
   - a bare read: its O(1) parquet-footer metadata size;
   - ``Filter`` / ``Project`` (select, drop, rename) / ``Limit`` over a
     read: that read's size, since those operators only shrink it;
   - an in-memory dataset (``from_arrow``, ``from_pandas``,
     ``.materialize()``): its block-metadata size;
   - nothing for any other plan.
If neither gives a bound, or the join type emits unmatched right rows
(``full_outer``, ``right_outer``), the shuffle join is planned. A sampled
output-size estimate would slot in as a third rule.

The broadcast path puts the build table in the object store ONCE
(``ray.put``) and every map task does a vectorized pandas merge against
it — zero shuffle of the probe side, the plan for a dimension that fits
in worker heap at every node. At 10^12 probe rows that saves the full
all-to-all exchange; above ``DEFAULT_BROADCAST_LIMIT`` (read at call time,
so a test can lower it) the partitioned ``Dataset.join`` keeps memory
bounded instead.
"""

from __future__ import annotations

import pandas as pd

DEFAULT_BROADCAST_LIMIT = 64 << 20  # 64 MiB of Arrow bytes per worker heap

# hash-join exchange width, the engine's one partition count. Measured on
# the single-node harness: 8+ partitions ran slower, because each join's
# aggregator actors contend with the other stages for CPUs (two chained
# 16-way joins stalled a 4-CPU node), and a sweep over {2, 4, 8, 16} on
# nation_revenue was flat (the cost is the join's exchanges, not its
# width; BASELINE.md)
JOIN_PARTITIONS = 4

# logical operators that only drop rows or columns of their input
_SHRINKING = ("Filter", "Project", "Limit")
_BROADCAST_HOWS = ("inner", "left_outer", "left_semi", "left_anti")


def _size_bound(ds) -> int | None:
    """Bytes bound on ``ds`` read off its logical plan, never executed:
    a root's (read or in-memory source) metadata size, or for a chain of
    filters / projections / limits over a read, that read's size. None for
    any other plan."""
    try:
        op = ds._plan._logical_plan.dag
        shrunk = False
        while type(op).__name__ in _SHRINKING and getattr(op, "exprs", None) is None:
            op, shrunk = op.input_dependencies[0], True
        if op.input_dependencies or (shrunk and type(op).__name__ != "Read"):
            return None
        return op.infer_metadata().size_bytes
    except AttributeError:  # a plan shape this walk does not know
        return None


def _block_bound(ds) -> int | None:
    """Estimate of the blocks ``ds`` emits, read off its logical plan
    (never executed); None when the plan carries no evidence.
    ``initial_num_blocks()`` will not do: it reports a one-file read as 1
    block however many blocks the read emits.

    A read emits its requested blocks or its read tasks, whichever is more
    (Ray sizes an unrequested count by bytes); a join, repartition or
    in-memory source emits its partition count. Any of them splits off one
    more block per ``target_max_block_size`` of output, so the source bytes
    under it count too. One-input ops pass the bound through; a union sums
    its inputs'. That makes it an upper bound only for plans whose maps
    keep or shrink their rows: a row-expanding map (a tile fan-out) splits
    its larger output into more blocks than the bound says."""
    from ray.data import DataContext

    ctx = DataContext.get_current()

    def source_bytes(op):
        sizes = [
            o._mem_size if type(o).__name__ == "Read"
            else o.infer_metadata().size_bytes
            for o in op.post_order_iter() if not o.input_dependencies
        ]
        return None if None in sizes else sum(sizes)

    def bound(op):
        name, deps = type(op).__name__, op.input_dependencies
        if name == "Union":
            parts = [bound(o) for o in deps]
            return None if None in parts else sum(parts)
        n = op._num_outputs
        if name == "Read":
            n = max(op._parallelism, n or 0)
            if op._parallelism < 0 and op._mem_size:
                n = max(n, min(ctx.read_op_min_num_blocks,
                               op._mem_size // ctx.target_min_block_size))
        if n is None:
            return bound(deps[0]) if len(deps) == 1 else None
        size = source_bytes(op)
        if size is None:
            return None
        return n + size // ctx.target_max_block_size if ctx.target_max_block_size else n

    try:
        return bound(ds._plan._logical_plan.dag)
    except AttributeError:  # a plan shape this walk does not know
        return None


def auto_join(
    left,
    right,
    on: tuple,
    right_on: tuple | None = None,
    how: str = "inner",
    right_size_hint: int | None = None,
    force: str | None = None,
):
    """Join ``left`` with ``right`` on key columns, picking the strategy.

    ``force`` ("broadcast" | "shuffle") pins the strategy for tests. The
    broadcast path supports ``inner`` and ``left_outer`` (vectorized merge)
    plus ``left_semi`` and ``left_anti`` (vectorized key-membership mask —
    the build side reduces to its key set, so the broadcast payload is even
    smaller); right-emitting join types plan the shuffle.
    """
    right_on = right_on or on
    limit = DEFAULT_BROADCAST_LIMIT
    strategy = force
    if strategy is None:
        est = right_size_hint if right_size_hint is not None else _size_bound(right)
        strategy = (
            "broadcast"
            if how in _BROADCAST_HOWS and est is not None and est <= limit
            else "shuffle"
        )

    def shuffle():
        return left.join(
            right,
            join_type=how,
            num_partitions=JOIN_PARTITIONS,
            on=on,
            right_on=right_on,
        )

    if strategy == "shuffle":
        return shuffle()
    if how not in _BROADCAST_HOWS:
        raise ValueError(f"broadcast join does not support how={how!r}")
    import ray

    lk, rk = list(on), list(right_on)

    if how in ("left_semi", "left_anti"):
        keys = right.select_columns(rk).to_pandas().drop_duplicates()
        # same runtime enforcement as the inner/left_outer build path: a
        # dictionary-compressed key column can decompress far past the
        # metadata bound, and the driver is holding it (ADVICE r3)
        if (
            force is None
            and len(keys)
            and keys.memory_usage(deep=True).sum() > 4 * limit
        ):
            return shuffle()
        ref = ray.put(pd.MultiIndex.from_frame(keys))
        keep_if = how == "left_semi"

        def mask(batch: pd.DataFrame) -> pd.DataFrame:
            from .treeagg import clean_arrow

            idx = ray.get(ref)
            m = pd.MultiIndex.from_frame(batch[lk]).isin(idx)
            return clean_arrow(batch[m if keep_if else ~m])

        return left.map_batches(mask, batch_format="pandas")

    build = right.to_pandas()
    # overlapping NON-key columns would get pandas _x/_y suffixes under
    # the broadcast merge and a duplicate-field schema under Ray's shuffle
    # join — neither is usable, so fail loudly at planning time when the
    # probe schema is known without execution (the probe fn repeats the
    # check otherwise)
    lschema = left.schema(fetch_if_missing=False)
    if lschema is not None:
        overlap = (
            (set(lschema.names) & set(build.columns)) - set(lk) - set(rk)
        )
        if overlap:
            raise ValueError(
                f"join sides share non-key columns {sorted(overlap)}; "
                "rename or drop them before joining"
            )
    if (
        force is None
        and len(build)
        and build.memory_usage(deep=True).sum() > 4 * limit
    ):
        # the metadata bound under-estimated the in-memory build (e.g. a
        # dictionary-compressed string dim): fall back to the shuffle plan
        # instead of broadcasting past the budget — the bound is advisory,
        # this runtime check is the enforcement
        return shuffle()
    if how == "left_outer":
        # unmatched probe rows null the build columns; pandas merge would
        # coerce int64 -> float64 NaN there, diverging from the shuffle
        # plan's nullable int64 — pre-convert build ints to nullable Int*
        _NULLABLE = {
            "int8": "Int8", "int16": "Int16", "int32": "Int32",
            "int64": "Int64", "uint8": "UInt8", "uint16": "UInt16",
            "uint32": "UInt32", "uint64": "UInt64",
        }
        for c in build.columns:
            name = str(build[c].dtype)
            if name in _NULLABLE:
                build[c] = build[c].astype(_NULLABLE[name])
    ref = ray.put(build)

    pd_how = "inner" if how == "inner" else "left"

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        from .treeagg import clean_arrow

        b = ray.get(ref)
        overlap = (set(batch.columns) & set(b.columns)) - set(lk) - set(rk)
        if overlap:
            raise ValueError(
                f"join sides share non-key columns {sorted(overlap)}; "
                "rename or drop them before joining"
            )
        out = batch.merge(
            b, how=pd_how, left_on=lk, right_on=rk, sort=False, copy=False
        )
        # match Dataset.join's schema: the right key columns are dropped
        out = out.drop(columns=[c for c in rk if c not in lk])
        return clean_arrow(out)

    return left.map_batches(probe, batch_format="pandas")
