"""Join planning: broadcast map-side join vs hash-shuffle join.

The repo's query plans pick their join strategy by hand (broadcast for
nation x region, hash shuffle for orders x customer). ``auto_join`` makes
that choice an engine decision, the way the reference's pipeline builder
resolves transforms from sink requirements (nusamai/src/transformer): it
broadcasts the build side when — and only when — its size is *provably*
small, and otherwise plans the partitioned hash join.

Size evidence, in order:
1. an explicit ``right_size_hint`` in bytes (caller knowledge);
2. ``Dataset.size_bytes()``, which is O(1) parquet-footer metadata for
   scan-rooted plans (``read_parquet`` + column pruning only) — checked via
   the logical dag so a transformed plan is NEVER executed just to measure
   it (executing an unknown-size side to discover it is too big would be
   the scale bug this module exists to avoid).
If neither gives a bound, the shuffle join is planned.

The broadcast path puts the build table in the object store ONCE
(``ray.put``) and every map task does a vectorized pandas merge against
it — zero shuffle of the probe side, the plan for a dimension that fits
in worker heap at every node. At 10^12 probe rows that saves the full
all-to-all exchange; above ``broadcast_limit_bytes`` the partitioned
``Dataset.join`` keeps memory bounded instead.
"""

from __future__ import annotations

import pandas as pd

DEFAULT_BROADCAST_LIMIT = 64 << 20  # 64 MiB of Arrow bytes per worker heap


def _scan_rooted_size(ds) -> int | None:
    """size_bytes() only when the logical plan is a bare read (O(1) from
    parquet metadata); None for any transformed plan."""
    try:
        dag = ds._plan._logical_plan.dag
        if type(dag).__name__ in ("Read", "ReadParquet"):
            return ds.size_bytes()
    except Exception:
        pass
    return None


def _block_bound(ds) -> int | None:
    """Upper bound on the blocks ``ds`` emits, read off its logical plan
    (never executed); None when the plan carries no evidence.
    ``initial_num_blocks()`` will not do: it reports a one-file read as 1
    block however many blocks the read emits.

    A read emits its requested blocks or its read tasks, whichever is more
    (Ray sizes an unrequested count by bytes); a join, repartition or
    in-memory source emits its partition count. Any of them splits off one
    more block per ``target_max_block_size`` of output, so the source bytes
    under it count too. One-input ops pass the bound through; a union sums
    its inputs'."""
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
    num_partitions: int = 4,
    broadcast_limit_bytes: int = DEFAULT_BROADCAST_LIMIT,
    right_size_hint: int | None = None,
    force: str | None = None,
):
    """Join ``left`` with ``right`` on key columns, picking the strategy.

    ``force`` ("broadcast" | "shuffle") pins the strategy for tests. The
    broadcast path supports ``inner`` and ``left_outer`` (vectorized merge)
    plus ``left_semi`` and ``left_anti`` (vectorized key-membership mask —
    the build side reduces to its key set, so the broadcast payload is even
    smaller); right-emitting join types need the shuffle plan.
    """
    right_on = right_on or on
    strategy = force
    if strategy is None:
        est = (
            right_size_hint
            if right_size_hint is not None
            else _scan_rooted_size(right)
        )
        strategy = (
            "broadcast"
            if est is not None and est <= broadcast_limit_bytes
            else "shuffle"
        )

    if strategy == "shuffle":
        return left.join(
            right,
            join_type=how,
            num_partitions=num_partitions,
            on=on,
            right_on=right_on,
        )

    if how not in ("inner", "left_outer", "left_semi", "left_anti"):
        raise ValueError(f"broadcast join does not support how={how!r}")
    import ray

    lk, rk = list(on), list(right_on)

    def _shuffle_fallback():
        return left.join(
            right,
            join_type=how,
            num_partitions=num_partitions,
            on=on,
            right_on=right_on,
        )

    if how in ("left_semi", "left_anti"):
        keys = right.select_columns(rk).to_pandas().drop_duplicates()
        # same runtime enforcement as the inner/left_outer build path: a
        # dictionary-compressed key column can decompress far past the
        # metadata bound, and the driver is holding it (ADVICE r3)
        if (
            force is None
            and len(keys)
            and broadcast_limit_bytes is not None
            and keys.memory_usage(deep=True).sum() > 4 * broadcast_limit_bytes
        ):
            return _shuffle_fallback()
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
        and broadcast_limit_bytes is not None
        and build.memory_usage(deep=True).sum() > 4 * broadcast_limit_bytes
    ):
        # the metadata bound under-estimated the in-memory build (e.g. a
        # dictionary-compressed string dim): fall back to the shuffle plan
        # instead of broadcasting past the budget — the bound is advisory,
        # this runtime check is the enforcement
        return _shuffle_fallback()
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
