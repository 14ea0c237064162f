"""The engine's one combiner tree and one keyed group-apply.

Combiner tree: a per-block combiner collapses each block to one row per
key BEFORE any exchange (``pa.Table.group_by`` — the C++ hash-aggregate
kernel, no pandas round-trip), then merge levels (``repartition(fan)`` ->
re-aggregate) reduce the already-small partials. Exactness holds because
every op is order-free (sum of ints / min / max / count). The merge levels
come from the input's logical plan (:func:`_merge_levels`), not from the
caller: one level while at most 64 blocks enter the combiner, 8 -> 1 up to
512 blocks, 64 -> 8 -> 1 above. Every exact group-aggregate over a bounded
key space (the flagship's tile merge, the registry queries) goes through
:func:`tree_group_agg`, or :func:`tree_custom_agg` for merges the op table
cannot express (top-k folds, arg-min rows, sketches).

Keyed group-apply: :func:`grouped_apply` co-locates every row of a key in
one ``fn`` call — a hash of the key columns, one ``groupby().map_groups``
exchange. Its group count also comes from the plan (:func:`_group_count`):
64 while the input is at most 64 blocks, one group per block above, so a
group holds about one input block at any scale. The exchange's task
count is its input's block count (Ray's sort keeps it), so an input the
plan bounds below the running cluster's CPU count is first split to that
count (:func:`_split_to_cluster`): a one-block aggregate then runs its
groups on every CPU instead of in one task. Fact-sized key spaces
(:func:`grouped_group_agg`, :func:`grouped_distinct`), every
co-location bucket (per-user sweeps, gram/term/variant buckets, cell
buckets) and the GLB tile sinks go through it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def clean_arrow(df: pd.DataFrame):
    """pandas -> metadata-free Arrow table.

    Ray's own pandas->Arrow block conversion attaches the ``pandas``
    schema-metadata blob, which makes ``hash(pa.Schema)`` raise and
    defeats Ray's block-schema dedup in every downstream shuffle
    (HashShuffleAggregator / reduce warnings, r2 bench tail). Combiners
    that feed an exchange convert explicitly and strip the metadata.
    """
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(
        None
    )


def _drop_null_keys(t: pa.Table, group_cols: list[str]) -> pa.Table:
    """Match pandas-groupby ``dropna=True``: rows with a null group key are
    excluded (Arrow's hash-aggregate would keep them as a null group).
    Metadata-only check first — the filter kernel never runs on the
    (overwhelmingly common) null-free path."""
    if all(t.column(c).null_count == 0 for c in group_cols):
        return t
    mask = pc.is_valid(t.column(group_cols[0]))
    for c in group_cols[1:]:
        mask = pc.and_(mask, pc.is_valid(t.column(c)))
    return t.filter(mask)


def _arrow_group_agg(
    t: pa.Table, group_cols: list[str], aggs: list, out_names: list[str]
) -> pa.Table:
    """One Arrow hash-aggregate pass. ``aggs`` is the pyarrow spec
    (``(src_col, fn)`` / ``([], "count_all")``); ``out_names`` renames the
    aggregate outputs POSITIONALLY (pyarrow emits key columns first, then
    aggregates in spec order — duplicate default names are fine)."""
    t = _drop_null_keys(t, group_cols)
    r = t.group_by(group_cols).aggregate(aggs)
    r = r.rename_columns(list(group_cols) + out_names)
    return r.select(group_cols + out_names).replace_schema_metadata(None)


def _spec_plans(group_cols: list[str], agg_spec: dict):
    """agg_spec {out: (src_col, op)} -> (first_aggs, again_aggs, out_names).

    ``op`` in sum|min|max|count. count = group SIZE (pandas ``"size"``
    semantics: rows, not non-null values) -> Arrow ``count_all``; the
    re-merge of a count partial is a sum."""
    first, again, outs = [], [], []
    for out, (col, op) in agg_spec.items():
        outs.append(out)
        if op == "count":
            first.append(([], "count_all"))
            again.append((out, "sum"))
        else:
            first.append((col, op))
            again.append((out, "sum" if op == "sum" else op))
    return first, again, outs


def _merge_levels(ds) -> list[int]:
    """Merge-level fan-ins for the blocks ``ds`` feeds the combiner: flat
    while few, log-depth at scale, two levels when the plan gives no bound."""
    from .joins import _block_bound

    n = _block_bound(ds)
    if n is None:
        return [8, 1]
    return [1] if n <= 64 else [8, 1] if n <= 512 else [64, 8, 1]


def combine_blocks(ds, group_cols: list[str], agg_spec: dict):
    """The per-block combiner of :func:`tree_group_agg` alone: one row per
    key per block, no exchange. A key's partials may stay split across
    blocks, so use it only where a later aggregate re-merges."""
    first, _, outs = _spec_plans(group_cols, agg_spec)

    def partial(t: pa.Table) -> pa.Table:
        return _arrow_group_agg(t, group_cols, first, outs)

    return ds.map_batches(partial, batch_format="pyarrow", batch_size=None)


def tree_group_agg(ds, group_cols: list[str], agg_spec: dict):
    """``agg_spec``: out_col -> (src_col, op) with op in sum|min|max|count.
    Null-key rows are dropped (pandas ``dropna=True``)."""
    _, again, outs = _spec_plans(group_cols, agg_spec)

    def merge(t: pa.Table) -> pa.Table:
        return _arrow_group_agg(t, group_cols, again, outs)

    partials = combine_blocks(ds, group_cols, agg_spec)
    return _merge_tree(ds, partials, merge, "pyarrow")


def tree_custom_agg(ds, partial, merge):
    """Combiner tree with CUSTOM partial/merge steps, for aggregates the
    op-table can't express (arg-min/arg-max rows, top-k partials, sketch
    merges). ``partial`` collapses one block; ``merge`` re-collapses
    concatenated partials and must be order-free and idempotent on its own
    output. Both take a pandas DataFrame BY CONTRACT and return an Arrow
    table (:func:`clean_arrow`) or a DataFrame."""
    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)
    return _merge_tree(ds, partials, merge, "pandas")


def _merge_tree(ds, partials, merge, batch_format: str):
    for fan in _merge_levels(ds):
        partials = partials.repartition(fan).map_batches(
            merge, batch_format=batch_format, batch_size=None
        )
    return partials


def _col_hash(t: pa.Table, cols: list[str], n_groups: int) -> np.ndarray:
    """Deterministic per-row partition hash over ``cols`` (int64 output in
    [0, n_groups)). Integer columns hash via a numpy polynomial roll;
    string/float/other columns via pandas' vectorized siphash on the ONE
    column (no whole-table pandas round-trip). Only co-location matters —
    the reduce re-groups exactly by value — so collisions are benign."""
    h = np.zeros(len(t), dtype=np.uint64)
    for c in cols:
        col = t.column(c)
        if pa.types.is_integer(col.type):
            v = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            v = pd.util.hash_pandas_object(
                col.to_pandas(), index=False
            ).to_numpy()
        with np.errstate(over="ignore"):
            h = h * np.uint64(1_000_003) + v
    return (h % np.uint64(n_groups)).astype(np.int64)


def _group_count(ds) -> int:
    """Hash groups for :func:`grouped_apply`: 64 while the plan bounds the
    input at 64 blocks or has no bound, else one group per input block."""
    from .joins import _block_bound

    n = _block_bound(ds)
    return 64 if n is None or n <= 64 else n


def _split_to_cluster(ds):
    """``ds`` split to the running cluster's CPU count when the plan bounds
    it below that (``repartition(k)``, no shuffle), else ``ds`` itself.
    Ray's sort exchange keeps its input's block count and ``map_groups``
    runs one task per output block, so a one-block input would run every
    group in one task however many CPUs are idle."""
    import ray

    from .joins import _block_bound

    n = _block_bound(ds)
    cpus = int(ray.cluster_resources().get("CPU", 1)) if ray.is_initialized() else 1
    return ds.repartition(cpus) if n is not None and n < cpus else ds


def grouped_apply(ds, keys: list[str], fn, batch_format: str = "pandas"):
    """The engine's one keyed group-apply: ``fn`` sees every row of a key
    in ONE call, together with the rows of whatever other keys hash to the
    same group, so it must give the same rows whichever keys share a call.
    Rows are tagged ``_g = _col_hash(keys)`` over :func:`_group_count`
    groups and exchanged by ``groupby("_g").map_groups``; ``fn`` receives
    ``ds``'s own columns (the tag is dropped before the call) in
    ``batch_format``, as Ray's ``map_groups`` gives them. An input bounded
    below the cluster's CPU count is split to that count first
    (:func:`_split_to_cluster`)."""
    n = _group_count(ds)

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_g", pa.array(_col_hash(t, keys, n)))

    if batch_format == "pandas":
        def call(batch):
            return fn(batch.drop(columns="_g"))
    else:
        def call(batch):
            return fn(batch.drop_columns(["_g"]))
    call.__name__ = getattr(fn, "__name__", "call")  # Ray's operator name

    return (
        _split_to_cluster(ds)
        .map_batches(tag, batch_format="pyarrow", batch_size=None)
        .groupby("_g")
        .map_groups(call, batch_format=batch_format)
    )


def grouped_distinct(ds, cols: list[str]):
    """Parallel exact DISTINCT on ``cols``.

    The agg tree's serial fan-1 final merge is the right shape for
    BOUNDED aggregate outputs, but a distinct whose output is fact-sized
    (near-dup pair sets, CC edge frontiers) would funnel every row
    through one task. Here each block dedups locally (Arrow hash-group
    with no aggregates == DISTINCT), then :func:`grouped_apply`
    co-locates equal keys and the reduce is ONE more hash-group per hash
    group — fully parallel at every level. Row order is not defined (set
    semantics).
    """

    def local(t: pa.Table) -> pa.Table:
        out = _drop_null_keys(t.select(cols), cols).group_by(cols).aggregate([])
        return out.replace_schema_metadata(None)

    def reduce(t: pa.Table) -> pa.Table:
        return t.group_by(cols).aggregate([]).replace_schema_metadata(None)

    local_ds = ds.map_batches(local, batch_format="pyarrow", batch_size=None)
    return grouped_apply(local_ds, cols, reduce, batch_format="pyarrow")


def grouped_group_agg(ds, group_cols: list[str], agg_spec: dict):
    """tree_group_agg for FACT-SIZED key spaces.

    Same per-block combiner, but the merge is :func:`grouped_apply`, whose
    reduce handles ALL of a hash group's keys in one vectorized pass —
    the output lands in parallel blocks instead of the tree's single
    final block, and no task ever sees the whole key space. Use this
    when |distinct keys| grows with the data (content hashes, (doc, term)
    pairs, near-dup pair sets); keep ``tree_group_agg`` for BOUNDED
    aggregates, where the tree's repartitions are cheaper than a sort
    exchange. ``agg_spec`` format matches tree_group_agg."""
    _, again, outs = _spec_plans(group_cols, agg_spec)

    def merge(t: pa.Table) -> pa.Table:
        return _arrow_group_agg(t, group_cols, again, outs)

    partials = combine_blocks(ds, group_cols, agg_spec)
    return grouped_apply(partials, group_cols, merge, batch_format="pyarrow")
