"""Resumable deduplicated-corpus writer.

The end-to-end "clean the training corpus" job: near-dup pairs -> connected
components -> keep-canonical labels (pipelines/queries.py::q_corpus_dedup)
-> surviving documents written as hash-sharded parquet partitions with the
same per-partition lineage + metrics manifest the flagship uses
(state/manifest.py). A killed run re-labels (CC is cheap relative to the
write at real scale, and labels are deterministic) but SKIPS every shard
whose partition already committed — the second invocation after a kill -9
touches only unfinished shards, and a third invocation writes nothing.

Shard key is ``doc_id % n_shards``: deterministic under re-runs and
repartitioning, so resume never duplicates or drops a row. At 10^12 docs
``n_shards`` scales with the cluster (one shard ~ one write task); the
labels themselves never land on the driver.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.manifest import PartitionManifest, atomic_write_dir


def write_corpus_dedup(sf_dir: str, out_dir: str, n_shards: int = 8,
                       resume: bool = True, max_shards: int | None = None):
    """Write the deduplicated corpus under ``out_dir``; returns a summary
    dict. ``max_shards`` caps how many shards this invocation may write
    (test hook for simulating a killed run)."""
    import json

    from ..stages.joins import auto_join
    from .queries import _read, q_corpus_dedup

    config = {"sf_dir": sf_dir, "n_shards": n_shards}
    manifest = PartitionManifest(out_dir, config)
    # resume-safety: the shard key is doc_id % n_shards, so committed
    # shards from a run with DIFFERENT config would silently mix two
    # incompatible shardings (docs duplicated or dropped) — pin the
    # config on first run and fail loudly on mismatch
    cfg_path = os.path.join(out_dir, "config.json")
    if os.path.exists(cfg_path):
        prev = json.loads(open(cfg_path).read())
        if prev != config:
            raise ValueError(
                f"corpus resume config mismatch: previous run used {prev}, "
                f"this invocation asks {config}; use a fresh out_dir"
            )
    else:
        with open(cfg_path, "w") as f:
            json.dump(config, f)
    done = manifest.completed_keys() if resume else set()
    remaining = [s for s in range(n_shards) if str(s) not in done]
    if max_shards is not None:
        remaining = remaining[:max_shards]
    if not remaining:
        return {
            "out_dir": out_dir,
            "written": 0,
            "written_empty": 0,
            "skipped": n_shards,
            "shards": n_shards,
        }

    labels = q_corpus_dedup(sf_dir)
    keep = labels.filter(expr="kept == 1").select_columns(["doc_id"])
    docs = _read(sf_dir, "documents")
    survive = auto_join(docs, keep, how="left_semi", on=("doc_id",))

    rem = set(remaining)

    def shard_col(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy()
        sh = did % n_shards
        t = batch.append_column("shard", pa.array(sh))
        mask = np.isin(sh, list(rem))
        return t.filter(pa.array(mask))

    sharded = survive.map_batches(shard_col, batch_format="pyarrow")

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        t0 = time.perf_counter()
        key = str(int(g["shard"].iloc[0]))
        g = g.drop(columns=["shard"]).sort_values("doc_id")
        part_dir = manifest.partition_dir(key)

        def _w(tmp: str) -> None:
            pq.write_table(
                # metadata-free: the pandas schema blob would resurface on
                # read and defeat Ray's block-schema dedup
                pa.Table.from_pandas(
                    g, preserve_index=False
                ).replace_schema_metadata(None),
                os.path.join(tmp, "part.parquet"),
            )

        atomic_write_dir(part_dir, _w)
        elapsed = time.perf_counter() - t0
        manifest.commit_partition(
            key,
            rows=len(g),
            checksum=int(g["doc_id"].sum()) & ((1 << 63) - 1),
            lineage={
                "input": sf_dir,
                "stage_chain": "ngram_jaccard->cc->keep_canonical",
            },
            metrics={
                "elapsed_s": round(elapsed, 4),
                "rows_per_s": round(len(g) / max(elapsed, 1e-9), 1),
            },
        )
        return pd.DataFrame({"shard": [int(key)], "rows": [len(g)]})

    written = (
        sharded.groupby("shard")
        .map_groups(write_shard, batch_format="pandas")
        .to_pandas()
    )
    # a shard that owns NO surviving docs never forms a group, so its
    # partition would stay "remaining" forever and every resume would
    # re-execute the full pair-finder pipeline; commit the empty shards
    # here (0 rows, no data dir needed) so resume converges to a no-op
    done = set(written["shard"].tolist()) if len(written) else set()
    for sh in sorted(rem - done):
        manifest.commit_partition(
            str(int(sh)),
            rows=0,
            checksum=0,
            lineage={
                "input": sf_dir,
                "stage_chain": "ngram_jaccard->cc->keep_canonical",
            },
            metrics={"elapsed_s": 0.0, "rows_per_s": 0.0},
        )
    return {
        "out_dir": out_dir,
        "written": len(written),
        "written_empty": len(rem - done),
        "skipped": n_shards - len(remaining),
        "shards": n_shards,
        "rows": int(written["rows"].sum()) if len(written) else 0,
    }


def read_corpus(out_dir: str):
    """Read the written corpus back (one file per committed shard)."""
    import ray.data

    files = []
    for d in sorted(os.listdir(out_dir)):
        if d.startswith("part="):
            p = os.path.join(out_dir, d, "part.parquet")
            if os.path.exists(p):
                files.append(p)
    return ray.data.read_parquet(files)
