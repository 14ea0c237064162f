"""End-to-end training-corpus cleaning: quality filter -> dedup (exact +
near-dup keep-canonical) -> eval-set decontamination -> sequence packing,
as ONE resumable staged job.

The composition trick: every stage writes its survivors as a
``documents.parquet`` directory inside its stage dir, so each downstream
stage runs the UNCHANGED registry operators (quality gate, blocked-
Jaccard keep-canonical labels, 3-gram contamination probe, packing)
against the intermediate — the stage dir simply plays the ``sf_dir``
role. Stage boundaries are deliberate materialization points: they are
the pipeline's checkpoints (the flagship chunk manifest at coarser
grain). Each stage commits atomically (tmp dir + rename via
``atomic_write_dir``) and appends a manifest line with rows-in/rows-out
+ elapsed; a rerun skips complete stages before any compute is
scheduled, and a config change (different source/params) fails loudly
instead of resuming into a mismatched chain.
"""

from __future__ import annotations

import json
import os
import time

import pandas as pd
import pyarrow as pa

from ..stages.treeagg import grouped_apply
from ..state.manifest import PartitionManifest, atomic_write_dir

STAGES = ("filter", "dedup", "decontam", "pack")


def _docs_dir(stage_dir: str) -> str:
    return os.path.join(stage_dir, "documents.parquet")


def _write_docs(ds, stage_dir: str) -> int:
    """Write ``ds`` as the stage's documents table, atomically; returns
    the row count (from the written footers — no second execution)."""
    import pyarrow.parquet as pq

    def do_write(tmp):
        ds.write_parquet(os.path.join(tmp, "documents.parquet"))

    atomic_write_dir(stage_dir, do_write)
    d = _docs_dir(stage_dir)
    return sum(
        pq.read_metadata(os.path.join(d, f)).num_rows
        for f in os.listdir(d)
        if f.endswith(".parquet")
    )


def run_text_clean(sf_dir: str, out_dir: str, budget: int = 256) -> dict:
    """Run (or resume) the four-stage clean; returns per-stage metrics."""
    from ..stages.joins import auto_join
    from .queries import _read, q_contamination, q_corpus_dedup, q_sequence_pack

    config = {"sf_dir": sf_dir, "budget": budget, "stages": list(STAGES)}
    manifest = PartitionManifest(out_dir, config)
    cfg_path = os.path.join(out_dir, "config.json")
    if os.path.exists(cfg_path):
        prev = json.loads(open(cfg_path).read())
        if prev != config:
            raise ValueError(
                f"resume config mismatch: previous run used {prev}, this "
                f"invocation asks {config}; use a fresh out_dir"
            )
    else:
        with open(cfg_path, "w") as f:
            json.dump(config, f)
    done = manifest.completed_keys()
    metrics: dict[str, dict] = {}
    if os.path.exists(manifest.path):
        with open(manifest.path) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                    metrics[rec["key"]] = rec["metrics"]
                except (json.JSONDecodeError, KeyError):
                    continue

    def commit(stage: str, rows_in: int, rows_out: int, t0: float):
        m = {
            "rows_in": rows_in,
            "rows_out": rows_out,
            "elapsed_s": round(time.monotonic() - t0, 3),
        }
        manifest.commit_partition(
            stage, rows=rows_out, checksum=0,
            lineage={"stage": stage}, metrics=m,
        )
        metrics[stage] = m

    d_filter = manifest.partition_dir("filter")
    d_dedup = manifest.partition_dir("dedup")
    d_decontam = manifest.partition_dir("decontam")
    d_pack = manifest.partition_dir("pack")

    # -- stage 1: quality gate (alpha ratio + token floor, vectorized) ----
    if "filter" not in done:
        from ..stages.text import TextStats

        t0 = time.monotonic()
        docs = _read(
            sf_dir, "documents",
            ["doc_id", "text", "lang", "source", "n_chars"],
        )
        rows_in = docs.count()

        stats = docs.map_batches(TextStats(), batch_format="pandas")

        def gate(batch: pd.DataFrame) -> pd.DataFrame:
            keep = (2 * batch["n_alpha"] >= batch["n_chars_calc"]) & (
                batch["n_tokens"] >= 5
            )
            return batch.loc[
                keep, ["doc_id", "text", "lang", "source", "n_chars"]
            ]

        kept = stats.map_batches(gate, batch_format="pandas")
        rows_out = _write_docs(kept, d_filter)
        commit("filter", rows_in, rows_out, t0)

    # -- stage 2: exact dedup (text-hash keep-min-id) + near-dup ---------
    # keep-canonical (blocked-Jaccard -> CC -> kept labels), both against
    # the stage-1 survivors
    if "dedup" not in done:
        t0 = time.monotonic()
        docs = _read(
            d_filter, "documents",
            ["doc_id", "text", "lang", "source", "n_chars"],
        )
        rows_in = docs.count()

        def keep_min(df: pd.DataFrame) -> pd.DataFrame:
            # exact within the hash group: dedup on the TEXT, not the hash
            df = df.sort_values(["text", "doc_id"], kind="stable")
            return df.drop_duplicates("text", keep="first")

        exact = grouped_apply(docs, ["text"], keep_min)
        exact_dir = os.path.join(out_dir, "_exact")
        n_exact = _write_docs(exact, exact_dir)

        labels = q_corpus_dedup(exact_dir)

        def only_kept(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(
                pc.equal(batch.column("kept"), pa.scalar(1))
            ).select(["doc_id"])

        kept_ids = labels.map_batches(only_kept, batch_format="pyarrow")
        docs = _read(
            exact_dir, "documents",
            ["doc_id", "text", "lang", "source", "n_chars"],
        )
        survivors = auto_join(docs, kept_ids, on=("doc_id",))
        rows_out = _write_docs(survivors, d_dedup)
        commit("dedup", rows_in, rows_out, t0)
        # the exact-dedup intermediate is only an input to this stage;
        # drop it once the stage commit lands (it would otherwise double
        # the pipeline's persistent footprint at corpus scale)
        import shutil

        shutil.rmtree(exact_dir, ignore_errors=True)

    # -- stage 3: decontamination (3-gram overlap with the eval split) ---
    if "decontam" not in done:
        t0 = time.monotonic()
        docs = _read(
            d_dedup, "documents",
            ["doc_id", "text", "lang", "source", "n_chars"],
        )
        rows_in = docs.count()
        probe = q_contamination(d_dedup)

        def clean_ids(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            ok = pc.and_(
                pc.equal(batch.column("n_hit"), pa.scalar(0)),
                pc.equal(batch.column("is_eval"), pa.scalar(0)),
            )
            return batch.filter(ok).select(["doc_id"])

        ids = probe.map_batches(clean_ids, batch_format="pyarrow")
        survivors = auto_join(docs, ids, on=("doc_id",))
        rows_out = _write_docs(survivors, d_decontam)
        commit("decontam", rows_in, rows_out, t0)

    # -- stage 4: sequence packing over the clean corpus -----------------
    if "pack" not in done:
        t0 = time.monotonic()
        packed = q_sequence_pack(d_decontam, budget=budget)

        def do_write(tmp):
            packed.write_parquet(os.path.join(tmp, "packed.parquet"))

        atomic_write_dir(d_pack, do_write)
        import pyarrow.parquet as pq

        pdir = os.path.join(d_pack, "packed.parquet")
        rows_out = sum(
            pq.read_metadata(os.path.join(pdir, f)).num_rows
            for f in os.listdir(pdir)
            if f.endswith(".parquet")
        )
        commit("pack", metrics["decontam"]["rows_out"], rows_out, t0)

    return {"out_dir": out_dir, "stages": {k: metrics[k] for k in STAGES}}
