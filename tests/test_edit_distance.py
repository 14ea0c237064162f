"""edit_distance_pairs on non-ASCII names: the Ray plan, its DuckDB twin
and a brute-force byte-wise Levenshtein agree."""

from __future__ import annotations

from itertools import combinations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

NAMES = [
    "café", "cafè", "cafe", "caf", "café", "naïve", "naive", "東京", "東京都",
    "京都", "ab", "ba", "a", "", "Customer#000000001", "Customer#000000002",
]


def _levenshtein(a: bytes, b: bytes) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _rows(df: pd.DataFrame) -> set:
    return {(int(r.key_a), int(r.key_b), int(r.dist)) for r in df.itertuples()}


def test_edit_distance_pairs_non_ascii(ray_session, tmp_path):
    import duckdb

    from __ray_entry__ import oracle_sql
    from plateau_gis_converter_ray.pipelines.queries import q_edit_distance_pairs

    pq.write_table(
        pa.table({"c_custkey": pa.array(range(1, len(NAMES) + 1), pa.int64()),
                  "c_name": pa.array(NAMES, pa.string())}),
        tmp_path / "customer.parquet",
    )
    want = set()
    for (i, a), (j, b) in combinations(enumerate(NAMES, 1), 2):
        d = _levenshtein(a.encode(), b.encode())
        if d <= 1:
            want.add((i, j, d))
    # the fixture exercises multi-byte substitutions and identical names
    assert (1, 2, 1) in want and (1, 5, 0) in want and (1, 3, 1) not in want

    got = _rows(q_edit_distance_pairs(str(tmp_path)).to_pandas())
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW customer AS SELECT * FROM read_parquet('{tmp_path}/customer.parquet')"
    )
    sql = _rows(con.sql(oracle_sql()["edit_distance_pairs"]).df())
    assert got == want
    assert sql == want
