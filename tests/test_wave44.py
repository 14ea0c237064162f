"""Wave 44 pins: rendezvous-hash minimal movement (the property that makes
HRW the right placement primitive) and the Morton interleave ladder vs a
scalar bit loop. Both queries are also oracle-gated at three scales."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

from tests.conftest import SF_SMALL


def _scores(keys: np.ndarray, n_shards: int) -> np.ndarray:
    from plateau_gis_converter_ray.pipelines.queries import _xorshift64

    s = np.arange(n_shards, dtype=np.uint64)[None, :]
    seed = (
        keys.astype(np.uint64)[:, None] * np.uint64(2654435761)
        + s * np.uint64(40503)
        + np.uint64(12345)
    )
    return _xorshift64(seed)


class TestRendezvous:
    def test_counts_and_minimal_movement(self, ray_session):
        from plateau_gis_converter_ray.pipelines.queries import (
            N_SHARDS,
            q_rendezvous_shards,
        )

        out = q_rendezvous_shards(SF_SMALL).to_pandas()
        keys = pq.read_table(
            f"{SF_SMALL}/customer.parquet", columns=["c_custkey"]
        )["c_custkey"].to_numpy()
        sc = _scores(keys, N_SHARDS)
        shard8 = np.argmax(sc, axis=1)
        got = out.set_index("shard")["n_keys"]
        want = np.bincount(shard8, minlength=N_SHARDS)
        assert [int(got.get(s, 0)) for s in range(N_SHARDS)] == want.tolist()
        assert int(got.sum()) == len(keys)

        # HRW invariant: adding a 9th shard moves a key ONLY to the new
        # shard — existing relative order of the old shards is untouched
        sc9 = _scores(keys, N_SHARDS + 1)
        shard9 = np.argmax(sc9, axis=1)
        moved = shard9 != shard8
        assert (shard9[moved] == N_SHARDS).all()
        # and the expected move fraction is ~1/9 (loose band)
        assert 0.02 < moved.mean() < 0.3

    def test_balance(self, ray_session):
        from plateau_gis_converter_ray.pipelines.queries import (
            q_rendezvous_shards,
        )

        out = q_rendezvous_shards(SF_SMALL).to_pandas()
        n = out["n_keys"].to_numpy()
        assert len(out) == 8
        # hash balance: no shard more than 2x the mean on 150 keys
        assert n.max() <= 2 * n.mean() + 5


    def test_mixer_balances_dense_keys(self):
        """Keys 1..150,000 spread evenly over the 8 shards; xorshift64
        without the avalanche finalizer gave a 2.9x max/min ratio."""
        from plateau_gis_converter_ray.pipelines.queries import N_SHARDS

        keys = np.arange(1, 150_001)
        shard = np.argmax(_scores(keys, N_SHARDS), axis=1)
        n = np.bincount(shard, minlength=N_SHARDS)
        assert n.max() / n.min() <= 1.05


class TestMorton:
    def test_part1by1_matches_scalar(self, ray_session):
        from plateau_gis_converter_ray.pipelines.queries import _part1by1

        v = np.arange(1024, dtype=np.uint64)
        got = _part1by1(v)
        for x in (0, 1, 2, 3, 5, 255, 511, 1023):
            want = sum(((x >> b) & 1) << (2 * b) for b in range(10))
            assert int(got[x]) == want

    def test_bucket_zone_maps_nest(self, ray_session):
        from plateau_gis_converter_ray.pipelines.queries import q_zorder_layout

        out = q_zorder_layout(SF_SMALL).to_pandas()
        # a bucket's zone map must sit inside its 256-code range
        lo = out["bucket"].to_numpy() << 8
        assert (out["morton_min"].to_numpy() >= lo).all()
        assert (out["morton_max"].to_numpy() < lo + 256).all()
        assert (out["morton_min"] <= out["morton_max"]).all()
