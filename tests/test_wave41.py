"""Wave 41 pins: Geary's C and the quadrat variance/mean ratio vs direct
single-process recomputes over the same z10 tile lattice (both are also
oracle-gated at three scales by tools/check_queries.py; these pins prove
the stencil algebra against the naive pair/lattice definitions)."""

from __future__ import annotations

import numpy as np
import pandas as pd

from tests.conftest import SF_SMALL


def _tile_counts():
    import pyarrow.parquet as pq

    from plateau_gis_converter_ray.stages.geocode import add_lnglat_arith
    from plateau_gis_converter_ray.stages.tiles import assign_webmercator

    t = pq.read_table(f"{SF_SMALL}/events.parquet", columns=["event_id"])
    t = add_lnglat_arith(t, "event_id")
    t = assign_webmercator(t, 10)
    df = pd.DataFrame(
        {"x": t.column("tile_x").to_numpy(), "y": t.column("tile_y").to_numpy()}
    )
    return df.groupby(["x", "y"]).size().reset_index(name="n")


class TestGearyC:
    def test_matches_brute_pairs(self, ray_session):
        from plateau_gis_converter_ray.pipelines.queries import q_geary_c

        out = q_geary_c(SF_SMALL)
        tc = _tile_counts()
        xs = tc["x"].to_numpy()
        ys = tc["y"].to_numpy()
        ns = tc["n"].to_numpy().astype(np.int64)
        nt = len(tc)
        num = 0
        w = 0
        for i in range(nt):
            adj = (np.abs(xs - xs[i]) <= 1) & (np.abs(ys - ys[i]) <= 1)
            adj[i] = False
            w += int(adj.sum())
            num += int(((ns[i] - ns[adj]) ** 2).sum())
        s1 = int(ns.sum())
        s2 = int((ns.astype(object) ** 2).sum())
        want = float((nt - 1) * nt * num) / float(2 * w * (nt * s2 - s1 * s1))
        assert int(out["n_tiles"][0]) == nt
        assert int(out["w_pairs"][0]) == w
        assert int(out["num_sq"][0]) == num
        assert float(out["geary_c"][0]) == want

    def test_positive_finite(self, ray_session):
        # Geary's C is a ratio of sums of squares: strictly positive and
        # finite whenever any two tile counts differ (no sign relation to
        # Moran's I is asserted — on sparse lattices they legitimately
        # disagree)
        from plateau_gis_converter_ray.pipelines.queries import q_geary_c

        c = float(q_geary_c(SF_SMALL)["geary_c"][0])
        assert np.isfinite(c) and c > 0.0


class TestQuadratVmr:
    def test_matches_direct_lattice(self, ray_session):
        from plateau_gis_converter_ray.pipelines.queries import q_quadrat_vmr

        out = q_quadrat_vmr(SF_SMALL)
        tc = _tile_counts()
        q = int(
            (tc["x"].max() - tc["x"].min() + 1)
            * (tc["y"].max() - tc["y"].min() + 1)
        )
        n = int(tc["n"].sum())
        ssq = int((tc["n"].astype(object) ** 2).sum())
        # direct lattice recompute including the empty quadrats
        counts = np.zeros(q, np.int64)
        lat_w = int(tc["y"].max() - tc["y"].min() + 1)
        idx = (tc["x"] - tc["x"].min()) * lat_w + (tc["y"] - tc["y"].min())
        counts[idx.to_numpy()] = tc["n"].to_numpy()
        mean = counts.mean()
        vmr = counts.var() / mean
        assert int(out["n_quadrats"][0]) == q
        assert int(out["n_points"][0]) == n
        assert int(out["sum_sq"][0]) == ssq
        assert abs(float(out["vmr"][0]) - vmr) < 1e-9


class TestMomentGuard:
    def test_bound_trips_at_int64(self):
        import pytest

        from plateau_gis_converter_ray.pipelines.queries import _guard_moments

        _guard_moments("q", (1 << 31) - 1, 1 << 32, 1)  # just below 2^63
        with pytest.raises(OverflowError, match="q: int64 moments may wrap"):
            _guard_moments("q", 1 << 31, 1 << 32, 1)
        with pytest.raises(OverflowError):
            _guard_moments("q", 1 << 27, 1 << 32, 16)

    def test_queries_raise_instead_of_wrapping(self, ray_session, monkeypatch):
        import pytest

        from plateau_gis_converter_ray.pipelines import queries

        # a limit below this table's moments stands in for a table whose
        # moments exceed int64
        monkeypatch.setattr(queries, "_INT64_MOMENT_LIMIT", 2)
        with pytest.raises(OverflowError, match="geary_c"):
            queries.q_geary_c(SF_SMALL)
        with pytest.raises(OverflowError, match="quadrat_vmr"):
            queries.q_quadrat_vmr(SF_SMALL)
        with pytest.raises(OverflowError, match="morans_i"):
            queries.q_morans_i(SF_SMALL)
        with pytest.raises(OverflowError, match="local_morans_i"):
            queries.q_local_morans_i(SF_SMALL)
        with pytest.raises(OverflowError, match="getis_ord_hotspots"):
            queries.q_getis_ord_hotspots(SF_SMALL)
