"""PIP kernel + grid index + cell keys."""

import numpy as np

from plateau_gis_converter_ray.kernels.cells import (
    cell_id,
    cell_id_from_xy,
    cell_ring,
    cell_xy,
    morton2,
)
from plateau_gis_converter_ray.kernels.pip import (
    PolygonIndex,
    points_in_polygon,
    points_in_ring,
)

SQUARE = np.array([[0.0, 0.0], [10, 0], [10, 10], [0, 10]])


def test_points_in_ring_basic():
    px = np.array([5.0, 15.0, -1.0, 9.999])
    py = np.array([5.0, 5.0, 5.0, 9.999])
    np.testing.assert_array_equal(
        points_in_ring(px, py, SQUARE), [True, False, False, True]
    )


def test_points_in_polygon_with_hole():
    hole = np.array([[4.0, 4.0], [6, 4], [6, 6], [4, 6]])
    px = np.array([5.0, 2.0, 4.5])
    py = np.array([5.0, 2.0, 4.5])
    np.testing.assert_array_equal(
        points_in_polygon(px, py, [SQUARE, hole]), [False, True, False]
    )


def test_shared_edge_assigns_exactly_once():
    """Adjacent polygons sharing an edge: each point inside exactly one."""
    left = np.array([[0.0, 0.0], [5, 0], [5, 10], [0, 10]])
    right = np.array([[5.0, 0.0], [10, 0], [10, 10], [5, 10]])
    rng = np.random.default_rng(3)
    px = rng.uniform(0.01, 9.99, 2000)
    py = rng.uniform(0.01, 9.99, 2000)
    in_l = points_in_ring(px, py, left)
    in_r = points_in_ring(px, py, right)
    assert np.all(in_l ^ in_r)  # exactly one, never both / neither


def test_concave_polygon():
    # C-shape
    c = np.array([[0.0, 0], [10, 0], [10, 3], [3, 3], [3, 7], [10, 7], [10, 10], [0, 10]])
    px = np.array([5.0, 1.0, 5.0])
    py = np.array([5.0, 5.0, 1.0])
    np.testing.assert_array_equal(points_in_ring(px, py, c), [False, True, True])


def test_polygon_index_assign():
    polys = [
        {"id": "a", "rings": [np.array([[0.0, 0], [5, 0], [5, 5], [0, 5]])]},
        {"id": "b", "rings": [np.array([[5.0, 0], [10, 0], [10, 5], [5, 5]])]},
        {"id": "c", "rings": [np.array([[0.0, 5], [10, 5], [10, 10], [0, 10]])]},
    ]
    idx = PolygonIndex(polys)
    px = np.array([2.0, 7.0, 5.0, 20.0])
    py = np.array([2.0, 2.0, 7.0, 20.0])
    got = idx.assign(px, py)
    np.testing.assert_array_equal(got, [0, 1, 2, -1])


def test_morton_roundtrip_order():
    x = np.array([0, 1, 2, 3], dtype=np.uint64)
    y = np.array([0, 0, 1, 1], dtype=np.uint64)
    m = morton2(x, y)
    assert len(np.unique(m)) == 4
    # morton2(1,0)=1, morton2(0,1)=2 by construction
    assert int(morton2(np.uint64(1), np.uint64(0))) == 1
    assert int(morton2(np.uint64(0), np.uint64(1))) == 2


def test_cell_id_resolution_and_ring():
    lng, lat = 139.7, 35.7
    cx, cy = cell_xy(lng, lat, 10)
    cid = cell_id(lng, lat, 10)
    assert int(cid) == int(cell_id_from_xy(cx, cy, 10))
    ring = cell_ring(int(cx), int(cy), 10, k=1)
    assert len(ring) == 9
    assert (int(cx), int(cy)) in ring
    # antimeridian wrap
    ring0 = cell_ring(0, 5, 4, k=1)
    assert (15, 5) in ring0


def test_pip_cell_join_equals_broadcast(ray_session, monkeypatch):
    """The cell-keyed spatial join == the broadcast-STRtree PIPAssign plan,
    aggregated per municipality, under both join plans: the planner's
    default (the small in-memory polygon side is broadcast) and the hash
    shuffle on the cell key (a zero broadcast limit)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from plateau_gis_converter_ray.sources.municipalities import (
        municipality_polygons,
    )
    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages.geocode import add_lnglat_arith
    from plateau_gis_converter_ray.stages.spatial_join import (
        PIPAssign,
        pip_cell_join,
    )

    from plateau_gis_converter_ray.stages import joins

    sf = "/root/testdata/sf0.001"

    def cell_join(n_joins):
        ds = pip_cell_join(sf)
        ops = ds._plan._logical_plan.dag.post_order_iter()
        assert sum(type(o).__name__ == "Join" for o in ops) == n_joins
        return ds.to_pandas().sort_values("muni_id").reset_index(drop=True)

    broadcast = cell_join(0)
    monkeypatch.setattr(joins, "DEFAULT_BROADCAST_LIMIT", 0)
    shuffle = cell_join(1)

    def prep(batch: pa.Table) -> pa.Table:
        batch = add_lnglat_arith(batch, "event_id")
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return batch.append_column("value_c", pa.array(v))

    pts = (
        read_table(sf, "events", ["event_id", "value"])
        .map_batches(prep, batch_format="pyarrow")
        .map_batches(
            PIPAssign(municipality_polygons()), batch_format="pyarrow"
        )
        .to_pandas()
    )
    exp = (
        pts.dropna(subset=["muni_id"])
        .groupby("muni_id", as_index=False)
        .agg(n=("value_c", "size"), sum_value_c=("value_c", "sum"))
        .sort_values("muni_id")
        .reset_index(drop=True)
    )
    assert len(exp) > 0
    pd.testing.assert_frame_equal(broadcast, exp)
    pd.testing.assert_frame_equal(shuffle, exp)
