"""glb container + EXT_structural_metadata + 3dtiles sink tests
(reference: nusamai-gltf/src/glb.rs, cesiumtiles/gltf.rs, metadata/mod.rs)."""

import struct

import numpy as np

from plateau_gis_converter_ray.sinks.glb import (
    FLOAT_NO_DATA,
    INT64_NO_DATA,
    MetadataEncoder,
    fan_triangulate,
    read_glb,
    tile_glb_bytes,
    write_glb,
)


def test_glb_header_and_padding():
    glb = write_glb(b'{"asset":1}', b"\x01\x02\x03")
    assert glb[:4] == b"glTF"
    version, total = struct.unpack_from("<II", glb, 4)
    assert version == 2 and total == len(glb)
    # chunk alignment 8 (gltf.rs:270): both chunk payload sizes % 8 == 0...
    jlen, = struct.unpack_from("<I", glb, 12)
    assert (12 + 8 + jlen + 8) % 8 == 0
    gltf, binc = read_glb(glb)
    assert gltf == {"asset": 1}
    assert binc.rstrip(b"\x00") == b"\x01\x02\x03"


def test_metadata_encoder_columns_and_nodata():
    enc = MetadataEncoder(
        {"Building": {"name": "string", "height": "float64",
                      "floors": "int64", "usage": "enum"}}
    )
    assert enc.add_feature("Building", {"name": "a", "height": 2.5,
                                        "floors": 3, "usage": "office"}) == 0
    assert enc.add_feature("Building", {"name": "bb"}) == 1  # noData fills
    buffer = bytearray()
    views = []
    meta = enc.into_metadata(buffer, views)
    (pt,) = meta["propertyTables"]
    assert pt["class"] == "Building" and pt["count"] == 2
    props = meta["schema"]["classes"]["Building"]["properties"]
    assert props["height"]["componentType"] == "FLOAT64"
    assert props["usage"]["enumType"] == "Enum01"
    # decode the height column back from the buffer views
    hv = views[pt["properties"]["height"]["values"]]
    vals = np.frombuffer(
        bytes(buffer[hv["byteOffset"]:hv["byteOffset"] + hv["byteLength"]]),
        dtype="<f8",
    )
    assert vals[0] == 2.5 and vals[1] == FLOAT_NO_DATA
    fv = views[pt["properties"]["floors"]["values"]]
    ivals = np.frombuffer(
        bytes(buffer[fv["byteOffset"]:fv["byteOffset"] + fv["byteLength"]]),
        dtype="<i8",
    )
    assert ivals[0] == 3 and ivals[1] == INT64_NO_DATA
    # string column round-trip via offsets
    sv = pt["properties"]["name"]
    so = views[sv["stringOffsets"]]
    offs = np.frombuffer(
        bytes(buffer[so["byteOffset"]:so["byteOffset"] + so["byteLength"]]),
        dtype="<u4",
    )
    nv = views[sv["values"]]
    raw = bytes(buffer[nv["byteOffset"]:nv["byteOffset"] + nv["byteLength"]])
    strings = [raw[offs[i]:offs[i + 1]].decode() for i in range(len(offs) - 1)]
    assert strings == ["a", "bb"]
    # enum dictionary: noData name first, then insertion order
    names = [v["name"] for v in meta["schema"]["enums"]["Enum01"]["values"]]
    assert names == ["", "office"]


def test_tile_glb_roundtrip_structure():
    verts = np.array(
        [[0, 0, 0, 0, 0, 1, 0, 0, 0],
         [1, 0, 0, 0, 0, 1, 1, 0, 0],
         [1, 1, 0, 0, 0, 1, 1, 1, 0]], dtype=np.float32)
    idx = fan_triangulate(3, 0)
    enc = MetadataEncoder({"Feature": {"pid": "string"}})
    enc.add_feature("Feature", {"pid": "p1"})
    glb = tile_glb_bytes(verts, idx, [1.0, 2.0, 3.0], metadata=enc,
                         num_features=1)
    gltf, binc = read_glb(glb)
    assert gltf["asset"]["version"] == "2.0"
    assert gltf["nodes"][0]["translation"] == [1.0, 2.0, 3.0]
    (prim,) = gltf["meshes"][0]["primitives"]
    assert prim["attributes"] == {"POSITION": 0, "NORMAL": 1,
                                  "TEXCOORD_0": 2, "_FEATURE_ID_0": 3}
    assert prim["extensions"]["EXT_mesh_features"]["featureIds"][0][
        "featureCount"] == 1
    # vertex bufferView: stride 36, interleaved floats round-trip
    bv = gltf["bufferViews"][0]
    assert bv["byteStride"] == 36
    back = np.frombuffer(binc[:bv["byteLength"]], dtype="<f4").reshape(-1, 9)
    assert np.array_equal(back, verts)
    # positions accessor min/max
    acc = gltf["accessors"][0]
    assert acc["min"] == [0.0, 0.0, 0.0] and acc["max"] == [1.0, 1.0, 0.0]
    # indices round-trip
    ibv = gltf["bufferViews"][-1]
    got = np.frombuffer(
        binc[ibv["byteOffset"]:ibv["byteOffset"] + ibv["byteLength"]],
        dtype="<u4")
    assert got.tolist() == idx.tolist()
    assert "EXT_structural_metadata" in gltf["extensions"]


def test_vertex_dedup_bit_pattern():
    from plateau_gis_converter_ray.sinks.tiles3d import tile_vertices_indices

    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # two features sharing the same ring + same feature id -> vertices collapse
    vt, idx = tile_vertices_indices([sq, sq], [0, 0])
    assert len(vt) == 4
    assert idx.tolist() == [0, 1, 2, 0, 2, 3] * 2
    # distinct feature id changes the bit pattern -> no collapse
    vt2, _ = tile_vertices_indices([sq, sq], [0, 1])
    assert len(vt2) == 8


def test_write_tiles_3dt_e2e(ray_session, tmp_path):
    import os

    import ray.data

    from plateau_gis_converter_ray.sinks.tiles3d import write_tiles_3dt

    rows = []
    for z, x, y, pid in [(7, 100, 30, "a"), (7, 100, 30, "b"), (8, 201, 60, "c")]:
        rows.append({"zoom": z, "tile_x": x, "tile_y": y, "pid": pid,
                     "ring_xy": [0.1, 0.1, 0.9, 0.1, 0.9, 0.9, 0.1, 0.9]})
    ds = ray.data.from_items(rows)
    res = write_tiles_3dt(ds, str(tmp_path / "3dt")).to_pandas()
    assert len(res) == 2
    p = str(tmp_path / "3dt" / "7" / "100" / "30.glb")
    assert os.path.exists(p)
    with open(p, "rb") as f:
        gltf, binc = read_glb(f.read())
    meta = gltf["extensions"]["EXT_structural_metadata"]
    (pt,) = meta["propertyTables"]
    assert pt["count"] == 2  # two features in the tile
    r = res.set_index(["zoom", "tile_x"])
    assert int(r.loc[(7, 100), "n_features"]) == 2
    # same ring, different feature ids -> 8 deduped vertices
    assert int(r.loc[(7, 100), "n_vertices"]) == 8


def test_flagship_e2e_writes_valid_glb(ray_session, tmp_path):
    """Flagship aggregate -> z/x/y.glb content, parsed back (the 3D-Tiles
    binary half of the flagship pipeline)."""
    import glob
    import os

    from plateau_gis_converter_ray.pipelines.flagship import (
        run_flagship,
        write_flagship_glb_tiles,
    )

    import numpy as np

    res = run_flagship(sf=0.001)
    tiles_dir = str(tmp_path / "glb_tiles")
    out = write_flagship_glb_tiles(res["out_dir"], tiles_dir).to_pandas()
    assert len(out) > 0 and (out["glb_bytes"] > 20).all()
    files = glob.glob(os.path.join(tiles_dir, "*", "*", "*.glb"))
    assert len(files) == len(out)
    # pick a tile with >= 2 municipalities so material grouping shows:
    # the first in tile-key order (the sink's row order follows its hash
    # groups)
    multi = out[out["n_munis"] >= 2].sort_values(["zoom", "tile_x", "tile_y"])
    assert len(multi) > 0
    r = multi.iloc[0]
    path = os.path.join(
        tiles_dir, str(int(r["zoom"])), str(int(r["tile_x"])),
        f"{int(r['tile_y'])}.glb",
    )
    with open(path, "rb") as f:
        gltf, binc = read_glb(f.read())
    meta = gltf["extensions"]["EXT_structural_metadata"]
    (pt,) = meta["propertyTables"]
    assert pt["class"] == "Municipality" and pt["count"] >= 1
    assert len(binc) > 0
    # materials: one per municipality appearance, textured ones carry a
    # baseColorTexture wired through textures -> images (material.rs role)
    mats = gltf["materials"]
    assert len(mats) >= 2 and int(r["n_materials"]) == len(mats)
    textured = [
        m for m in mats
        if "baseColorTexture" in m["pbrMetallicRoughness"]
    ]
    assert textured, "appearance rule should texture most municipalities"
    assert len(gltf["textures"]) == len(gltf["images"]) >= 1
    # one primitive per used material
    prims = gltf["meshes"][0]["primitives"]
    assert len(prims) >= 2
    assert {p["material"] for p in prims} <= set(range(len(mats)))
    # ECEF: the node translation is a geocentric tile-center (earth radius
    # magnitude), vertex positions are small tile-local offsets
    t = np.array(gltf["nodes"][0]["translation"])
    assert 6.2e6 < np.linalg.norm(t) < 6.5e6
    pos_acc = next(a for a in gltf["accessors"] if a.get("name") == "positions")
    lo, hi = np.array(pos_acc["min"]), np.array(pos_acc["max"])
    assert np.abs(lo).max() < 5e5 and np.abs(hi).max() < 5e5
    # texcoords stay in [0, 1] after the v flip
    stride = 36
    n_vert = pos_acc["count"]
    verts = np.frombuffer(binc[: n_vert * stride], dtype="<f4").reshape(-1, 9)
    assert (verts[:, 6] >= -1e-6).all() and (verts[:, 6] <= 1 + 1e-6).all()
    assert (verts[:, 7] >= -1e-6).all() and (verts[:, 7] <= 1 + 1e-6).all()

    # resume: a second write into the same directory skips every tile
    # (n_materials -1) and leaves every file's bytes and mtime as they were
    def snapshot():
        out = {}
        for f in files:
            with open(f, "rb") as fh:
                out[f] = (fh.read(), os.path.getmtime(f))
        return out

    before = snapshot()
    again = write_flagship_glb_tiles(res["out_dir"], tiles_dir).to_pandas()
    assert len(again) == len(out) and (again["n_materials"] == -1).all()
    assert snapshot() == before
    # a tile without its lineage sidecar is rewritten, and only that tile
    os.remove(path + ".lineage")
    third = write_flagship_glb_tiles(res["out_dir"], tiles_dir).to_pandas()
    written = third[third["n_materials"] != -1]
    assert len(third) == len(out) and len(written) == 1
    w = written.iloc[0]
    assert [int(w[c]) for c in ("zoom", "tile_x", "tile_y")] == [
        int(r[c]) for c in ("zoom", "tile_x", "tile_y")
    ]
    assert os.path.exists(path + ".lineage")
    after = snapshot()
    assert after[path][0] == before[path][0]
    assert {f: v for f, v in after.items() if f != path} == {
        f: v for f, v in before.items() if f != path
    }


def test_glb_tile_bytes_independent_of_row_order(tmp_path):
    """Two tiles in one batch, written from two row orders, give identical
    .glb bytes per tile (Ray hands a group's rows over in no fixed order),
    and equal the bytes of each tile written in a batch of its own."""
    import pyarrow as pa

    from plateau_gis_converter_ray.kernels import scheme3dt
    from plateau_gis_converter_ray.pipelines.flagship import _write_glb_batch

    def tile(z, lng, lat, munis, nass):
        x, y = scheme3dt.zxy_from_lng_lat(z, lng[:1], lat[:1])
        n = len(munis)
        return pa.table(
            {
                "tile_id": pa.array(np.full(n, z), pa.int64()),
                "muni_id": [f"muni_{i:03d}" for i in munis],
                "n_assignments": np.array(nass, np.int64),
                "zoom": pa.array(np.full(n, z), pa.int32()),
                "tile_x": np.full(n, int(x[0]), np.int64),
                "tile_y": np.full(n, int(y[0]), np.int64),
                "lng_min": lng - 0.01, "lng_max": lng + 0.01,
                "lat_min": lat - 0.01, "lat_max": lat + 0.01,
            }
        )

    a = tile(7, np.array([139.60, 139.70, 139.75, 139.65, 139.72]),
             np.array([35.60, 35.65, 35.70, 35.62, 35.68]),
             (12, 3, 40, 7, 25), [5, 1, 9, 2, 4])
    b = tile(9, np.array([135.50, 135.52, 135.48]),
             np.array([34.69, 34.70, 34.68]), (31, 2, 17), [3, 8, 6])
    both = pa.concat_tables([a, b])

    def write(t, name):
        out = _write_glb_batch(t, str(tmp_path / name)).to_pandas()
        got = {}
        for _, r in out.iterrows():
            z, x, y = int(r["zoom"]), int(r["tile_x"]), int(r["tile_y"])
            assert int(r["n_munis"]) == int(r["n_materials"]) == (5 if z == 7 else 3)
            got[(z, x, y)] = (tmp_path / name / str(z) / str(x) / f"{y}.glb").read_bytes()
        return got

    first = write(both.take([0, 1, 2, 3, 4, 5, 6, 7]), "0")
    second = write(both.take([6, 4, 2, 0, 7, 3, 1, 5]), "1")
    assert len(first) == 2 and first == second
    assert {**write(a, "a"), **write(b, "b")} == first


def test_metadata_encoder_array_properties():
    """Variable-length array props: values flattened + arrayOffsets view
    (metadata/mod.rs:300-314); absent arrays become empty slices."""
    enc = MetadataEncoder({"B": {"heights": "float64[]", "tags": "string[]"}})
    enc.add_feature("B", {"heights": [1.5, 2.5, 3.5], "tags": ["a", "bb"]})
    enc.add_feature("B", {"heights": [9.0]})  # tags absent -> empty slice
    buffer = bytearray()
    views = []
    meta = enc.into_metadata(buffer, views)
    (pt,) = meta["propertyTables"]
    props = meta["schema"]["classes"]["B"]["properties"]
    assert props["heights"]["array"] is True and props["heights"]["noData"] == []

    hv = views[pt["properties"]["heights"]["values"]]
    vals = np.frombuffer(
        bytes(buffer[hv["byteOffset"]:hv["byteOffset"] + hv["byteLength"]]),
        dtype="<f8")
    assert vals.tolist() == [1.5, 2.5, 3.5, 9.0]
    ao = views[pt["properties"]["heights"]["arrayOffsets"]]
    offs = np.frombuffer(
        bytes(buffer[ao["byteOffset"]:ao["byteOffset"] + ao["byteLength"]]),
        dtype="<u4")
    assert offs.tolist() == [0, 3, 4]

    # string array: arrayOffsets index into the stringOffsets table
    sao = views[pt["properties"]["tags"]["arrayOffsets"]]
    soffs = np.frombuffer(
        bytes(buffer[sao["byteOffset"]:sao["byteOffset"] + sao["byteLength"]]),
        dtype="<u4")
    assert soffs.tolist() == [0, 2, 2]  # feature 2's slice is empty
    so = views[pt["properties"]["tags"]["stringOffsets"]]
    str_offs = np.frombuffer(
        bytes(buffer[so["byteOffset"]:so["byteOffset"] + so["byteLength"]]),
        dtype="<u4")
    sv = views[pt["properties"]["tags"]["values"]]
    raw = bytes(buffer[sv["byteOffset"]:sv["byteOffset"] + sv["byteLength"]])
    strings = [raw[str_offs[i]:str_offs[i + 1]].decode()
               for i in range(len(str_offs) - 1)]
    assert strings == ["a", "bb"]


def test_glb_reference_alignment_fixture():
    """glb.rs:130-173's own test vector, byte-exact: json b'{xxx}' +
    bin b'123' at alignment 8 puts the padded bin at offset 40."""
    import pytest

    glb = write_glb(b"{xxx}", b"123", alignment=8)
    assert len(glb) % 4 == 0
    # json chunk padded with 7 spaces (reference reader sees '{xxx}' + 7*\x20),
    # padded bin chunk payload lands at offset 40 as '123\0...'
    assert glb[20:32] == b"{xxx}" + b"\x20" * 7
    assert glb[40:43] == b"123" and glb[43:] == b"\x00" * (len(glb) - 43)

    # 4-byte alignment variant: bin at offset 36 (glb.rs:141-144)
    glb4 = write_glb(b"{xxx}", b"123", alignment=4)
    assert glb4[36:39] == b"123"

    # reader round-trip needs valid JSON; broken magic/version raise
    ok = write_glb(b'{"x": 1}', b"123", alignment=8)
    gltf, binc = read_glb(ok)
    assert gltf == {"x": 1} and binc[:3] == b"123"
    with pytest.raises(ValueError):
        read_glb(b"x" + ok[1:])
    with pytest.raises(ValueError):
        read_glb(ok[:4] + b"\x07\x00\x00\x00" + ok[8:])


def test_glb_tile_writer_skips_existing(ray_session, tmp_path):
    """Resume semantics: a rerun over an already-written tile directory
    skips the encode (n_vertices == -1 sentinel) and leaves bytes intact."""
    import os

    import ray.data

    from plateau_gis_converter_ray.sinks.tiles3d import write_tiles_3dt

    rows = [{"zoom": 2, "tile_x": 1, "tile_y": 1,
             "ring_xy": [0.1, 0.1, 0.9, 0.1, 0.9, 0.9, 0.1, 0.9], "pid": "a"}]
    out = str(tmp_path / "t")
    first = write_tiles_3dt(ray.data.from_items(rows), out).to_pandas()
    path = os.path.join(out, "2", "1", "1.glb")
    size = os.path.getsize(path)
    mtime = os.path.getmtime(path)
    again = write_tiles_3dt(ray.data.from_items(rows), out).to_pandas()
    assert int(first["n_vertices"].iloc[0]) > 0
    assert int(again["n_vertices"].iloc[0]) == -1
    assert int(again["glb_bytes"].iloc[0]) == size
    assert os.path.getmtime(path) == mtime


def test_glb_tile_writer_rewrites_stale_tile(ray_session, tmp_path):
    """ADVICE r3: changed upstream content must NOT resume-skip — the
    lineage digest mismatches and the tile rewrites; unchanged input
    still skips with bytes untouched."""
    import os

    import ray.data

    from plateau_gis_converter_ray.sinks.tiles3d import write_tiles_3dt

    rows = [{"zoom": 3, "tile_x": 2, "tile_y": 1,
             "ring_xy": [0.1, 0.1, 0.9, 0.1, 0.9, 0.9, 0.1, 0.9], "pid": "a"}]
    out = str(tmp_path / "t")
    write_tiles_3dt(ray.data.from_items(rows), out).to_pandas()
    path = os.path.join(out, "3", "2", "1.glb")
    size1 = os.path.getsize(path)

    # changed geometry -> digest mismatch -> rewrite (no -1 sentinel)
    rows2 = [{"zoom": 3, "tile_x": 2, "tile_y": 1,
              "ring_xy": [0.2, 0.2, 0.8, 0.2, 0.8, 0.8, 0.2, 0.8],
              "pid": "a"}]
    again = write_tiles_3dt(ray.data.from_items(rows2), out).to_pandas()
    assert int(again["n_vertices"].iloc[0]) > 0

    # a tile missing its sidecar (crash window) also rewrites
    os.remove(path + ".lineage")
    third = write_tiles_3dt(ray.data.from_items(rows2), out).to_pandas()
    assert int(third["n_vertices"].iloc[0]) > 0
    assert os.path.exists(path + ".lineage")
    assert os.path.getsize(path) > 0 and size1 > 0


def test_tile_lineage_digest_is_multiset_safe():
    """Review r4: duplicate row PAIRS must change the digest (an xor fold
    cancels even multiplicities and lets stale tiles skip)."""
    import pandas as pd

    from plateau_gis_converter_ray.sinks.tiles3d import tile_lineage_digest

    one = pd.DataFrame({"ring_xy": [[0.1, 0.2]], "pid": ["a"]})
    three = pd.DataFrame(
        {"ring_xy": [[0.1, 0.2]] * 3, "pid": ["a"] * 3}
    )
    assert tile_lineage_digest(one, ["ring_xy", "pid"]) != tile_lineage_digest(
        three, ["ring_xy", "pid"]
    )
    # order-insensitive across distinct rows
    ab = pd.DataFrame({"ring_xy": [[1.0], [2.0]], "pid": ["a", "b"]})
    ba = pd.DataFrame({"ring_xy": [[2.0], [1.0]], "pid": ["b", "a"]})
    assert tile_lineage_digest(ab, ["ring_xy", "pid"]) == tile_lineage_digest(
        ba, ["ring_xy", "pid"]
    )
