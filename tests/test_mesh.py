import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facespectra import mesh as mesh_module

from facespectra.mesh import (
    LandmarkSet,
    MeshFormatError,
    MeshStructureError,
    TriangleMesh,
    distance_field,
    load_landmarks,
    load_mesh,
    load_obj,
    load_ply,
    save_landmarks,
    save_obj,
    unique_edges,
)

from conftest import make_grid_mesh
from geometry_oracles import RigidTransform, apply_transform, vertex_degrees
from obj_oracles import obj_face_lines, save_obj_per_record


def random_mesh(rng, n=40):
    verts = rng.normal(size=(n, 3)) * 10.0
    faces = []
    for _ in range(60):
        f = rng.choice(n, size=3, replace=False)
        faces.append(f)
    return TriangleMesh(verts, np.array(faces))


# ---------------------------------------------------------------------------
# OBJ

def test_obj_single_triangle_roundtrip(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_mesh(p)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    assert np.array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_out_of_range_face_is_structural_error(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 6\n")
    with pytest.raises(MeshStructureError):
        load_obj(p)


def test_obj_parse_error_names_line(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 zzz\n")
    with pytest.raises(MeshFormatError, match="line 2"):
        load_obj(p)


def test_obj_quad_rejected(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshFormatError, match="triangular"):
        load_obj(p)


def test_obj_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    mesh = make_grid_mesh(5, 4)
    p = tmp_path / "grid.obj"
    save_obj(p, mesh)
    back = load_obj(p)
    assert np.allclose(back.vertices, mesh.vertices, atol=1e-6)
    assert np.array_equal(back.faces, mesh.faces)
    # deterministic bytes on rewrite
    q = tmp_path / "grid2.obj"
    save_obj(q, mesh)
    assert p.read_bytes() == q.read_bytes()


_COORDS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, -4e-7, 5e-7, -5e-7, 1e6, -1e6]),
    st.integers(-2**27, 2**27).map(lambda m: m / 128),    # exact ties at the 7th decimal
    st.integers(-10**12, 10**12).map(lambda m: (m + 0.5) / 10**6),  # nearest-double ties
)


@st.composite
def obj_meshes(draw):
    n = draw(st.integers(1, 40))
    verts = np.array(draw(st.lists(_COORDS, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    rows = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    faces = draw(st.lists(rows, max_size=30)) if n >= 3 else []
    return TriangleMesh(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))


@settings(max_examples=200, deadline=None)
@given(mesh=obj_meshes())
def test_save_obj_writes_the_per_record_bytes(tmp_path_factory, mesh):
    """The one-pass writer writes what the per-record formatter wrote, and
    ``load_obj`` reads it back to the 6-decimal values."""
    d = tmp_path_factory.mktemp("obj")
    save_obj(d / "new.obj", mesh)
    save_obj_per_record(d / "old.obj", mesh)
    assert (d / "new.obj").read_bytes() == (d / "old.obj").read_bytes()
    back = load_obj(d / "new.obj")
    rounded = [[float("%.6f" % x) for x in p] for p in mesh.vertices.tolist()]
    assert np.array_equal(back.vertices, np.array(rounded).reshape(-1, 3))
    assert np.array_equal(back.faces, mesh.faces)


@settings(max_examples=100, deadline=None)
@given(faces=st.lists(st.lists(st.integers(0, 2**63 - 2), min_size=3, max_size=3),
                      max_size=20))
def test_obj_face_records_match_per_record_lines_for_large_indices(faces):
    faces = np.array(faces, dtype=np.int64).reshape(-1, 3)
    assert mesh_module.obj_face_records(faces) == "".join(
        line + "\n" for line in obj_face_lines(faces))


def test_obj_slashed_face_indices(tmp_path):
    p = tmp_path / "t.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nf 1/1 2/1 3/1\n")
    mesh = load_obj(p)
    assert np.array_equal(mesh.faces, [[0, 1, 2]])


def _obj_outcome(path):
    """Arrays of ``load_obj(path)``, or the type and text of what it raised."""
    try:
        mesh = load_obj(path)
    except (MeshFormatError, MeshStructureError) as exc:
        return type(exc), str(exc)
    return mesh.vertices.tobytes(), mesh.faces.tobytes(), mesh.vertices.shape, mesh.faces.shape


def _line_reader_outcome(path):
    with mock.patch.object(mesh_module, "_obj_arrays", lambda path: None):
        return _obj_outcome(path)


# a plain vertex/face prefix over 32 KiB
_PAD_VERTS = 1600
_PAD = "".join("v %.6f %.6f %.6f\n" % (i, 0.5 * i, -0.25 * i) for i in range(_PAD_VERTS)) \
    + "".join("f %d %d %d\n" % (i + 1, i + 2, i + 3) for i in range(_PAD_VERTS - 2))

_NUMBERS = ("0", "1", "-2.5", "3.25e1", "+3", "1_0", "nan", "-inf", "inf", ".5", "7.",
            "1e400", "x", "1,5", "0x10", "٣")
# face indices around the largest integers a double holds exactly (2**53)
# and an int64 holds (2**63 - 1)
_BIG = (str(2**53 - 1), str(2**53), str(2**53 + 1), str(2**63 - 1), str(2**63), str(2**64))
_INDICES = ("1", "2", "3", "4", "+2", "1_0", "0", "-1", "-3", "9999", "2.0", "x",
            "1/1/1", "2//3", "3/1", "99999999999999999999999") + _BIG
_RECORDS = ("# comment", "#v 1 2 3", "vn 0 0 1", "vt 0.5 0.5", "g group", "o object",
            "s off", "usemtl skin", "", "   ", "v", "f")
# plain records, which the array reader parses itself
_PLAIN_NUMBERS = ("0", "1", "-2.5", "3.25e1", "+3", ".5", "7.", "1e400", "-0.000001", "1E-3",
                  "0.100000000000000005551115123125783")
_PLAIN_INDICES = ("1", "2", "3", "0004", "1600") + _BIG
# records of other kinds, which both readers skip
_OTHER_RECORDS = ("vn 0 0 1", "vt 0.5 0.5", "g group", "o object", "s off", "usemtl skin",
                  "mtllib a.mtl", "l 1 2", "v1 2 3", "fo 1 2 3", "1 2 3")


@st.composite
def obj_lines(draw, plain=False):
    if plain:
        kind = draw(st.sampled_from(("v", "v", "f", "f", "", "#", "other")))
        if kind == "#":
            return "#" + draw(st.sampled_from(("", " comment", "v 1 2 3", "\tf 1 2 3 #")))
        if kind == "other":
            return draw(st.sampled_from(_OTHER_RECORDS))
        numbers = _PLAIN_NUMBERS if kind == "v" else _PLAIN_INDICES
        return kind and kind + "".join(" " + draw(st.sampled_from(numbers)) for _ in range(3))
    kind = draw(st.sampled_from(("v", "v", "f", "f", "record", "lead")))
    if kind == "v":
        n = draw(st.sampled_from((3, 3, 3, 2, 4)))  # 4: a w coordinate
        body = "v " + " ".join(draw(st.sampled_from(_NUMBERS)) for _ in range(n))
    elif kind == "f":
        n = draw(st.sampled_from((3, 3, 3, 2, 4)))  # 4: a quad
        body = "f " + " ".join(draw(st.sampled_from(_INDICES)) for _ in range(n))
    elif kind == "record":
        body = draw(st.sampled_from(_RECORDS))
    else:
        body = draw(st.sampled_from((" v 1 2 3", "\tf 1 2 3", "v\t1 2 3", "f\t1 2 3",
                                     "v 1  2\t3", "f 1 2 3 ", "  # v 1")))
    return body


@st.composite
def obj_texts(draw):
    """OBJ text: any records (or only plain ones, among blank and comment
    lines and other records, with a fault in the last line now and then),
    each line ended by
    a line feed, CRLF or CR (or all alike), the last one or not."""
    plain = draw(st.booleans())
    lines = draw(st.lists(obj_lines(plain), max_size=12))
    if plain and lines and draw(st.booleans()):
        lines[-1] = draw(obj_lines())
    style = draw(st.sampled_from(("\n", "\r\n", "\r", None)))
    ends = [style or draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None)
@given(pad=st.booleans(), text=obj_texts(), cut=st.none() | st.integers(0, 400),
       junk=st.none() | st.sampled_from((b"\xff", b"\xc3", b"\xe2\x82", b"\x00", "é".encode())),
       junk_at=st.integers(0, 400))
def test_obj_block_reader_matches_line_reader(tmp_path_factory, pad, text, cut, junk, junk_at):
    """Every file gives the arrays, or the error type and text, of the line
    reader: comments, other records, blank lines, leading whitespace, tabs,
    CRLF and lone CR (also throughout), w coordinates, short records,
    slashed, non-positive and huge (2**53, 2**63) indices, quads, special
    and non-numeric tokens, bad bytes, truncation and no final line feed;
    plain files with interleaved records, blank and comment lines and
    records of other kinds, or with
    a fault in their last line only; alone or after a 32 KiB plain
    prefix."""
    body = text.encode()
    if junk is not None:
        at = min(junk_at, len(body))
        body = body[:at] + junk + body[at:]
    if cut is not None:
        body = body[:cut]
    path = tmp_path_factory.getbasetemp() / "fuzz.obj"
    path.write_bytes((_PAD.encode() if pad else b"") + body)
    assert _obj_outcome(path) == _line_reader_outcome(path)


def test_obj_block_reader_reads_plain_files_and_defers_the_rest(tmp_path):
    """Plain files take the array reader, interleaved, among comment and
    blank lines and records of other kinds (a normal before each vertex),
    with CRLF line ends or without a final line feed; each unusual file is
    handed to the line reader and read as before, and a fault in the last
    line of a long plain file is named."""
    mesh = make_grid_mesh(60, 60)
    p = tmp_path / "grid.obj"
    save_obj(p, mesh)
    assert p.stat().st_size > 3 * (1 << 15)
    verts, faces = mesh_module._obj_arrays(p)
    assert np.array_equal(faces, mesh.faces) and verts.shape == mesh.vertices.shape
    assert _obj_outcome(p) == _line_reader_outcome(p)
    plain = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 2 4 3\n"
    for text in (plain[:-1], "v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\nf 3 2 1\nv 1 1 0\n",
                 "v 5 5 5\n" + plain, plain + "f 0004 2 1\n", plain + "f %d 1 2\n" % (2**53 - 1),
                 "# header\n" + plain, "#\n\n" + plain.replace("f 1", "# v 9 9 9\tf\n\nf 1") + "#",
                 plain + "\n", plain.replace("\n", "\r\n"), "# \r\n\r\n" + plain,
                 "vn 0 0 1\n" + plain, "mtllib a.mtl\nusemtl skin\ng x\n" + plain + "s off\nl 1 2",
                 "v1 2 3 4\nfo 1\n1 2 3\n" + plain,
                 "# header\r\nvn 0 0 1\r\n" + plain.replace("\n", "\r\n") + "g x",
                 "".join("vn 0 0 1\n" + line + "\n" for line in plain.splitlines())):
        p.write_text(text, newline="")
        assert mesh_module._obj_arrays(p) is not None, text
        assert _obj_outcome(p) == _line_reader_outcome(p), text
    for text in ("v 0 0 0 1\nv 1 0\nv 0 1 0\nf 1 2 3\n",   # 4 + 2 tokens
                 " v 5 5 5\n" + plain, "v\t5 5 5\n" + plain, "f\t1 2 4\n" + plain,
                 plain + "f 1/1 2/2 3/3\n", plain + "f 1 2 3 4\n", plain + "f 0 1 2\n",
                 plain + "f -1 2 3\n", plain + "v 1 2 zz\n", plain + "v 1 2 3.5.5\n",
                 plain + "f 1e0 2 3\n", plain + "f 1 2\n", plain + "v 1  2 3\n",
                 plain + "v 1 2 3 \n", plain + "v 1 2 3 # c\n", " # c\n" + plain,
                 "# \r c\n" + plain, plain + "v 1 2 3\r\r\n", plain[:-1] + "\r",
                 "vn 0 0 1\r" + plain, "v\x0b5 5 5\n" + plain, "v\x01 5\n" + plain,
                 "\x01 c\n" + plain, "#\n\n", "vn 0 0 1\n", plain.replace("\n", "\r"),
                 plain + "f %d 1 2\n" % 2**53,
                 plain + "f %d 1 2\n" % (2**63 - 1), plain + "f %d 1 2\n" % 2**63,
                 "# only a comment\n", "f 1 2 3\n", ""):
        p.write_text(text, newline="")
        assert mesh_module._obj_arrays(p) is None, text
        assert _obj_outcome(p) == _line_reader_outcome(p), text
    p.write_bytes(plain.encode() + b"# \xff\n")
    assert mesh_module._obj_arrays(p) is None
    assert _obj_outcome(p) == _line_reader_outcome(p)
    save_obj(p, mesh)
    base = p.read_bytes()
    line = base.count(b"\n") + 1
    for last in (b"f 1 2\n", b"v 1 2 x", b"f 1 2 %d\n" % 2**63):
        p.write_bytes(base + last)
        assert mesh_module._obj_arrays(p) is None
        assert _obj_outcome(p) == _line_reader_outcome(p)
        assert f": line {line}: " in _obj_outcome(p)[1]


# ---------------------------------------------------------------------------
# PLY

PLY_ASCII = """ply
format ascii 1.0
element vertex 4
property float x
property float y
property float z
element face 2
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
1 1 0
0 1 0
3 0 1 2
3 0 2 3
"""


def test_ply_ascii_shared_edge_count(tmp_path):
    p = tmp_path / "quad.ply"
    p.write_text(PLY_ASCII)
    mesh = load_ply(p)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 2
    assert np.array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])
    # 4 boundary edges + 1 shared diagonal
    assert unique_edges(mesh.faces).shape[0] == 5


def test_ply_binary_little_endian(tmp_path):
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n"
        "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
    ).encode("ascii")
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype="<f4")
    body = verts.tobytes()
    for tri in ([0, 1, 2], [0, 2, 3]):
        body += np.uint8(3).tobytes() + np.array(tri, dtype="<i4").tobytes()
    p = tmp_path / "bin.ply"
    p.write_bytes(header + body)
    mesh = load_ply(p)
    assert mesh.n_vertices == 4
    assert unique_edges(mesh.faces).shape[0] == 5
    assert np.array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])
    assert np.allclose(mesh.vertices[2], [1, 1, 0])


def test_ply_rejects_non_triangle(tmp_path):
    text = PLY_ASCII.replace("3 0 1 2", "4 0 1 2 3").replace("element face 2", "element face 1")
    text = text.replace("3 0 2 3\n", "")
    p = tmp_path / "bad.ply"
    p.write_text(text)
    with pytest.raises(MeshFormatError, match="triangles"):
        load_ply(p)


def _ply_binary(faces, cut=0):
    """Binary PLY of the unit square's 4 vertices with the given face lists;
    ``cut`` bytes are dropped from the end."""
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n"
        f"element face {len(faces)}\nproperty list uchar int vertex_indices\nend_header\n"
    ).encode("ascii")
    body = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype="<f4").tobytes()
    for f in faces:
        body += np.uint8(len(f)).tobytes() + np.array(f, dtype="<i4").tobytes()
    data = header + body
    return data[:len(data) - cut]


@pytest.mark.parametrize("content, match", [
    (PLY_ASCII.replace("3 0 2 3\n", "3 0 2\n"), "truncated face"),
    (PLY_ASCII.replace("1 1 0\n", "1 one 0\n"), "non-numeric vertex"),
    (PLY_ASCII.replace("3 0 2 3", "3 0 two 3"), "non-numeric face"),
    (PLY_ASCII.replace("element vertex 4", "element vertex three"), "line 3"),
    (PLY_ASCII.replace("format ascii 1.0", "format"), "line 2"),
    (PLY_ASCII.replace("list uchar int", "list uchar int128"), "unknown type"),
    (_ply_binary([[0, 1, 2], [0, 2, 3]], cut=5), "face 1: truncated"),
    (_ply_binary([[0, 1, 2], [0, 1, 2, 3]]), "face 1: only triangles"),
    (PLY_ASCII.replace("vertex_indices\n", "vertex_indices\nproperty uchar flag\n")
     .replace("3 0 1 2\n3 0 2 3\n", "3 0 1 2 3\n3 0 2 3 3\n"), "single list property"),
    (_ply_binary([[0, 1, 2], [0, 2, 3]]).replace(
        b"vertex_indices\n", b"vertex_indices\nproperty uchar flag\n"), "single list property"),
    (PLY_ASCII.replace("property float z\n", "property float z\nproperty list uchar int n\n"),
     "element 'vertex'"),
    (_ply_binary([[0, 1, 2]]).replace(b"property float z\n", b""), "vertex element lacks"),
    (PLY_ASCII.replace("end_header", "element edge 0\nproperty list uchar int v\nend_header"),
     "element 'edge'"),
    (PLY_ASCII.replace("3 0 2 3", "3 0 1 99999999999999999999999"), "face index exceeds int64"),
    (PLY_ASCII.replace("element face 2", "element face -1"),
     "line 7: negative count -1 for element 'face'"),
    (_ply_binary([[0, 1, 2]]).replace(b"element vertex 4", b"element vertex -1"),
     "line 3: negative count -1 for element 'vertex'"),
    (_ply_binary([[0, 1, 2]]).replace(b"property float z\n",
                                      b"property float z\nproperty float x\n"),
     "line 7: property 'x' repeated in element 'vertex'"),
    (PLY_ASCII[:PLY_ASCII.index("end_header") + len("end_header")],
     "no line break after end_header"),
], ids=["ascii-truncated-face", "ascii-vertex-word", "ascii-face-word",
        "header-count-word", "header-format-empty", "header-list-type",
        "binary-truncated-face", "binary-quad", "ascii-face-extra-property",
        "binary-face-extra-property", "ascii-vertex-list", "binary-vertex-no-z",
        "ascii-other-list", "ascii-face-index-beyond-int64", "ascii-negative-face-count",
        "binary-negative-vertex-count", "binary-repeated-property",
        "header-unterminated"])
def test_ply_malformed_input_raises_named_error(tmp_path, content, match):
    p = tmp_path / "bad.ply"
    if isinstance(content, str):
        p.write_text(content)
    else:
        p.write_bytes(content)
    with pytest.raises(MeshFormatError, match=match) as exc:
        load_ply(p)
    assert str(p) in str(exc.value)



_PLY_VERTS = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])


def _ply_bytes(binary, faces, vertex_type="float", list_types=("uchar", "int")):
    """A PLY of the unit square's 4 vertices with the given face lists, in
    ASCII or binary little-endian."""
    header = (
        f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
        f"element vertex 4\nproperty {vertex_type} x\nproperty {vertex_type} y\n"
        f"property {vertex_type} z\nelement face {len(faces)}\n"
        f"property list {list_types[0]} {list_types[1]} vertex_indices\nend_header\n"
    ).encode("ascii")
    if not binary:
        body = "".join(" ".join(map(str, v)) + "\n" for v in _PLY_VERTS)
        body += "".join(" ".join(map(str, [len(f)] + list(f))) + "\n" for f in faces)
        return header + body.encode("ascii")
    scalar = {"float": "<f4", "double": "<f8", "uchar": "<u1", "int": "<i4", "uint": "<u4",
              "short": "<i2"}
    body = _PLY_VERTS.astype(scalar[vertex_type]).tobytes()
    for f in faces:
        body += np.array(len(f), dtype=scalar[list_types[0]]).tobytes()
        body += np.array(f).astype(scalar[list_types[1]]).tobytes()  # -1 wraps if unsigned
    return header + body


@settings(max_examples=400, deadline=None)
@given(binary=st.booleans(),
       faces=st.lists(st.lists(st.sampled_from((0, 1, 2, 3, 3, 4, 99, -1)), min_size=3,
                               max_size=4), max_size=4),
       vertex_type=st.sampled_from(("float", "double")),
       list_types=st.sampled_from((("uchar", "int"), ("uchar", "uint"), ("int", "int"),
                                   ("uchar", "short"))),
       cut=st.none() | st.integers(0, 400),
       flips=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=3))
def test_ply_corrupted_input_loads_or_raises_named_error(tmp_path_factory, binary, faces,
                                                         vertex_type, list_types, cut, flips):
    """A valid ASCII or binary PLY with quads and out-of-range indices among
    its faces, then truncated and with bytes overwritten anywhere (header,
    vertex or face data), loads or raises a mesh error naming the file,
    never any other exception."""
    data = bytearray(_ply_bytes(binary, faces, vertex_type, list_types))
    for at, byte in flips:
        data[at % len(data)] = byte
    if cut is not None:
        data = data[:cut]
    path = tmp_path_factory.getbasetemp() / "fuzz.ply"
    path.write_bytes(bytes(data))
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            mesh = load_ply(path)
    except (MeshFormatError, MeshStructureError) as exc:
        assert str(path) in str(exc)
    else:
        assert mesh.vertices.shape[1] == 3 and mesh.faces.shape[1] == 3


def test_face_on_non_finite_vertex_raises_named_error(tmp_path):
    obj = tmp_path / "nan.obj"
    obj.write_text("v 0 0 0\nv 1 0 nan\nv 0 1 0\nv 1 1 0\nf 1 3 4\nf 1 2 3\n")
    with pytest.raises(MeshStructureError, match="face 1 references vertex 1") as exc:
        load_obj(obj)
    assert str(obj) in str(exc.value)
    ply = tmp_path / "inf.ply"
    ply.write_text(PLY_ASCII.replace("1 1 0", "1 1 inf"))
    with pytest.raises(MeshStructureError, match="face 0 references vertex 2") as exc:
        load_ply(ply)
    assert str(ply) in str(exc.value)
    # a finite file can still overflow when rescaled
    big = tmp_path / "big.obj"
    big.write_text("v 0 0 0\nv 1e308 0 0\nv 0 1 0\nf 1 2 3\n")
    with np.errstate(over="ignore"), pytest.raises(MeshStructureError, match="not finite"):
        load_obj(big, rescale=10.0)


def test_non_finite_vertex_no_face_uses_is_ignored(tmp_path):
    p = tmp_path / "stray.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv nan inf -inf\nf 1 2 3\n")
    mesh = load_obj(p)
    assert mesh.n_vertices == 4 and np.isnan(mesh.vertices[3, 0])


def test_load_mesh_dispatch_and_unknown_format(tmp_path):
    p = tmp_path / "m.xyz"
    p.write_text("")
    with pytest.raises(MeshFormatError, match="format"):
        load_mesh(p)


# ---------------------------------------------------------------------------
# Mesh invariants

def test_mesh_rejects_degenerate_face():
    with pytest.raises(MeshStructureError, match="repeats"):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 1]])


def test_mesh_rejects_out_of_range_index():
    with pytest.raises(MeshStructureError):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 5]])


def test_mesh_arrays_immutable():
    mesh = make_grid_mesh(3, 3)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 99.0


# ---------------------------------------------------------------------------
# distance_field

def test_distance_field_self_is_zero():
    mesh = make_grid_mesh(4, 4)
    d = distance_field(mesh, mesh.vertices[0])
    assert d[0] == 0.0
    assert (d >= 0).all()


def test_distance_field_unit_cube_diagonal():
    verts = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                     dtype=float)
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    d = distance_field(mesh, verts[0])
    assert d[7] == pytest.approx(math.sqrt(3), abs=1e-12)


def test_distance_field_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    mesh = random_mesh(rng)
    r = rng.normal(size=3) * 5
    d = distance_field(mesh, r)
    oracle = [math.dist(v, r) for v in mesh.vertices]
    assert np.allclose(d, oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# transforms

def test_identity_transform_bitwise_equal():
    mesh = make_grid_mesh(4, 3)
    out = apply_transform(mesh, RigidTransform.identity())
    assert np.array_equal(out.vertices, mesh.vertices)


def test_translation_preserves_pairwise_distances():
    mesh = make_grid_mesh(4, 3)
    t = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
    out = apply_transform(mesh, t)
    d0 = np.linalg.norm(mesh.vertices[:, None] - mesh.vertices[None, :], axis=2)
    d1 = np.linalg.norm(out.vertices[:, None] - out.vertices[None, :], axis=2)
    assert np.abs(d0 - d1).max() < 1e-12


def test_scale_doubles_pairwise_distances():
    mesh = make_grid_mesh(4, 3)
    out = apply_transform(mesh, RigidTransform(np.eye(3), np.zeros(3), scale=2.0))
    d0 = np.linalg.norm(mesh.vertices[:, None] - mesh.vertices[None, :], axis=2)
    d1 = np.linalg.norm(out.vertices[:, None] - out.vertices[None, :], axis=2)
    assert np.abs(d1 - 2.0 * d0).max() < 1e-9


def test_rigid_isometry_property_random():
    rng = np.random.default_rng(5)
    mesh = random_mesh(rng)
    for _ in range(5):
        t = RigidTransform.random(rng, max_translation=10.0)
        out = apply_transform(mesh, t)
        d0 = np.linalg.norm(mesh.vertices[:, None] - mesh.vertices[None, :], axis=2)
        d1 = np.linalg.norm(out.vertices[:, None] - out.vertices[None, :], axis=2)
        assert np.abs(d0 - d1).max() < 1e-9


def test_distance_field_commutes_with_transform():
    rng = np.random.default_rng(6)
    mesh = random_mesh(rng)
    r = rng.normal(size=3)
    for scale in (1.0, 2.5):
        t = RigidTransform.random(rng, scale=scale, max_translation=4.0)
        lhs = distance_field(apply_transform(mesh, t), t.apply(r))
        rhs = scale * distance_field(mesh, r)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_rotation_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))
    with pytest.raises(ValueError, match="determinant"):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="scale"):
        RigidTransform(np.eye(3), np.zeros(3), scale=0.0)


# ---------------------------------------------------------------------------
# degrees

def test_degrees_single_triangle():
    mesh = TriangleMesh(np.eye(3), [[0, 1, 2]])
    assert vertex_degrees(mesh).tolist() == [2, 2, 2]


def test_degrees_two_triangles_sharing_edge():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    mesh = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3]])
    deg = vertex_degrees(mesh)
    assert deg[0] == 3 and deg[2] == 3
    assert deg[1] == 2 and deg[3] == 2


def test_degrees_strip_matches_bruteforce():
    # strip of T triangles sharing consecutive edges
    T = 9
    verts = np.array([[i, i % 2, 0] for i in range(T + 2)], dtype=float)
    faces = np.array([[i, i + 1, i + 2] for i in range(T)])
    mesh = TriangleMesh(verts, faces)
    deg = vertex_degrees(mesh)
    edges = set()
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))
    oracle = np.zeros(T + 2, dtype=int)
    for u, v in edges:
        oracle[u] += 1
        oracle[v] += 1
    assert np.array_equal(deg, oracle)
    assert deg.sum() == 2 * len(edges)


def test_degree_sum_equals_twice_edges_random():
    rng = np.random.default_rng(17)
    for _ in range(5):
        mesh = random_mesh(rng)
        assert vertex_degrees(mesh).sum() == 2 * unique_edges(mesh.faces).shape[0]


# ---------------------------------------------------------------------------
# landmarks

def test_landmark_csv_roundtrip(tmp_path):
    lm = LandmarkSet(("NOSE", "CHIN"), np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]))
    p = tmp_path / "lm.csv"
    save_landmarks(p, lm)
    back = load_landmarks(p)
    assert back.labels == ("NOSE", "CHIN")
    assert np.allclose(back.positions, lm.positions, atol=1e-6)


def test_landmark_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="unique"):
        LandmarkSet(("A", "A"), np.zeros((2, 3)))


def test_landmark_csv_bad_header(tmp_path):
    p = tmp_path / "lm.csv"
    p.write_text("name,x,y,z\nA,0,0,0\n")
    with pytest.raises(MeshFormatError, match="header"):
        load_landmarks(p)


@pytest.mark.parametrize("token, rescale, reason", [
    ("x", 1.0, "non-numeric"), ("nan", 1.0, "non-finite"), ("inf", 1.0, "non-finite"),
    ("-inf", 1.0, "non-finite"), ("1e308", 10.0, "non-finite")])
def test_landmark_csv_bad_coordinate_names_its_line(tmp_path, token, rescale, reason):
    """A coordinate that is not a finite number, as read or once rescaled,
    is refused with its line named, rather than loading a landmark that
    no level curve can reach."""
    p = tmp_path / "lm.csv"
    p.write_text(f"label,x,y,z\nA,0,0,0\nB,1,{token},2\n")
    with pytest.raises(MeshFormatError, match=f"line 3: {reason} coordinate"):
        load_landmarks(p, rescale=rescale)
