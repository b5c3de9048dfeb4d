"""Triangle meshes, landmark sets, and their OBJ/PLY/CSV loaders.

Vertices are in millimetres throughout; the level-curve radii used
downstream (5..20 mm) only make sense at face scale.  Loaders accept an
optional unit rescale factor for datasets stored in other units.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MeshFormatError(ValueError):
    """A mesh file could not be parsed (message names line/offset)."""


class MeshStructureError(ValueError):
    """Parsed mesh data violates structural constraints."""


def _runs(first, count):
    """``arange(first[i], first[i] + count[i])`` for every ``i``, one after
    another."""
    return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup.

    Non-manifold input is accepted; only index-range validity and
    non-degeneracy of individual faces are enforced.  Instances are
    immutable after construction (arrays are marked read-only), so they
    can be shared freely across workers.
    """

    vertices: np.ndarray  # (n, 3) float64, mm
    faces: np.ndarray     # (F, 3) int64

    def __post_init__(self):
        v = _readonly(np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        f = _readonly(np.asarray(self.faces, dtype=np.int64).reshape(-1, 3))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        if f.size:
            if f.min() < 0 or f.max() >= v.shape[0]:
                bad = int(np.nonzero(((f < 0) | (f >= v.shape[0])).any(axis=1))[0][0])
                raise MeshStructureError(
                    f"face {bad} references a vertex index out of range "
                    f"(vertex count {v.shape[0]})"
                )
            degen = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
            if degen.any():
                raise MeshStructureError(
                    f"face {int(np.nonzero(degen)[0][0])} repeats a vertex index"
                )

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


class Neighbourhood:
    """Faces near any point of one mesh, for one radius; its caller builds
    it, and the mesh keeps none.

    Holds the vertex->face incidence in CSR form, the faces that have a
    NaN corner, and a uniform grid of the finite vertices in cells of
    side ``radius`` (wider for a mesh more than 64 radii across).  A query
    visits only the cells that the box ``r +- radius`` meets, so its cost
    grows with the surface near ``r``, not with the mesh.
    """

    _MAX_CELLS = 64  # per axis, before the cell side grows

    def __init__(self, mesh: TriangleMesh, radius: float):
        v, f = mesh.vertices, mesh.faces
        self.vertices, self.n_faces, self.radius = v, f.shape[0], float(radius)
        self.incident = np.argsort(f.ravel(), kind="stable")
        self.incident //= 3
        self.first = np.concatenate(
            [[0], np.cumsum(np.bincount(f.ravel(), minlength=v.shape[0]))])
        # a NaN corner makes the face's smallest corner distance NaN
        self.nan_faces = np.flatnonzero(np.isnan(v).any(axis=1)[f].any(axis=1))
        # cells on each axis are split at `bounds`; only finite vertices can
        # be closer than `radius`, and a cell is found by a search, not a
        # division, so it grows monotonically with the coordinate
        ids = np.flatnonzero(np.isfinite(v).all(axis=1))
        pts = v[ids]
        lo = pts.min(axis=0) if ids.size else np.zeros(3)
        hi = pts.max(axis=0) if ids.size else np.zeros(3)
        side = max(self.radius, float((hi - lo).max()) / self._MAX_CELLS)
        self.bounds = []
        for a in range(3):
            b = lo[a] + side * np.arange(1, self._MAX_CELLS + 1)
            self.bounds.append(b[b <= hi[a]])
        self.shape = [b.size + 1 for b in self.bounds]
        cell = np.ravel_multi_index(
            [np.searchsorted(b, pts[:, a], side="right") for a, b in enumerate(self.bounds)],
            self.shape)
        self.by_cell = ids[np.argsort(cell, kind="stable")]
        self.cell_first = np.concatenate(
            [[0], np.cumsum(np.bincount(cell, minlength=int(np.prod(self.shape))))])

    def faces_within(self, r) -> np.ndarray:
        """Ascending ids of the faces whose smallest corner value of
        :func:`distance_field` at ``r`` is below the radius: the faces with
        a corner closer than it and no NaN corner."""
        r = np.asarray(r, dtype=np.float64).reshape(3)
        # a vertex whose computed distance is below `radius` lies within
        # `reach` of r on every axis, so inside the cells of r -+ reach (a
        # NaN or infinite r finds end cells and no distance below `radius`)
        reach = self.radius * (1.0 + 1e-9)
        (x0, x1), (y0, y1), (z0, z1) = [
            np.searchsorted(b, [r[a] - reach, r[a] + reach], side="right").tolist()
            for a, b in enumerate(self.bounds)]
        ny, nz = self.shape[1], self.shape[2]
        cand = np.concatenate([
            self.by_cell[self.cell_first[(x * ny + y) * nz + z0]:
                         self.cell_first[(x * ny + y) * nz + z1 + 1]]
            for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)])
        near = cand[_distances(np.take(self.vertices, cand, axis=0), r) < self.radius]
        # the incident faces of `near`, one CSR run per vertex
        start = self.first[near]
        hit = np.zeros(self.n_faces, dtype=bool)
        hit[self.incident[_runs(start, self.first[near + 1] - start)]] = True
        hit[self.nan_faces] = False
        return np.flatnonzero(hit)


def _distances(points: np.ndarray, r) -> np.ndarray:
    """Euclidean distance of each row of ``points`` to ``r``; a row's value
    does not depend on the other rows.  The squares are summed in
    ``np.linalg.norm``'s order, ``(x + y) + z``, as whole columns."""
    d = points - r
    d *= d
    return np.sqrt(d[:, 0] + d[:, 1] + d[:, 2])


def unique_edges(faces: np.ndarray) -> np.ndarray:
    """Unique undirected edges of a face list, shape (E, 2): each row
    ascending, rows sorted."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0) if e.size else e


def distance_field(mesh: TriangleMesh, r, at=None) -> np.ndarray:
    """Per-vertex Euclidean distance (mm) to the point ``r``, or, given
    vertex ids ``at`` (an index array of any shape, such as faces), the
    distances of those vertices: the per-vertex values, bit for bit,
    without computing them at the vertices ``at`` does not name."""
    r = np.asarray(r, dtype=np.float64).reshape(3)
    if at is None:
        return _distances(mesh.vertices, r)
    at = np.asarray(at)
    return _distances(np.take(mesh.vertices, at.ravel(), axis=0), r).reshape(at.shape)


def _text_lines(path):
    """Lines of a UTF-8 text file; a decoding error names the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise MeshFormatError(f"{path}: not UTF-8 text ({exc})") from None


def _parsed_mesh(path, vertices, faces, rescale: float) -> TriangleMesh:
    """The mesh parsed from ``path``, rescaled; a structural error, or a
    face with a non-finite corner, names the file."""
    if rescale != 1.0:
        vertices = vertices * float(rescale)
    try:
        mesh = TriangleMesh(vertices, faces)
    except MeshStructureError as exc:
        raise MeshStructureError(f"{path}: {exc}") from None
    bad = ~np.isfinite(mesh.vertices).all(axis=1)[mesh.faces]
    if bad.any():
        face = int(np.flatnonzero(bad.any(axis=1))[0])
        vertex = int(mesh.faces[face][bad[face]][0])
        raise MeshStructureError(
            f"{path}: face {face} references vertex {vertex}, whose coordinates are not finite")
    return mesh


# ---------------------------------------------------------------------------
# Landmarks

@dataclass(frozen=True)
class LandmarkSet:
    """Ordered, uniquely labelled 3D points in mesh coordinates."""

    labels: tuple
    positions: np.ndarray  # (N, 3) float64

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        pos = _readonly(np.asarray(self.positions, dtype=np.float64).reshape(-1, 3))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "positions", pos)
        if len(labels) != pos.shape[0]:
            raise ValueError("label count does not match position count")
        if len(labels) == 0:
            raise ValueError("landmark set must contain at least one landmark")
        if len(set(labels)) != len(labels):
            raise ValueError("landmark labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    def items(self):
        return list(zip(self.labels, self.positions))


def load_landmarks(path, rescale: float = 1.0) -> LandmarkSet:
    """Read a landmark CSV with header ``label,x,y,z`` (order preserved);
    positions are multiplied by ``rescale``, the factor its mesh is loaded
    with."""
    path = Path(path)
    reader = csv.reader(_text_lines(path))
    try:
        header = next(reader)
    except StopIteration:
        raise MeshFormatError(f"{path}: empty landmark file") from None
    if [h.strip().lower() for h in header] != ["label", "x", "y", "z"]:
        raise MeshFormatError(f"{path}: expected header 'label,x,y,z', got {header!r}")
    labels, pos = [], []
    for ln, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise MeshFormatError(f"{path}: line {ln}: expected 4 fields, got {len(row)}")
        labels.append(row[0])
        try:
            pos.append([float(x) * float(rescale) for x in row[1:]])
        except ValueError:
            raise MeshFormatError(f"{path}: line {ln}: non-numeric coordinate") from None
        if not np.isfinite(pos[-1]).all():   # nan, inf, or beyond the float range once rescaled
            raise MeshFormatError(f"{path}: line {ln}: non-finite coordinate")
    try:
        return LandmarkSet(tuple(labels), np.array(pos, dtype=np.float64))
    except ValueError as exc:
        raise MeshFormatError(f"{path}: {exc}") from None


def save_landmarks(path, landmarks: LandmarkSet) -> None:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "x", "y", "z"])
        for label, p in landmarks.items():
            writer.writerow([label, f"{p[0]:.6f}", f"{p[1]:.6f}", f"{p[2]:.6f}"])


# ---------------------------------------------------------------------------
# OBJ

def load_obj(path, rescale: float = 1.0) -> TriangleMesh:
    """Parse a Wavefront OBJ file (``v`` and ``f`` records, triangles only).

    A file of plain ``v x y z`` and ``f i j k`` records among comments,
    blank lines and other records (``vn``, ``vt``, ``g``, ...) is parsed in
    whole-file array passes; anything else, malformed or merely unusual,
    is read line by line, which names the line and the fault of a
    malformed record."""
    path = Path(path)
    verts, faces = _obj_arrays(path) or _obj_lines(path)
    return _parsed_mesh(path, verts, faces, rescale)


def _obj_arrays(path):
    """``(vertices, faces)`` of an OBJ file parsed in whole-file array passes,
    or None unless it is ASCII, ends its lines with LF or CRLF, and every
    line is blank, starts a comment or a record of another kind at its
    first byte, or is a ``v`` or ``f`` record in the plain form
    :func:`save_obj` writes: the tag, then 3 tokens, each after one space,
    and the line end.  Vertex tokens hold only digits, ``.``, ``+``, ``-``,
    ``e`` and ``E`` and parse as numbers; face tokens hold only digits,
    from 1 to below 2**53 (exact as doubles), and there is a vertex.  The
    other lines are dropped, and all numbers are parsed in one
    ``np.loadtxt`` pass, which converts each token as ``float`` does.  A
    None hands the file to :func:`_obj_lines`, so errors are always named
    by that reader."""
    plain = _obj_plain_records(path.read_bytes())
    if plain is None or not plain[1].any():
        return None
    data, is_v = plain
    try:
        rows = np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"),
                          comments=None, delimiter=" ", usecols=(1, 2, 3), ndmin=2)
    except ValueError:       # a line of under 4 fields, or a token that is no number
        return None
    del data, plain          # hold the numbers, not the text too
    faces = rows[~is_v]
    if not ((faces >= 1) & (faces < 2.0**53)).all():
        return None
    faces -= 1
    faces = faces.astype(np.int64)
    return rows[is_v], faces


# the bytes each kind of record may hold, by its tag (a carriage return
# only as part of a CRLF line end, which the caller checks)
_OBJ_RECORD_BYTES = {ord("v"): b"0123456789.+-eEv \r\n", ord("f"): b"0123456789f \r\n"}


def _obj_plain_records(data: bytes):
    """``(text, is_v)``: the ``v``/``f`` records of OBJ text ``data``, the
    other lines dropped, and whether each is a ``v`` record; or None unless
    every line passes the byte tests of :func:`_obj_arrays`."""
    if not data or not data.isascii() or (b"\r" in data
                                          and data.count(b"\r") != data.count(b"\r\n")):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    starts = np.concatenate([[0], np.flatnonzero(b[:-1] == ord("\n")) + 1])
    size = np.diff(np.append(starts, b.size))
    tag = b[starts]
    after = np.take(b, starts + 1, mode="clip")
    after[size == 1] = ord("\n")
    # the line reader takes a line's first token as its tag: a record is
    # ``v`` or ``f`` and a space (another blank sends the file to it);
    # other tokens from the first byte, comments and blank lines it skips
    printable = (after > ord(" ")) & (after < 127)
    record = ((tag == ord("v")) | (tag == ord("f"))) & ~printable
    skip = ~record & ((tag == ord("\n")) | (tag == ord("\r")) | ((tag > ord(" ")) & (tag < 127)))
    if not record.any() or not (record | skip).all() or (after[record] != ord(" ")).any():
        return None
    if skip.any():
        b = b[np.repeat(record, size)]
        data, tag, size = b.tobytes(), tag[record], size[record]
        starts = np.cumsum(size) - size
    # with 3 spaces per record in each run of records, and loadtxt refusing
    # a line of under 4 fields, every record holds exactly 3 tokens
    run = np.flatnonzero(tag[1:] != tag[:-1]) + 1
    for a, z in zip([0, *run.tolist()], [*run.tolist(), tag.size]):
        span = data[starts[a]:starts[z - 1] + size[z - 1]]
        if span.translate(None, _OBJ_RECORD_BYTES[int(tag[a])]) or span.count(b" ") != 3 * (z - a):
            return None
    return data, tag == ord("v")


def _obj_lines(path):
    """``(vertices, faces)`` of an OBJ file read line by line; a malformed
    record raises :class:`MeshFormatError` naming its line."""
    verts: list = []
    faces: list = []
    for ln, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "v":
            if len(tok) < 4:
                raise MeshFormatError(f"{path}: line {ln}: vertex needs 3 coordinates")
            try:
                verts.append((float(tok[1]), float(tok[2]), float(tok[3])))
            except ValueError:
                raise MeshFormatError(f"{path}: line {ln}: non-numeric vertex coordinate") from None
        elif tok[0] == "f":
            refs = tok[1:]
            if len(refs) != 3:
                raise MeshFormatError(
                    f"{path}: line {ln}: only triangular faces are supported "
                    f"(got {len(refs)} vertices)"
                )
            idx = []
            for t in refs:
                head = t.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshFormatError(f"{path}: line {ln}: bad face index {t!r}") from None
                if i <= 0:
                    raise MeshFormatError(
                        f"{path}: line {ln}: face indices must be positive (1-based), got {i}"
                    )
                if i >= 2**63:
                    raise MeshFormatError(f"{path}: line {ln}: face index {i} exceeds int64")
                idx.append(i - 1)
            faces.append(idx)
        # all other record types (vn, vt, g, ...) are ignored
    if not verts:
        raise MeshFormatError(f"{path}: no vertices found")
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64).reshape(-1, 3)


def obj_vertex_records(vertices: np.ndarray) -> str:
    """One ``v`` line per row of ``(n, 3)`` vertices, 6 decimals, in one pass."""
    return ("v %.6f %.6f %.6f\n" * len(vertices)) % tuple(vertices.ravel().tolist())


def obj_face_records(faces: np.ndarray) -> str:
    """One ``f`` line per row of ``(F, 3)`` 0-based faces, written 1-based, in one pass."""
    return ("f %d %d %d\n" * len(faces)) % tuple((faces + 1).ravel().tolist())


def save_obj(path, mesh: TriangleMesh) -> None:
    """Write an OBJ file with fixed 6-decimal formatting (deterministic)."""
    Path(path).write_text(obj_vertex_records(mesh.vertices) + obj_face_records(mesh.faces),
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# PLY

_PLY_SCALAR = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_ply_header(data: bytes, path):
    """``(format, [(element name, count, property descriptors)], body
    offset)``; the vertex element must be scalar with x, y and z, the face
    element a single list property, and any other element scalar."""
    end = data.find(b"end_header")
    if end < 0:
        raise MeshFormatError(f"{path}: missing end_header")
    body_start = data.find(b"\n", end) + 1
    if not body_start:
        raise MeshFormatError(f"{path}: no line break after end_header")
    try:
        header = data[:body_start].decode("ascii")
    except UnicodeDecodeError:
        raise MeshFormatError(f"{path}: header is not ASCII") from None
    lines = [l.strip() for l in header.splitlines()]
    if not lines or lines[0] != "ply":
        raise MeshFormatError(f"{path}: line 1: not a PLY file")
    fmt = None
    elements = []  # (name, count, [prop descriptors])
    for ln, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        tok = line.split()
        try:
            if tok[0] == "format":
                if tok[1] not in ("ascii", "binary_little_endian"):
                    raise MeshFormatError(f"{path}: line {ln}: unsupported format {tok[1]!r}")
                fmt = tok[1]
            elif tok[0] == "element":
                count = int(tok[2])
                if count < 0:
                    raise MeshFormatError(
                        f"{path}: line {ln}: negative count {count} for element {tok[1]!r}")
                elements.append((tok[1], count, []))
            elif tok[0] == "property":
                if not elements:
                    raise MeshFormatError(f"{path}: line {ln}: property before any element")
                if tok[1] == "list":
                    types, prop = tok[2:4], ("list", tok[2], tok[3], tok[4])
                else:
                    types, prop = tok[1:2], ("scalar", tok[1], tok[2])
                for t in types:
                    if t not in _PLY_SCALAR:
                        raise MeshFormatError(f"{path}: line {ln}: unknown type {t!r}")
                if prop[-1] in {p[-1] for p in elements[-1][2]}:
                    raise MeshFormatError(f"{path}: line {ln}: property {prop[-1]!r} "
                                          f"repeated in element {elements[-1][0]!r}")
                elements[-1][2].append(prop)
            elif tok[0] == "end_header":
                break
        except MeshFormatError:
            raise
        except (IndexError, ValueError):
            raise MeshFormatError(f"{path}: line {ln}: malformed header line {line!r}") from None
    if fmt is None:
        raise MeshFormatError(f"{path}: no format line in header")
    for name, _, props in elements:
        kinds = [p[0] for p in props]
        if name == "face" and kinds != ["list"]:
            raise MeshFormatError(f"{path}: face element must be a single list property")
        if name != "face" and "list" in kinds:
            raise MeshFormatError(f"{path}: list property on element {name!r} unsupported")
        if name == "vertex" and not {"x", "y", "z"} <= {p[2] for p in props}:
            raise MeshFormatError(f"{path}: vertex element lacks one of x, y, z")
    return fmt, elements, body_start


def _triangle_rows(rows: np.ndarray, count: int, path) -> np.ndarray:
    """Face index triples from ``(list length, i, j, k)`` rows, read on the
    assumption that every face is a triangle: rows up to the first
    non-triangle are exact, so that face is named correctly."""
    bad = np.nonzero(rows[:, 0] != 3)[0]
    if bad.size:
        i = int(bad[0])
        raise MeshFormatError(
            f"{path}: face {i}: only triangles supported (list length {rows[i, 0]})")
    if rows.shape[0] < count:
        raise MeshFormatError(f"{path}: face {rows.shape[0]}: truncated face data")
    return rows[:, 1:]


def load_ply(path, rescale: float = 1.0) -> TriangleMesh:
    """Parse a PLY file (ASCII or binary-little-endian, triangular faces)."""
    path = Path(path)
    data = path.read_bytes()
    fmt, elements, body_start = _parse_ply_header(data, path)

    vertices = None
    faces = None
    if fmt == "ascii":
        tokens = data[body_start:].decode("ascii", errors="replace").split()
        pos = 0
        for name, count, props in elements:
            if name == "vertex":
                names = [p[2] for p in props]
                try:
                    rows = np.array(tokens[pos:pos + count * len(names)], dtype=np.float64)
                except ValueError:
                    raise MeshFormatError(f"{path}: non-numeric vertex data") from None
                if rows.size != count * len(names):
                    raise MeshFormatError(f"{path}: truncated vertex data")
                rows = rows.reshape(count, len(names))
                pos += count * len(names)
                vertices = rows[:, [names.index(c) for c in ("x", "y", "z")]]
            elif name == "face":
                try:
                    rows = np.array(tokens[pos:pos + 4 * count], dtype=np.int64)
                except ValueError:
                    raise MeshFormatError(f"{path}: non-numeric face data") from None
                except OverflowError:
                    raise MeshFormatError(f"{path}: face index exceeds int64") from None
                faces = _triangle_rows(rows[:rows.size // 4 * 4].reshape(-1, 4), count, path)
                pos += 4 * count
            else:
                pos += count * len(props)
    else:
        offset = body_start
        for name, count, props in elements:
            if name == "vertex":
                dtype = np.dtype([(p[2], "<" + _PLY_SCALAR[p[1]]) for p in props])
                need = dtype.itemsize * count
                if offset + need > len(data):
                    raise MeshFormatError(f"{path}: offset {offset}: truncated vertex block")
                rec = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
                offset += need
                vertices = np.stack(
                    [rec["x"].astype(np.float64), rec["y"].astype(np.float64),
                     rec["z"].astype(np.float64)], axis=1)
            elif name == "face":
                _, count_t, item_t, _ = props[0]
                dtype = np.dtype([("n", "<" + _PLY_SCALAR[count_t]),
                                  ("i", "<" + _PLY_SCALAR[item_t], 3)])
                block = memoryview(data)[offset:offset + count * dtype.itemsize]
                rec = np.frombuffer(block, dtype=dtype, count=len(block) // dtype.itemsize)
                faces = _triangle_rows(
                    np.column_stack([rec["n"], rec["i"]]).astype(np.int64), count, path)
                offset += count * dtype.itemsize
            else:
                dtype = np.dtype([(p[2], "<" + _PLY_SCALAR[p[1]]) for p in props])
                offset += dtype.itemsize * count

    if vertices is None:
        raise MeshFormatError(f"{path}: no vertex element")
    if faces is None:
        faces = np.zeros((0, 3), dtype=np.int64)
    return _parsed_mesh(path, vertices, faces, rescale)


def load_mesh(path, rescale: float = 1.0) -> TriangleMesh:
    """Load a mesh from OBJ or PLY, chosen by the file suffix."""
    path = Path(path)
    suffix = path.suffix.lstrip(".").lower()
    if suffix == "obj":
        return load_obj(path, rescale=rescale)
    if suffix == "ply":
        return load_ply(path, rescale=rescale)
    raise MeshFormatError(f"{path}: unsupported mesh format {suffix!r}")
