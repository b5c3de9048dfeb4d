"""Test oracle for the OBJ writer: the per-record formatter that
``mesh.save_obj`` replaced, which ``save_obj`` must reproduce byte for byte."""

from pathlib import Path


def obj_face_lines(faces) -> list:
    """One ``f`` line (no line break) per 0-based face row, written 1-based."""
    return ["f %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1) for f in faces]


def save_obj_per_record(path, mesh) -> None:
    """Write ``mesh`` as OBJ one record at a time, 6-decimal ``v`` lines then ``f`` lines."""
    lines = ["v %.6f %.6f %.6f" % (p[0], p[1], p[2]) for p in mesh.vertices]
    lines += obj_face_lines(mesh.faces)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
