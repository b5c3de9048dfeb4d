import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from facespectra.mesh import LandmarkSet, Neighbourhood, TriangleMesh, distance_field
from facespectra import patches as patches_module
from facespectra.patches import (
    CurveAmbiguityError,
    CurveExtractionError,
    PatchConfig,
    apex_normal,
    build_patch,
    canonical_connectivity,
    extract_patches,
    load_patch_archive,
    resample_uniform,
    save_patch_archive,
)
from facespectra.synth import SynthConfig, generate_scan

from conftest import make_grid_mesh, make_uv_sphere
from geometry_oracles import RigidTransform, apply_transform, nearest_vertex, vertex_degrees
from patch_oracles import (extract_level_curve, level_curves, reference_build_patch,
                           reference_level_curves, reference_resample_uniform, whole_mesh_crop,
                           whole_mesh_extract_patches, whole_mesh_level_curves)


def polygon_circle(radius, n, z=0.0):
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang),
                            np.full(n, z)])


def turning_angle(points_2d):
    d = np.diff(np.vstack([points_2d, points_2d[:1]]), axis=0)
    theta = np.arctan2(d[:, 1], d[:, 0])
    dt = np.diff(np.concatenate([theta, theta[:1]]))
    dt = (dt + np.pi) % (2 * np.pi) - np.pi
    return dt.sum()


# ---------------------------------------------------------------------------
# PatchConfig

def test_patch_config_defaults_match_standard_setup():
    cfg = PatchConfig()
    assert cfg.lambda_min == 5.0 and cfg.lambda_max == 20.0
    assert cfg.n_curves == 15
    assert cfg.n_vertices == 1 + 15 * 50
    levels = cfg.levels()
    assert levels[0] == 5.0 and levels[-1] == 20.0
    assert len(levels) == 15


def test_patch_config_validation():
    with pytest.raises(ValueError):
        PatchConfig(lambda_min=0.0)
    with pytest.raises(ValueError):
        PatchConfig(lambda_min=10, lambda_max=5)
    with pytest.raises(ValueError):
        PatchConfig(n_curves=1)
    with pytest.raises(ValueError):
        PatchConfig(samples_per_curve=2)
    for bad in ({"lambda_max": math.inf}, {"lambda_min": math.nan}):
        with pytest.raises(ValueError, match="lambda_min < lambda_max < inf"):
            PatchConfig(**bad)
    for name, value in (("n_curves", 2.5), ("samples_per_curve", 8.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PatchConfig(**{name: value})


def test_connectivity_hash_depends_only_on_K_m():
    a = PatchConfig(5, 20, 4, 12)
    b = PatchConfig(1, 2, 4, 12)
    c = PatchConfig(5, 20, 5, 12)
    assert a.connectivity_hash() == b.connectivity_hash()
    assert a.connectivity_hash() != c.connectivity_hash()


# ---------------------------------------------------------------------------
# extract_level_curve

def test_grid_curve_distance_and_turning():
    mesh = make_grid_mesh(21, 21)
    apex = mesh.vertices[10 * 21 + 10]
    curve = extract_level_curve(mesh, apex, 2.0)
    d = np.linalg.norm(curve - apex, axis=1)
    assert np.abs(d - 2.0).max() <= 1e-6 * 2.0
    total = turning_angle(curve[:, :2])
    assert abs(abs(total) - 2 * np.pi) < 1e-6


def test_tiny_level_crosses_each_fan_edge_once():
    mesh = make_grid_mesh(15, 15)
    apex_idx = 7 * 15 + 7
    apex = mesh.vertices[apex_idx]
    curve = extract_level_curve(mesh, apex, 0.3)
    assert len(curve) == vertex_degrees(mesh)[apex_idx]
    d = np.linalg.norm(curve - apex, axis=1)
    assert np.abs(d - 0.3).max() <= 1e-6 * 0.3


def test_sphere_curve_length_matches_circle_oracle():
    R, lam = 50.0, 8.0
    mesh = make_uv_sphere(R, n_theta=60, n_phi=120)
    pole = mesh.vertices[0]
    curve = extract_level_curve(mesh, pole, lam)
    # chord lam subtends polar angle 2*asin(lam / 2R); circle radius R sin(theta)
    theta = 2.0 * math.asin(lam / (2 * R))
    oracle = 2 * np.pi * R * math.sin(theta)
    arclength = np.linalg.norm(curve - np.roll(curve, 1, axis=0), axis=1).sum()
    assert arclength == pytest.approx(oracle, rel=0.02)


def test_curve_invariant_holds_on_synthetic_face():
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, seed=3), 0, "SU", 2)
    for idx in (0, 20, 40):
        for lam in (5.0, 12.0, 20.0):
            curve = extract_level_curve(mesh, lmk.positions[idx], lam)
            d = np.linalg.norm(curve - lmk.positions[idx], axis=1)
            assert np.abs(d - lam).max() <= 1e-6 * lam


def test_curve_ccw_orientation_about_apex_normal():
    mesh = make_grid_mesh(21, 21)  # face normals point +z
    apex = mesh.vertices[10 * 21 + 10]
    curve = extract_level_curve(mesh, apex, 3.0)
    assert turning_angle(curve[:, :2]) > 0


def test_non_finite_corner_makes_apex_normal_degenerate():
    # the loaders refuse such a mesh; one built in memory must still fail
    # with the apex normal named, not with a misleading tracing error
    grid = make_grid_mesh(21, 21)
    verts = grid.vertices.copy()
    verts[10 * 21 + 11, 2] = np.inf  # the vertex next to the landmark
    mesh = TriangleMesh(verts, grid.faces)
    apex = mesh.vertices[10 * 21 + 10]
    with np.errstate(invalid="ignore"):
        with pytest.raises(CurveExtractionError, match="degenerate apex normal"):
            apex_normal(mesh.vertices, mesh.faces, distance_field(mesh, apex, at=mesh.faces))
        with pytest.raises(CurveExtractionError, match="degenerate apex normal"):
            build_patch(mesh, ("P", apex), PatchConfig(1.0, 5.0, 5, 8))


def _fan(mesh, vertex):
    return np.flatnonzero((mesh.faces == vertex).any(axis=1))


def test_apex_normal_orients_a_flipped_fan_consistently():
    """Incident faces stored with mixed orientation no longer cancel: the
    fan is summed as the lowest-numbered incident face orients it, so the
    normal equals that of the consistently oriented mesh, and flipping the
    lowest face too flips the normal."""
    rng = np.random.default_rng(3)
    for mesh in (make_grid_mesh(11, 11), random_height_field(rng)):
        apex_vertex = 5 * 11 + 5 if mesh.n_vertices == 121 else 10 * 21 + 10
        apex = mesh.vertices[apex_vertex]
        want = apex_normal(mesh.vertices, mesh.faces, distance_field(mesh, apex, at=mesh.faces))
        fan = _fan(mesh, apex_vertex)
        assert len(fan) == 6
        for flipped in (fan[1::2], fan[1:4], fan[1:]):
            faces = mesh.faces.copy()
            faces[flipped] = faces[flipped][:, ::-1]
            got = apex_normal(mesh.vertices, faces, distance_field(mesh, apex, at=faces))
            assert np.abs(got - want).max() <= 1e-12
        faces = mesh.faces.copy()
        faces[fan[0]] = faces[fan[0]][::-1]
        got = apex_normal(mesh.vertices, faces, distance_field(mesh, apex, at=faces))
        assert np.abs(got + want).max() <= 1e-12
    # half the fan flipped cancelled the stored sum exactly on a flat grid
    grid = make_grid_mesh(11, 11)
    faces = grid.faces.copy()
    fan = _fan(grid, 60)
    faces[fan[1::2]] = faces[fan[1::2]][:, ::-1]
    assert np.abs(apex_normal(grid.vertices, faces,
                              distance_field(grid, grid.vertices[60], at=faces))
                  - [0.0, 0.0, 1.0]).max() <= 1e-12


def test_apex_normal_sums_a_consistent_fan_as_stored():
    """On a consistently oriented fan (faces re-indexed and rotated, none
    flipped) the normal is the plain normalized sum, bit for bit."""
    rng = np.random.default_rng(5)
    mesh = _reindexed(random_height_field(rng), rng, flip=0.0)
    for vertex in rng.integers(0, mesh.n_vertices, size=20):
        tris = mesh.vertices[mesh.faces[_fan(mesh, vertex)]]
        n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]).sum(axis=0)
        got = apex_normal(mesh.vertices, mesh.faces,
                          distance_field(mesh, mesh.vertices[vertex], at=mesh.faces))
        assert got.tobytes() == (n / np.linalg.norm(n)).tobytes()


def _normal_at(vertices, faces, vertex):
    """The apex normal of ``faces`` taken at ``vertex``, the one corner at
    distance 0."""
    return apex_normal(vertices, faces, (faces != vertex).astype(np.float64))


def _apex_outcome(vertices, faces, fv):
    try:
        return apex_normal(vertices, faces, fv).tobytes()
    except CurveExtractionError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_apex_normal_is_the_normal_at_the_nearest_used_vertex(seed):
    """On re-indexed, partly flipped random height fields (a non-finite
    corner now and then), the apex normal read from a crop's corner
    distances is, bit for bit, the normal at the vertex nearest the
    landmark by squared distance among those the crop's faces use, the
    lowest id winning a tie; with a NaN distance, at the lowest-id NaN
    vertex."""
    rng = np.random.default_rng(seed)
    mesh = _reindexed(random_height_field(rng), rng)
    center = mesh.vertices[rng.integers(mesh.n_vertices)] + rng.normal(scale=0.5, size=3)
    faces = mesh.faces[Neighbourhood(mesh, rng.uniform(0.2, 3.0)).faces_within(center)]
    assume(faces.size)
    used = np.unique(faces)
    if rng.random() < 0.3:                          # a non-finite corner in the crop
        verts = mesh.vertices.copy()
        verts[rng.choice(used), rng.integers(3)] = rng.choice([np.nan, np.inf])
        mesh = TriangleMesh(verts, mesh.faces)
    with np.errstate(invalid="ignore"):
        vertex = used[nearest_vertex(mesh.vertices[used], center)]
        got = _apex_outcome(mesh.vertices, faces, distance_field(mesh, center, at=faces))
        assert got == _apex_outcome(mesh.vertices, faces, (faces != vertex).astype(float))


def test_apex_normal_ignores_unused_vertices_and_breaks_ties_by_lowest_id():
    """A vertex no face uses is never the apex, however near; of two
    corners at one distance from the landmark, the lower id's fan is
    summed, whichever of them it is."""
    rng = np.random.default_rng(11)
    field = random_height_field(rng)
    a, b = 10 * 21 + 10, 10 * 21 + 11
    verts = field.vertices.copy()
    verts[[a, b], 2] = 0.0
    center = (verts[a] + verts[b]) / 2
    stray = np.vstack([verts, center])              # vertex 441 sits on the landmark
    faces = field.faces
    fv = distance_field(TriangleMesh(stray, faces), center, at=faces)
    assert fv[faces == a][0] == fv[faces == b][0]   # an exact tie
    got = apex_normal(stray, faces, fv)
    assert got.tobytes() == _normal_at(stray, faces, a).tobytes()
    assert got.tobytes() != _normal_at(stray, faces, b).tobytes()
    swap = np.arange(len(stray))
    swap[[a, b]] = [b, a]                           # a now names the other corner
    moved, swapped = stray[swap], swap[faces]
    got = apex_normal(moved, swapped, distance_field(TriangleMesh(moved, swapped), center,
                                                     at=swapped))
    assert got.tobytes() == _normal_at(moved, swapped, a).tobytes()
    assert got.tobytes() == _normal_at(stray, faces, b).tobytes()


def test_missing_level_raises_with_context():
    mesh = make_grid_mesh(6, 6)
    apex = mesh.vertices[14]
    with pytest.raises(CurveExtractionError, match="99.0"):
        extract_level_curve(mesh, apex, 99.0, label="NOSE_0")
    with pytest.raises(CurveExtractionError, match="NOSE_0"):
        extract_level_curve(mesh, apex, 99.0, label="NOSE_0")


def test_open_contour_raises():
    mesh = make_grid_mesh(11, 11)
    corner = mesh.vertices[0]
    with pytest.raises(CurveExtractionError, match="closed|boundary"):
        extract_level_curve(mesh, corner, 3.0)


def test_component_not_enclosing_raises_ambiguity():
    # tiny island holding the landmark plus a far vertical wall: the only
    # closed iso component rings the wall center, not the landmark
    island_xy, island_f = make_grid_mesh(5, 5).vertices[:, :2], make_grid_mesh(5, 5).faces
    island = np.column_stack([island_xy, np.zeros(len(island_xy))])
    wall_u, wall_f = make_grid_mesh(31, 31).vertices[:, :2], make_grid_mesh(31, 31).faces
    wall = np.column_stack([np.full(len(wall_u), 30.0), wall_u[:, 0], wall_u[:, 1]])
    verts = np.vstack([island, wall])
    faces = np.vstack([island_f, wall_f + len(island)])
    mesh = TriangleMesh(verts, faces)
    with pytest.raises(CurveAmbiguityError, match="encloses"):
        extract_level_curve(mesh, np.zeros(3), 31.0)


# ---------------------------------------------------------------------------
# resample_uniform

def test_resample_square_perimeter():
    square = np.array([[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]], dtype=float)
    out = resample_uniform(square, 4)
    assert np.allclose(out, square, atol=1e-12)


def test_resample_uniform_fixed_point():
    curve = polygon_circle(3.0, 12)
    out = resample_uniform(curve, 12)
    assert np.allclose(out, curve, atol=1e-9)


def test_resample_circle_radius_preserved():
    curve = polygon_circle(3.0, 5000)
    out = resample_uniform(curve, 50)
    r = np.linalg.norm(out[:, :2], axis=1)
    assert np.abs(r - 3.0).max() <= 1e-6 * 3.0


def test_resample_equal_arclength_gaps():
    rng = np.random.default_rng(2)
    pts = polygon_circle(5.0, 400)
    pts[:, 2] = 0.3 * np.sin(np.linspace(0, 6 * np.pi, 400))
    m = 37
    out = resample_uniform(pts, m)
    # walk the original polyline and measure arclength positions of outputs
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0], np.cumsum(lens)])
    total = cum[-1]

    def arcpos(p):
        best, pos = np.inf, 0.0
        for i in range(len(pts)):
            d = p - pts[i]
            t = np.clip(d @ seg[i] / (lens[i] ** 2), 0, 1)
            q = pts[i] + t * seg[i]
            err = np.linalg.norm(p - q)
            if err < best:
                best, pos = err, cum[i] + t * lens[i]
        return pos

    positions = np.array([arcpos(p) for p in out])
    gaps = np.diff(positions) % total
    assert np.abs(gaps - total / m).max() < 1e-9 * total


def test_resample_degenerate_curve_errors():
    with pytest.raises(ValueError, match="arclength"):
        resample_uniform(np.zeros((4, 3)), 5)


# ---------------------------------------------------------------------------
# canonical_connectivity

def test_connectivity_face_counts():
    assert canonical_connectivity(PatchConfig(1, 2, 2, 3)).shape[0] == 9
    assert canonical_connectivity(PatchConfig(5, 20, 15, 50)).shape[0] == 1450


def test_connectivity_is_pure_function():
    cfg = PatchConfig(5, 20, 6, 9)
    a = canonical_connectivity(cfg)
    b = canonical_connectivity(cfg)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("K,m", [(2, 3), (3, 5), (4, 8)])
def test_connectivity_covers_vertices_and_edge_count(K, m):
    cfg = PatchConfig(1, 2, K, m)
    faces = canonical_connectivity(cfg)
    n = cfg.n_vertices
    assert set(faces.ravel().tolist()) == set(range(n))
    edges = set()
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))
    # apex spokes + ring edges + vertical rungs + quad diagonals
    expected = m + K * m + m * (K - 1) + m * (K - 1)
    assert len(edges) == expected
    # connected: breadth-first reach from apex
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    assert len(seen) == n


# ---------------------------------------------------------------------------
# build_patch

def test_smallest_patch_on_planar_grid():
    mesh = make_grid_mesh(41, 41, spacing=0.25)
    apex = mesh.vertices[20 * 41 + 20]
    cfg = PatchConfig(1.0, 2.0, 2, 3)
    patch = build_patch(mesh, ("C", apex), cfg)
    assert patch.shape == (7, 3)
    assert np.allclose(patch[0], 0.0)
    d1 = np.linalg.norm(patch[1:4], axis=1)
    d2 = np.linalg.norm(patch[4:7], axis=1)
    # resampled ring points sit on chords, slightly inside the exact radius
    assert np.all(d1 <= 1.0 + 1e-9) and np.all(d1 > 0.8)
    assert np.all(d2 <= 2.0 + 1e-9) and np.all(d2 > 1.6)


def test_default_patch_vertex_count_on_synthetic_face():
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, seed=5), 0, "HA", 1)
    cfg = PatchConfig(5, 20, 15, 50)
    patch = build_patch(mesh, ("NOSE_4", lmk.positions[lmk.labels.index("NOSE_4")]), cfg)
    assert patch.shape == (751, 3)


def test_build_patch_commutes_with_rigid_motion():
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, seed=9), 0, "AN", 2)
    cfg = PatchConfig(5, 16, 5, 16)
    rng = np.random.default_rng(4)
    label = "LCHEEK_0"
    pos = lmk.positions[lmk.labels.index(label)]
    base = build_patch(mesh, (label, pos), cfg)
    for _ in range(3):
        t = RigidTransform.random(rng, max_translation=30.0)
        moved = apply_transform(mesh, t)
        patch_t = build_patch(moved, (label, t.apply(pos)), cfg,
                              reference_axis=t.rotation @ np.array([1.0, 0, 0]))
        assert np.abs(patch_t - base @ t.rotation.T).max() < 1e-6


def test_build_patch_normal_alignment_mode():
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, seed=9), 0, "AN", 2)
    cfg = PatchConfig(5, 16, 4, 12)
    label = "NOSE_4"
    pos = lmk.positions[lmk.labels.index(label)]
    patch = build_patch(mesh, (label, pos), cfg, align="normal")
    # first ring start direction lies in the xz half-plane with y ~ 0
    assert abs(patch[1][1]) < 1e-9
    # the one rotation taking the apex normal to +z and the first sample of
    # the unaligned patch into the +x half-plane
    unaligned = build_patch(mesh, (label, pos), cfg)
    n = apex_normal(mesh.vertices, mesh.faces, distance_field(mesh, pos, at=mesh.faces))
    u = unaligned[1] - (unaligned[1] @ n) * n
    u /= np.linalg.norm(u)
    expected = unaligned @ np.array([u, np.cross(n, u), n]).T
    assert np.abs(patch - expected).max() <= 1e-12 * np.abs(expected).max()
    rng = np.random.default_rng(8)
    t = RigidTransform.random(rng, max_translation=10.0)
    moved = apply_transform(mesh, t)
    patch_t = build_patch(moved, (label, t.apply(pos)), cfg,
                          reference_axis=t.rotation @ np.array([1.0, 0, 0]),
                          align="normal")
    # normal-aligned patches are pose independent
    assert np.abs(patch_t - patch).max() < 1e-6


def test_build_patch_propagates_context():
    mesh = make_grid_mesh(11, 11)
    cfg = PatchConfig(2.0, 30.0, 3, 8)
    with pytest.raises(CurveExtractionError, match="MYLM"):
        build_patch(mesh, ("MYLM", mesh.vertices[60]), cfg)


def test_extract_patches_flags_missing_instead_of_fabricating():
    mesh = make_grid_mesh(41, 41)  # boundary landmark cannot support lam=8
    from facespectra.mesh import LandmarkSet

    inner = mesh.vertices[20 * 41 + 20]
    edge = mesh.vertices[20 * 41 + 1]
    lmk = LandmarkSet(("GOOD", "BAD"), np.vstack([inner, edge]))
    cfg = PatchConfig(2.0, 8.0, 3, 10)
    patches, missing, errors = extract_patches(mesh, lmk, cfg)
    assert missing.tolist() == [False, True]
    assert "BAD" in errors
    assert np.all(patches[1] == 0.0)
    assert not np.all(patches[0] == 0.0)


def test_patch_archive_roundtrip(tmp_path):
    cfg = PatchConfig(2.0, 6.0, 3, 8)
    rng = np.random.default_rng(0)
    patches = rng.normal(size=(4, cfg.n_vertices, 3))
    labels = ["A", "B", "C", "D"]
    missing = np.array([False, True, False, False])
    save_patch_archive(tmp_path / "scan01", patches, labels, missing, cfg)
    arr, labels2, missing2, cfg2 = load_patch_archive(tmp_path / "scan01")
    assert np.array_equal(arr, patches)
    assert labels2 == labels
    assert np.array_equal(missing2, missing)
    assert cfg2 == cfg


@pytest.mark.parametrize("suffix", [".npy", ".json"])
def test_patch_archive_unreadable_file_named(tmp_path, suffix):
    cfg = PatchConfig(2.0, 6.0, 3, 8)
    save_patch_archive(tmp_path / "scan01", np.zeros((2, cfg.n_vertices, 3)), ["A", "B"],
                       [False, False], cfg)
    spoiled = tmp_path / f"scan01{suffix}"
    spoiled.write_bytes(spoiled.read_bytes()[:-40])     # truncated array, broken JSON
    with pytest.raises(ValueError) as exc:
        load_patch_archive(tmp_path / "scan01")
    assert str(exc.value).startswith(f"{spoiled}: ")


def test_patch_archive_shape_mismatch(tmp_path):
    cfg = PatchConfig(2.0, 6.0, 3, 8)
    with pytest.raises(ValueError, match="shape"):
        save_patch_archive(tmp_path / "bad", np.zeros((2, 5, 3)), ["A", "B"],
                           [False, False], cfg)


def random_height_field(rng, n=21, spacing=0.5):
    """n x n grid (0.5 spacing by default) under a random sum of four plane
    waves."""
    waves = rng.normal(scale=0.4, size=(4, 2))
    amps = rng.normal(scale=0.3, size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)

    def height(x, y):
        return sum(a * np.sin(w[0] * x + w[1] * y + p) for a, w, p in zip(amps, waves, phases))

    return make_grid_mesh(n, n, spacing=spacing, height=height)


def test_build_patch_ignores_unreferenced_vertex_at_landmark():
    mesh = make_grid_mesh(41, 41, spacing=0.25)
    apex = mesh.vertices[20 * 41 + 20] + [0.02, -0.03, 0.0]
    stray = TriangleMesh(np.vstack([mesh.vertices, apex]), mesh.faces)
    cfg = PatchConfig(1.0, 2.0, 2, 3)
    for align in ("none", "normal"):
        base = build_patch(mesh, ("C", apex), cfg, align=align)
        assert np.array_equal(build_patch(stray, ("C", apex), cfg, align=align), base)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_build_patch_invariant_under_reindexing(seed):
    """Vertex re-indexing, face re-ordering and cyclic corner rotation
    leave the patch unchanged on random height fields; surface beyond
    lambda_max and vertices no face uses leave it bit-identical."""
    rng = np.random.default_rng(seed)
    mesh = random_height_field(rng)
    pos = mesh.vertices[10 * 21 + 10] + rng.normal(scale=0.05, size=3)
    perm = rng.permutation(mesh.n_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    faces = perm[mesh.faces][rng.permutation(len(mesh.faces))]
    turn = (np.arange(3)[None, :] + rng.integers(0, 3, size=(len(faces), 1))) % 3
    shuffled = TriangleMesh(verts, np.take_along_axis(faces, turn, axis=1))
    cfg = PatchConfig(1.5, 4.0, 3, 8)
    # a translated copy of the whole mesh, and unreferenced vertices, all
    # farther than lambda_max from the landmark
    n = mesh.n_vertices
    far_copy = TriangleMesh(np.vstack([mesh.vertices, mesh.vertices + [30.0, 0.0, 0.0]]),
                            np.vstack([mesh.faces, mesh.faces + n]))
    u = rng.normal(size=(5, 3))
    away = pos + u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(4.5, 40.0, size=(5, 1))
    strays = TriangleMesh(np.vstack([far_copy.vertices, away]), far_copy.faces)
    for align in ("none", "normal"):
        base = build_patch(mesh, ("C", pos), cfg, align=align)
        assert np.abs(build_patch(shuffled, ("C", pos), cfg, align=align) - base).max() < 1e-9
        for extended in (far_copy, strays):
            assert np.array_equal(build_patch(extended, ("C", pos), cfg, align=align), base)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_build_patch_rigid_motion_on_random_height_fields(seed):
    """A rotation plus translation of mesh, landmark and reference axis
    rotates the unaligned patch and leaves the normal-aligned one as is."""
    rng = np.random.default_rng(seed)
    mesh = random_height_field(rng)
    pos = mesh.vertices[10 * 21 + 10] + rng.normal(scale=0.05, size=3)
    cfg = PatchConfig(1.5, 4.0, 3, 8)
    t = RigidTransform.random(rng, max_translation=50.0)
    moved = apply_transform(mesh, t)
    axis = t.rotation @ np.array([1.0, 0.0, 0.0])
    base = build_patch(mesh, ("C", pos), cfg)
    patch_t = build_patch(moved, ("C", t.apply(pos)), cfg, reference_axis=axis)
    assert np.abs(patch_t - base @ t.rotation.T).max() < 1e-9
    base = build_patch(mesh, ("C", pos), cfg, align="normal")
    patch_t = build_patch(moved, ("C", t.apply(pos)), cfg, reference_axis=axis, align="normal")
    assert np.abs(patch_t - base).max() < 1e-9



def _curves_outcome(level_curves, mesh, center, levels):
    """Normal and loops of a ``_level_curves``-like function as bytes, or
    the type and text of its error.  The loops come as ``(curves, counts)``,
    each loop's points after the loops before it, or from the reference
    tracer as an iterator."""
    try:
        normal, loops = level_curves(mesh, center, levels, "L")
        if isinstance(loops, tuple):
            curves, counts = loops
            loops = np.split(curves, np.cumsum(counts)[:-1])
        return [normal.tobytes()] + [loop.tobytes() for loop in loops]
    except CurveExtractionError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       radius=st.sampled_from((0.1, 0.75, 1.0, 1.5, 2.5, 4.0, 100.0)))
def test_neighbourhood_crop_equals_whole_mesh_crop(seed, radius):
    """The neighbourhood index returns the faces of the whole-mesh crop
    (smallest corner distance below the radius), in the same order, and the
    traced normal and loops, or the error text, are bit-identical: on height
    fields with shuffled vertices, unreferenced and non-finite vertices, for
    landmarks inside, outside the bounding box, on a grid-cell boundary,
    exactly the radius from a vertex, and with NaN or inf coordinates."""
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(3, 13, size=2)
    spacing = float(rng.choice([0.25, 0.5, 1.0]))
    grid = make_grid_mesh(nx, ny, spacing=spacing)
    # heights on a 1/64 grid keep sums of coordinates and radii exact
    verts = grid.vertices + np.column_stack(
        [np.zeros((grid.n_vertices, 2)), rng.integers(-64, 65, grid.n_vertices) / 64])
    perm = rng.permutation(grid.n_vertices)
    shuffled = np.empty_like(verts)
    shuffled[perm] = verts
    faces = perm[grid.faces]
    extra = rng.uniform(-2.0, 2.0 + spacing * max(nx, ny), size=(rng.integers(0, 6), 3))
    if rng.random() < 0.3:
        extra = np.vstack([extra, [[np.nan, 0.0, 0.0], [np.inf, 1.0, 1.0]]])
    if rng.random() < 0.3:
        shuffled[rng.integers(grid.n_vertices), 2] = rng.choice([np.nan, np.inf])
    mesh = TriangleMesh(np.vstack([shuffled, extra]), faces)
    finite = mesh.vertices[np.isfinite(mesh.vertices).all(axis=1)]
    lo, hi = finite.min(axis=0), finite.max(axis=0)
    inside = verts[rng.integers(grid.n_vertices)]
    centers = [
        inside + rng.normal(scale=0.3 * spacing, size=3),
        inside + [radius, 0.0, 0.0],
        lo - [0.0, 3.0 * radius, 0.0],
        hi + rng.uniform(0.0, 50.0, size=3),
        lo + radius * rng.integers(0, 4, size=3),
        np.array([np.nan, inside[1], inside[2]]),
        np.array([inside[0], -np.inf, inside[2]]),
    ]
    levels = np.linspace(radius / 3, radius, 3)
    index = Neighbourhood(mesh, radius)
    for center in centers:
        assert np.array_equal(index.faces_within(center),
                              whole_mesh_crop(mesh, center, radius)), center
        with np.errstate(invalid="ignore", over="ignore"):  # inf/NaN vertices
            assert (_curves_outcome(level_curves, mesh, center, levels)
                    == _curves_outcome(whole_mesh_level_curves, mesh, center, levels)), center


def test_non_finite_landmark_has_no_crossings():
    mesh = make_grid_mesh(11, 11)
    cfg = PatchConfig(1.0, 3.0, 2, 6)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(CurveExtractionError) as exc:
            build_patch(mesh, ("L", [5.0, bad, 0.0]), cfg)
        assert str(exc.value) == "iso-level 1.0 has no crossings (landmark 'L')"


def test_extract_patches_equal_on_whole_mesh_crop():
    """Patches, missing flags and errors of a synthetic scan, all landmarks
    traced together, are bit-identical to tracing each landmark alone on
    its whole-mesh crop."""
    mesh, lmk, _ = generate_scan(
        SynthConfig(subjects=1, seed=2, amplitude=1.2, subject_amplitude=3.5, jitter=0.4),
        0, "SU", 2)
    cfg = PatchConfig(5.0, 20.0, 6, 16)
    new = [extract_patches(mesh, lmk, cfg, align=a) for a in ("none", "normal")]
    old = [whole_mesh_extract_patches(mesh, lmk, cfg, align=a) for a in ("none", "normal")]
    for (p, m, e), (po, mo, eo) in zip(new, old):
        assert p.tobytes() == po.tobytes()
        assert np.array_equal(m, mo) and e == eo


def test_extract_patches_leaves_the_mesh_unchanged():
    """Tracing a scan keeps nothing on its mesh: the mesh pickles to the
    same bytes before and after, as its immutability promises workers."""
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, resolution=48, seed=3), 0, "SU", 2)
    before = pickle.dumps(mesh)
    extract_patches(mesh, lmk, PatchConfig(2.0, 6.0, 3, 8))
    assert pickle.dumps(mesh) == before


# ---------------------------------------------------------------------------
# The array pass against the per-level reference tracer

def _reindexed(mesh, rng, flip=0.3):
    """``mesh`` with its vertices renumbered, its faces shuffled, their
    corners rotated and about ``flip`` of them reversed."""
    perm = rng.permutation(mesh.n_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    faces = perm[mesh.faces][rng.permutation(mesh.n_faces)]
    turn = (np.arange(3)[None, :] + rng.integers(0, 3, size=(len(faces), 1))) % 3
    faces = np.take_along_axis(faces, turn, axis=1)
    flipped = rng.random(len(faces)) < flip
    faces[flipped] = faces[flipped][:, ::-1]
    return TriangleMesh(verts, faces)


def _patch_outcome(build, mesh, center, cfg, axis):
    """Both alignments of a ``build_patch``-like function as bytes, or the
    type and text of the error."""
    out = []
    for align in ("none", "normal"):
        try:
            out.append(build(mesh, ("L", center), cfg, reference_axis=axis,
                             align=align).tobytes())
        except CurveExtractionError as exc:
            out.append((type(exc), str(exc)))
    return out


def _assert_matches_reference(mesh, center, cfg, axis=(1.0, 0.0, 0.0)):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        traced = _curves_outcome(level_curves, mesh, center, cfg.levels())
        assert traced == _curves_outcome(reference_level_curves, mesh, center, cfg.levels())
        patch = _patch_outcome(build_patch, mesh, center, cfg, axis)
        assert patch == _patch_outcome(reference_build_patch, mesh, center, cfg, axis)
    return patch[0]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_array_pass_matches_reference_tracer(seed):
    """On random height fields, re-indexed with shuffled faces, rotated
    corners and about 30% of faces flipped, the loops and patches of the
    array pass are bit-identical to the per-level reference tracer's, or
    fail with the same error class and message: landmarks anywhere on the
    grid (open contours near the border), random reference axes, a
    non-finite vertex now and then, and flat grids whose levels cross edges
    exactly at vertices (duplicate crossing points)."""
    rng = np.random.default_rng(seed)
    # a grid vertex within 1.5 of the middle, or (one time in four) anywhere
    i, j = rng.integers(7, 14, size=2) if rng.random() < 0.75 else rng.integers(0, 21, size=2)
    if rng.random() < 0.3:
        mesh = make_grid_mesh(21, 21, spacing=0.5)
        center = mesh.vertices[21 * i + j]
        n_curves = int(rng.integers(2, 5))
        lam = 0.5 * rng.integers(1, 4)
        cfg = PatchConfig(lam, lam + 0.5 * rng.integers(1, 3) * (n_curves - 1), n_curves,
                          int(rng.integers(3, 25)))
    else:
        mesh = random_height_field(rng)
        center = mesh.vertices[21 * i + j] + rng.normal(scale=0.1, size=3)
        lam = rng.uniform(0.3, 2.0)
        cfg = PatchConfig(lam, lam + rng.uniform(0.5, 2.0), int(rng.integers(2, 7)),
                          int(rng.integers(3, 25)))
    mesh = _reindexed(mesh, rng)
    if rng.random() < 0.2:
        verts = mesh.vertices.copy()
        verts[rng.integers(mesh.n_vertices), rng.integers(3)] = rng.choice([np.nan, np.inf])
        mesh = TriangleMesh(verts, mesh.faces)
    axis = (1.0, 0.0, 0.0) if rng.random() < 0.5 else rng.normal(size=3)
    _assert_matches_reference(mesh, center, cfg, axis)


def _grid_at(nx, spacing, offset=(0.0, 0.0, 0.0), plane="xy"):
    """A flat ``nx`` x ``nx`` grid centred on ``offset``, in the xy plane or,
    with ``plane="yz"``, standing upright across the x axis."""
    grid = make_grid_mesh(nx, nx, spacing=spacing)
    u, v, _ = grid.vertices.T
    xyz = np.column_stack([u, v, np.zeros_like(u)] if plane == "xy" else
                          [np.zeros_like(u), u, v])
    return xyz + offset, grid.faces


def _union(*parts):
    verts, faces, n = [], [], 0
    for v, f in parts:
        verts.append(v)
        faces.append(f + n)
        n += len(v)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def _hand_built_cases():
    """``(name, mesh, landmark, cfg, expected error text or None)``."""
    grid = make_grid_mesh(11, 11)
    yield "open contour", grid, grid.vertices[0], PatchConfig(1.0, 3.0, 3, 8), "not closed"
    island = _grid_at(5, 1.0)
    wall = _grid_at(31, 1.0, offset=(30.0, 0.0, 0.0), plane="yz")
    yield ("non-enclosing component", _union(island, wall), np.zeros(3),
           PatchConfig(30.5, 31.0, 2, 8), "1 closed component(s), none encloses")
    # a closed ball beside the plane: one loop on each at every level, and
    # only the plane's winds around the landmark
    ball = make_uv_sphere(1.5, n_theta=12, n_phi=24)
    yield ("two loops, one encloses",
           _union(_grid_at(41, 0.5), (ball.vertices + [5.0, 0.0, 0.5], ball.faces)),
           np.zeros(3), PatchConfig(4.5, 6.0, 4, 12), None)
    # two parallel planes: both loops wind once around the landmark
    yield ("two loops, both enclose",
           _union(_grid_at(41, 0.5), _grid_at(41, 0.5, offset=(0.1, -0.2, 3.0))),
           np.array([0.05, 0.02, 0.0]), PatchConfig(3.5, 6.0, 3, 10), None)
    # a fin on the grid edge from (2, 0) to (2.5, 0): three faces share it,
    # so the crossing on it at level 2.2 has degree 3
    plane = _grid_at(21, 0.5)
    a, b = (int(np.flatnonzero(np.all(plane[0] == [x, 0.0, 0.0], axis=1))[0])
            for x in (2.0, 2.5))
    fin = (np.vstack([plane[0], [[2.25, 0.0, 1.0]]]),
           np.vstack([plane[1], [[a, b, len(plane[0])]]]))
    yield ("degree-3 crossing", _union(fin), np.zeros(3), PatchConfig(1.0, 2.2, 3, 8),
           "non-manifold")
    # a tetrahedron with two corners exactly on the last level, on opposite
    # sides of the landmark: its loop winds once through four crossings
    # that coincide in pairs
    tet = (np.array([[0.0, 0.3, 0.1], [0.0, -0.3, -0.1], [2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]),
           np.array([[0, 2, 3], [1, 3, 2], [0, 1, 2], [1, 0, 3]]))
    yield ("degenerate loop", _union(tet), np.zeros(3), PatchConfig(1.0, 2.0, 2, 6),
           "iso-level 2.0 degenerates to <3 points")
    # a lone triangle and its reversed copy: their two crossings make a
    # closed loop of two points
    tri = np.array([[0.0, 30.0, 0.0], [0.0, 31.0, 0.0], [1.0, 30.0, 0.0]])
    yield ("two-point loop", _union(island, wall, (tri, np.array([[0, 1, 2], [0, 2, 1]]))),
           np.zeros(3), PatchConfig(30.5, 31.0, 2, 8), "2 closed component(s), none encloses")


@pytest.mark.parametrize("case", list(_hand_built_cases()), ids=lambda c: c[0])
def test_array_pass_matches_reference_on_hand_built_meshes(case):
    """Open contours, a component that does not enclose the landmark, two
    loops at one level (one or both enclosing), a degree-3 crossing, a loop
    left with two points once duplicates go, and a two-point loop: the
    array pass matches the reference tracer on the mesh, where the case
    ends as named, and on re-indexed copies of it (whose flipped faces may
    change the apex normal)."""
    _, mesh, center, cfg, expected = case
    outcome = _assert_matches_reference(mesh, center, cfg)
    if expected is None:
        assert isinstance(outcome, bytes)
    else:
        assert expected in outcome[1]
    rng = np.random.default_rng(0)
    for _ in range(6):
        _assert_matches_reference(_reindexed(mesh, rng), center, cfg)


def test_equal_winding_loops_go_to_the_farthest_centroid():
    """Two parallel planes 3 apart: at every level both loops wind once
    around a landmark on the lower plane, so every ring comes from the
    upper plane, whose loop's centroid is farther, however the float
    winding sums of the two loops round.  Alone and among other landmarks
    alike."""
    mesh = _union(_grid_at(41, 0.5), _grid_at(41, 0.5, offset=(0.1, -0.2, 3.0)))
    center = np.array([0.05, 0.02, 0.0])
    cfg = PatchConfig(3.5, 6.0, 3, 10)
    alone = build_patch(mesh, ("L", center), cfg)
    assert np.allclose(alone[1:, 2], 3.0, rtol=0, atol=1e-12)
    others = np.array([[1.0, -0.5, 0.0], [0.3, 0.4, 3.0], [-0.8, 0.2, 0.0]])
    for centers in (center[None], np.vstack([others[:2], center, others[2:]])):
        labels = [f"L{i}" for i in range(len(centers))]
        got, missing, _ = extract_patches(mesh, LandmarkSet(labels, centers), cfg)
        i = int(np.flatnonzero(np.all(centers == center, axis=1))[0])
        assert not missing.any()
        assert got[i].tobytes() == alone.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_crossed_face_crosses_two_distinct_edges(data):
    """A face is crossed by a level when one corner distance lies below it
    and one does not, so each segment ``_crossed_edges`` gives joins two
    distinct edges of its face, each with one corner inside the level:
    random corner distances in [0, inf], levels often equal to one of
    them."""
    n_faces = data.draw(st.integers(1, 12))
    dist = st.floats(0.0, np.inf, allow_nan=False)
    fv = np.array(data.draw(st.lists(st.tuples(dist, dist, dist),
                                     min_size=n_faces, max_size=n_faces)))
    levels = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.0, 1e300), st.sampled_from(fv.ravel().tolist())),
        min_size=1, max_size=4)))
    faces = np.arange(3 * n_faces).reshape(n_faces, 3)   # corner ids tell the face
    n_mixed, row, lo, hi = patches_module._crossed_edges(
        faces, np.zeros(n_faces, dtype=np.int64), fv, levels, levels.size)
    inside = fv[:, :, None] < levels
    mixed = inside.any(axis=1) & ~inside.all(axis=1)
    assert n_mixed.tolist() == np.count_nonzero(mixed, axis=0).tolist()
    seg_face = lo[::2] // 3
    assert seg_face.tolist() == np.nonzero(mixed.T)[1].tolist()
    assert np.array_equal(row[::2], row[1::2])
    assert np.array_equal(lo // 3, np.repeat(seg_face, 2))
    assert np.array_equal(hi // 3, lo // 3) and (lo < hi).all()
    assert ((lo[::2] != lo[1::2]) | (hi[::2] != hi[1::2])).all()
    at_level = levels[row]
    assert ((fv.ravel()[lo] < at_level) != (fv.ravel()[hi] < at_level)).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_resample_matches_reference(seed):
    """``resample_uniform`` (the one-ring case of the batched resampler)
    is bit-identical to the reference on random closed polylines with
    repeated points (zero-length segments), or fails the same way."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=rng.uniform(0.1, 20.0), size=(int(rng.integers(1, 40)), 3))
    pts = pts[np.sort(rng.integers(0, len(pts), size=int(rng.integers(1, 2 * len(pts) + 1))))]
    m = int(rng.integers(1, 60))
    outcomes = []
    for resample in (resample_uniform, reference_resample_uniform):
        try:
            outcomes.append(resample(pts, m).tobytes())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Every landmark of a scan traced together

def _two_density_scan(rng):
    """A 0.5-spaced and a 0.25-spaced random height field, 40 apart and
    re-indexed as one mesh, so loops of one radius have about twice as
    many points on the fine part: ``(mesh, coarse grid, fine grid)``."""
    coarse, fine = random_height_field(rng), random_height_field(rng, n=41, spacing=0.25)
    fine = TriangleMesh(fine.vertices + [40.0, 0.0, 0.0], fine.faces)
    parts = [(m.vertices, m.faces) for m in (coarse, fine)]
    return _reindexed(_union(*parts), rng), coarse, fine


def _batch_landmarks(rng, coarse, fine):
    """Landmarks of both densities: near the middle, anywhere (open
    contours near the border), lifted off the surface, or with a NaN or
    infinite coordinate."""
    centers = []
    for _ in range(int(rng.integers(2, 7))):
        grid = coarse if rng.random() < 0.5 else fine
        side = int(round(np.sqrt(grid.n_vertices)))
        kind = rng.random()
        if kind < 0.55:
            i, j = rng.integers(side // 3, side - side // 3, size=2)
        else:
            i, j = rng.integers(0, side, size=2)
        center = grid.vertices[side * i + j] + rng.normal(scale=0.05, size=3)
        if 0.8 <= kind < 0.9:
            center[2] += rng.uniform(0.5, 50.0)
        elif kind >= 0.9:
            center[rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
        centers.append(center)
    return [f"L{i}" for i in range(len(centers))], np.array(centers)


def _outcome(patch, error):
    return patch.tobytes() if error is None else (type(error), str(error))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_patches_match_reference_per_landmark(seed):
    """All landmarks of a mesh traced in one batch give, landmark by
    landmark, the bytes of the per-level reference tracer run on that
    landmark alone, or its error class and text, and a failed landmark's
    patch is zero: re-indexed height fields of two densities (so a batch's
    padded loop width differs from a lone landmark's), random reference
    axes, both alignments, landmarks near the border, off the surface or
    with NaN or infinite coordinates, and a non-finite vertex now and
    then.  ``extract_patches`` flags and names the same failures."""
    rng = np.random.default_rng(seed)
    mesh, coarse, fine = _two_density_scan(rng)
    if rng.random() < 0.2:
        verts = mesh.vertices.copy()
        verts[rng.integers(mesh.n_vertices), rng.integers(3)] = rng.choice([np.nan, np.inf])
        mesh = TriangleMesh(verts, mesh.faces)
    labels, centers = _batch_landmarks(rng, coarse, fine)
    lam = rng.uniform(0.3, 1.5)
    cfg = PatchConfig(lam, lam + rng.uniform(0.5, 2.0), int(rng.integers(2, 6)),
                      int(rng.integers(3, 25)))
    axis = (1.0, 0.0, 0.0) if rng.random() < 0.5 else rng.normal(size=3)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for align in ("none", "normal"):
            got, errors = patches_module._patches(mesh, labels, centers, cfg, axis, align)
            for label, center, patch, error in zip(labels, centers, got, errors):
                try:
                    want = reference_build_patch(mesh, (label, center), cfg,
                                                 reference_axis=axis, align=align).tobytes()
                except CurveExtractionError as exc:
                    want = (type(exc), str(exc))
                assert _outcome(patch, error) == want, label
                assert error is None or not patch.any()
            patches, missing, named = extract_patches(mesh, LandmarkSet(labels, centers), cfg,
                                                      align=align)
            default, default_errors = patches_module._patches(mesh, labels, centers, cfg,
                                                              align=align)
            assert patches.tobytes() == default.tobytes()
            assert missing.tolist() == [e is not None for e in default_errors]
            assert named == {label: str(e) for label, e in zip(labels, default_errors)
                             if e is not None}


def test_landmark_groups_split_without_changing_patches():
    """Landmarks whose edge keys would not fit the key limit, or whose
    crops exceed the batch size, run in consecutive groups of the same
    path; the patches and errors come out byte-identical to one batch.  A
    landmark over a bound on its own runs alone."""
    def groups(face_counts, *args, **kwargs):
        near = [np.arange(n) for n in face_counts]
        return [[ids.size for ids in group]
                for group in patches_module._landmark_groups(near, *args, **kwargs)]

    assert groups([2840] * 68, 15, 28_960, cells=1 << 30) == [[2840] * 68]
    assert groups([10] * 7, 4, 1000, key_limit=3 * 4 * 1000 ** 2) == [[10] * 3, [10] * 3, [10]]
    assert groups([10] * 3, 4, 1000, key_limit=1) == [[10], [10], [10]]
    assert groups([5, 5, 10, 1, 30], 2, 1000, cells=20) == [[5, 5], [10], [1], [30]]
    rng = np.random.default_rng(11)
    mesh, coarse, fine = _two_density_scan(rng)
    labels = [f"L{i}" for i in range(7)]
    centers = np.array([coarse.vertices[21 * 10 + 10], fine.vertices[41 * 20 + 20],
                        coarse.vertices[0], fine.vertices[41 * 15 + 25] + [0.0, 0.0, 30.0],
                        fine.vertices[41 * 25 + 18], [np.nan, 0.0, 0.0],
                        coarse.vertices[21 * 8 + 12]])
    cfg = PatchConfig(0.6, 2.4, 4, 10)
    n, k = mesh.n_vertices, cfg.n_curves
    with np.errstate(invalid="ignore"):
        for align in ("none", "normal"):
            one, one_errors = patches_module._patches(mesh, labels, centers, cfg, align=align)
            assert [e is None for e in one_errors] == [True, True, False, False, True, False,
                                                       True]
            for limit in (3 * k * n * n, 1):
                grouped, errors = patches_module._patches(mesh, labels, centers, cfg,
                                                          align=align, key_limit=limit)
                assert grouped.tobytes() == one.tobytes()
                assert [(type(e), str(e)) for e in errors] == [(type(e), str(e))
                                                               for e in one_errors]
