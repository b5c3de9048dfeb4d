import re
from dataclasses import replace

import numpy as np
import pytest

from facespectra.data import (
    ManifestError,
    ManifestRecord,
    load_manifest,
    save_manifest,
    scan_corpus_dir,
)
from facespectra.mesh import load_landmarks, load_mesh, save_landmarks, save_obj
from facespectra.patches import PatchConfig, extract_patches
from facespectra.spectral import shape_dna
from facespectra.synth import (
    AU_FIELDS,
    EXPRESSION_AUS,
    LANDMARK_LAYOUT,
    SynthConfig,
    generate_scan,
    synth_generate,
)
from facespectra.classify import AU_SET, EXPRESSIONS

from facespectra.patches import canonical_connectivity


# ---------------------------------------------------------------------------
# manifest

def test_empty_manifest_loads_empty(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("subject,expression,intensity,mesh,landmarks,aus\n")
    manifest = load_manifest(p)
    assert len(manifest) == 0


def test_unknown_expression_token_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("subject,expression,intensity,mesh,landmarks,aus\n"
                 "S1,JOY,1,a.obj,a.csv,\n")
    with pytest.raises(ManifestError, match="JOY"):
        load_manifest(p, check_paths=False)


def test_full_grid_manifest_row_count(tmp_path):
    rows = ["subject,expression,intensity,mesh,landmarks,aus"]
    for s in range(100):
        for e in EXPRESSIONS:
            for lvl in (3, 4):
                rows.append(f"S{s:03d},{e},{lvl},m.obj,l.csv,1+2")
    p = tmp_path / "m.csv"
    p.write_text("\n".join(rows) + "\n")
    manifest = load_manifest(p, check_paths=False)
    assert len(manifest) == 1200
    assert len({r.subject for r in manifest.records}) == 100


def test_duplicate_record_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("subject,expression,intensity,mesh,landmarks,aus\n"
                 "S1,AN,1,a.obj,a.csv,\nS1,AN,1,b.obj,b.csv,\n")
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(p, check_paths=False)


def test_missing_manifest_file():
    with pytest.raises(FileNotFoundError):
        load_manifest("/nonexistent/m.csv")


def test_missing_referenced_files_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("subject,expression,intensity,mesh,landmarks,aus\n"
                 "S1,AN,1,a.obj,a.csv,\n")
    with pytest.raises(ManifestError, match="missing"):
        load_manifest(p)


def test_malformed_au_list_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("subject,expression,intensity,mesh,landmarks,aus\n"
                 "S1,AN,1,a.obj,a.csv,1+x\n")
    with pytest.raises(ManifestError, match="AU"):
        load_manifest(p, check_paths=False)


def test_manifest_roundtrip_relative_paths(tmp_path):
    (tmp_path / "meshes").mkdir()
    (tmp_path / "meshes" / "a.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    (tmp_path / "a.csv").write_text("label,x,y,z\nP,0,0,0\n")
    rec = ManifestRecord("S1", "HA", 2, tmp_path / "meshes" / "a.obj",
                         tmp_path / "a.csv", (12, 25))
    save_manifest(tmp_path / "m.csv", [rec])
    text = (tmp_path / "m.csv").read_text()
    assert "meshes/a.obj" in text and "12+25" in text
    back = load_manifest(tmp_path / "m.csv")
    assert back.records[0].aus == (12, 25)
    assert back.records[0].mesh_path.exists()


# ---------------------------------------------------------------------------
# corpus adapter

def test_corpus_dir_adapter(tmp_path):
    tri = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    lmk = "label,x,y,z\nP,0,0,0\n"
    for name in ("F0001_AN03_RAW", "F0001_AN04_RAW", "M0042_SU04_RAW"):
        (tmp_path / f"{name}.obj").write_text(tri)
        (tmp_path / f"{name}.lmk.csv").write_text(lmk)
    (tmp_path / "notes.txt").write_text("ignored")
    manifest = scan_corpus_dir(tmp_path)
    assert len(manifest) == 3
    subjects = {r.subject for r in manifest.records}
    assert subjects == {"F0001", "M0042"}
    high = scan_corpus_dir(tmp_path, levels=(4,))
    assert len(high) == 2
    assert all(r.intensity == 4 for r in high.records)


def test_corpus_dir_refuses_two_meshes_of_one_scan(tmp_path):
    """A second mesh of one (subject, expression, level), of another
    suffix or stem, is refused with both paths named, in subdirectories
    too, before any landmark file is looked for."""
    tri = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    for first, second in (("F0001_AN03.obj", "F0001_AN03.ply"),
                          ("F0001_AN03.obj", "F0001_AN03_x.obj"),
                          ("F0001_AN03_RAW.obj", "sub/F0001_AN03_F3D.obj")):
        root = tmp_path / second.replace("/", "_")
        for name in (first, second):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(tri)
        with pytest.raises(ManifestError) as exc:
            scan_corpus_dir(root)
        assert str(root / first) in str(exc.value) and str(root / second) in str(exc.value)
        assert "('F0001', 'AN', 3)" in str(exc.value)
        # another level or subject of the same expression is no clash
        (root / second).rename(root / second.replace("F0001_AN03", "F0001_AN04"))
        for name in (first, second.replace("F0001_AN03", "F0001_AN04")):
            (root / name).with_suffix(".lmk.csv").write_text("label,x,y,z\nP,0,0,0\n")
        assert len(scan_corpus_dir(root)) == 2


def test_corpus_dir_missing_landmarks(tmp_path):
    (tmp_path / "F0001_AN03.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ManifestError, match="landmark"):
        scan_corpus_dir(tmp_path)


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_counts_and_determinism(tmp_path):
    cfg = SynthConfig(subjects=10, resolution=24, seed=7)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    m1 = synth_generate(cfg, out1)
    m2 = synth_generate(cfg, out2)
    manifest = load_manifest(m1)
    assert len(manifest) == 120  # 10 subjects x 6 expressions x 2 levels
    scan = "S003_FE_2"
    b1 = (out1 / "meshes" / f"{scan}.obj").read_bytes()
    b2 = (out2 / "meshes" / f"{scan}.obj").read_bytes()
    assert b1 == b2
    assert (out1 / "manifest.csv").read_bytes() == (out2 / "manifest.csv").read_bytes()


@pytest.mark.parametrize("resolution", [24, 48])
@pytest.mark.parametrize("settings", [{}, {"amplitude": 1.2, "subject_amplitude": 3.5,
                                          "jitter": 0.4}], ids=["default", "acceptance"])
def test_synth_meshes_are_the_bytes_of_save_obj(tmp_path, resolution, settings):
    """The face block written once per corpus and the neutral heights built
    once per subject give every scan the files of its own ``generate_scan``."""
    cfg = SynthConfig(subjects=2, resolution=resolution, seed=5, **settings)
    manifest = load_manifest(synth_generate(cfg, tmp_path / "corpus"))
    assert len(manifest) == 24
    for r in manifest.records:
        mesh, lmk, _ = generate_scan(cfg, int(r.subject[1:]), r.expression, r.intensity)
        save_obj(tmp_path / "one.obj", mesh)
        save_landmarks(tmp_path / "one.csv", lmk)
        assert r.mesh_path.read_bytes() == (tmp_path / "one.obj").read_bytes(), r.mesh_path
        assert (r.landmarks_path.read_bytes() == (tmp_path / "one.csv").read_bytes()
                ), r.landmarks_path


def test_synth_layout_has_68_unique_landmarks():
    labels = [p[0] for p in LANDMARK_LAYOUT]
    assert len(labels) == 68
    assert len(set(labels)) == 68


def test_expression_au_wiring_covers_table():
    used = set()
    for e, aus in EXPRESSION_AUS.items():
        assert e in EXPRESSIONS
        used.update(aus)
    assert used == set(AU_SET)
    assert set(AU_FIELDS) == set(AU_SET)
    # overlap structure: fear/surprise and anger/sadness share fields
    assert set(EXPRESSION_AUS["FE"]) & set(EXPRESSION_AUS["SU"])
    assert set(EXPRESSION_AUS["AN"]) & set(EXPRESSION_AUS["SA"])


def test_intensity_levels_scale_deformation_linearly():
    cfg = SynthConfig(subjects=1, resolution=24, seed=3)
    neutral, _, _ = generate_scan(cfg, 0, None)
    l1, _, _ = generate_scan(cfg, 0, "HA", 1)
    l2, _, _ = generate_scan(cfg, 0, "HA", 2)
    d1 = l1.vertices[:, 2] - neutral.vertices[:, 2]
    d2 = l2.vertices[:, 2] - neutral.vertices[:, 2]
    assert np.abs(d2 - 2.0 * d1).max() < 1e-9
    assert np.abs(d1).max() > 1.0  # the level-1 bumps are real


def test_jittered_neutral_scan_has_its_own_seed():
    """The neutral scan draws vertex noise from a valid seed of its own: it
    repeats, and differs from the noise-free scan and from the level-0 scan
    of every expression."""
    cfg = SynthConfig(subjects=1, resolution=24, seed=3, jitter=0.3)
    noisy, _, _ = generate_scan(cfg, 0, None)
    again, _, _ = generate_scan(cfg, 0, None)
    plain, _, _ = generate_scan(replace(cfg, jitter=0.0), 0, None)
    assert np.array_equal(noisy.vertices, again.vertices)
    assert not np.array_equal(noisy.vertices, plain.vertices)
    assert np.array_equal(noisy.faces, plain.faces)
    for expr in EXPRESSIONS:
        level0, _, _ = generate_scan(cfg, 0, expr, 0)
        assert not np.array_equal(noisy.vertices, level0.vertices), expr


def test_au_labels_follow_active_fields():
    cfg = SynthConfig(subjects=2, resolution=24, seed=1)
    for expr in EXPRESSIONS:
        _, _, aus = generate_scan(cfg, 1, expr, 2)
        assert aus == tuple(sorted(EXPRESSION_AUS[expr]))


def test_landmarks_lie_on_generated_surface():
    cfg = SynthConfig(subjects=1, resolution=48, seed=5)
    mesh, lmk, _ = generate_scan(cfg, 0, "DI", 2)
    # nearest vertex distance stays below a grid cell diagonal
    for p in lmk.positions[::7]:
        d = np.linalg.norm(mesh.vertices - p, axis=1)
        assert d.min() < 4.0


def test_generated_mesh_supports_default_patch_config():
    cfg = SynthConfig(subjects=1, resolution=64, seed=2)
    mesh, lmk, _ = generate_scan(cfg, 0, "SU", 2)
    patches, missing, errors = extract_patches(mesh, lmk, PatchConfig())
    assert not missing.any(), errors
    assert patches.shape == (68, 751, 3)


def test_shape_dna_locality_of_deformation():
    cfg = SynthConfig(subjects=1, resolution=64, seed=6)
    neutral, lmk_n, _ = generate_scan(cfg, 0, None)
    deformed, lmk_d, _ = generate_scan(cfg, 0, "DI", 2)
    pc = PatchConfig(4.0, 8.0, 3, 12)
    faces = canonical_connectivity(pc)
    from facespectra.patches import build_patch

    near, far = "NOSE_1", "LBROW_0"   # AU9 bump sits on NOSE_1; LBROW_0 is remote
    for label, threshold, expect_change in ((near, 1e-3, True), (far, 1e-6, False)):
        i = lmk_n.labels.index(label)
        p_n = build_patch(neutral, (label, lmk_n.positions[i]), pc)
        p_d = build_patch(deformed, (label, lmk_d.positions[i]), pc)
        w_n = shape_dna(p_n, faces, 10)
        w_d = shape_dna(p_d, faces, 10)
        rel = np.abs(w_d - w_n).max() / np.abs(w_n).max()
        if expect_change:
            assert rel > threshold
        else:
            assert rel < threshold


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(subjects=0)
    with pytest.raises(ValueError):
        SynthConfig(amplitude=-1.0)
    with pytest.raises(ValueError):
        SynthConfig(resolution=10)
    with pytest.raises(ValueError):
        SynthConfig(expressions=("AN", "XX"))


@pytest.mark.parametrize("settings, named", [
    ({"levels": (1, 1)}, "levels (1, 1) repeat an entry"),
    ({"expressions": ("HA", "SU", "HA")}, "expressions ('HA', 'SU', 'HA') repeat an entry"),
    ({"levels": (2.5,)}, "positive integers, got (2.5,)"),
    ({"levels": (1, 0)}, "positive integers, got (1, 0)"),
], ids=["repeated-level", "repeated-expression", "fractional-level", "zero-level"])
def test_synth_config_rejects_repeats_and_fractional_levels(settings, named):
    """Every config that passes writes a corpus its own manifest reader
    accepts: a repeated expression or level would write one scan id twice,
    and a fractional level would be written as its integer part."""
    with pytest.raises(ValueError, match=re.escape(named)):
        SynthConfig(**settings)


def test_synth_dataset_is_loadable(tiny_dataset_dir, tiny_manifest):
    assert len(tiny_manifest) == 36
    rec = tiny_manifest.records[0]
    mesh = load_mesh(rec.mesh_path)
    lmk = load_landmarks(rec.landmarks_path)
    assert mesh.n_vertices > 1000
    assert len(lmk) == 68
