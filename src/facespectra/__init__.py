"""Local spectral shape descriptors for landmark-annotated 3D facial meshes.

The pipeline: extract concentric level curves around each landmark,
resample them into canonical fixed-topology patches, describe patches
either by projections onto the shared graph-Laplacian eigenbasis or by
per-patch Shape-DNA eigenvalue signatures, and evaluate expression and
Action-Unit classifiers under identity-disjoint cross-validation.
"""

__version__ = "0.1.0"

from .mesh import (
    LandmarkSet,
    MeshFormatError,
    MeshStructureError,
    TriangleMesh,
    distance_field,
    load_landmarks,
    load_mesh,
    save_landmarks,
    save_obj,
)
from .patches import (
    CurveAmbiguityError,
    CurveExtractionError,
    PatchConfig,
    build_patch,
    canonical_connectivity,
    extract_patches,
    load_patch_archive,
    resample_uniform,
    save_patch_archive,
)
from .spectral import (
    DegenerateGeometryError,
    EigenConvergenceError,
    SpectralBasis,
    cotan_stiffness,
    eig_sym,
    graph_laplacian,
    load_basis,
    save_basis,
    shape_dna,
    symmetrize,
    voronoi_mass,
)
from .features import (
    FeatureTable,
    glf_norms,
    glf_project,
    load_feature_table,
    save_feature_csv,
    save_feature_table,
)
from .classify import (
    AU_SET,
    EXPRESSIONS,
    ConvergenceError,
    FLDAModel,
    SVMModel,
    flda_predict,
    flda_train,
    identity_disjoint_folds,
    svm_predict,
    svm_train_binary,
)
from .experiments import (
    ClassifierConfig,
    ConfusionMatrix,
    build_report,
    compare_methods,
    eigen_sweep,
    evaluate_aus,
    evaluate_expressions,
    save_report,
    validate_report,
)
from .data import DatasetManifest, ManifestError, ManifestRecord, load_manifest, save_manifest
from .pipeline import compute_basis, compute_feature_tables
from .synth import SynthConfig, generate_scan, synth_generate
