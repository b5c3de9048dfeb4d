"""Local spectral shape descriptors for landmark-annotated 3D facial meshes.

The pipeline: extract concentric level curves around each landmark,
resample them into canonical fixed-topology patches, describe patches
either by projections onto the shared graph-Laplacian eigenbasis or by
per-patch Shape-DNA eigenvalue signatures, and evaluate expression and
Action-Unit classifiers under identity-disjoint cross-validation.  Each
name is imported from the module that defines it (``facespectra.mesh``,
``facespectra.patches``, ``facespectra.pipeline``, ...).
"""

__version__ = "0.1.0"
