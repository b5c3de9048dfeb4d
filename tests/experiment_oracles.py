"""Test oracle for the chance control of the expression experiment: a
label permutation that respects the identity-disjoint design."""

import numpy as np


def shuffle_within_subjects(labels, subjects, seed: int):
    """Permutation null for identity-disjoint designs: shuffle each
    subject's labels among that subject's own samples.

    A global permutation leaves subject-level label imbalances that,
    combined with per-subject prediction correlation, give the chance
    control a subject-count-limited variance; permuting within subjects
    preserves each subject's label multiset, so the control concentrates
    at the true chance level.
    """
    labels = np.asarray(list(labels), dtype=object)
    subjects = np.asarray([str(s) for s in subjects])
    out = labels.copy()
    rng = np.random.default_rng(seed)
    for s in sorted(set(subjects.tolist())):
        idx = np.nonzero(subjects == s)[0]
        out[idx] = labels[idx][rng.permutation(idx.size)]
    return out.tolist()
