"""Transfer-matrix machinery for sofic chains.

`_transfer_matrices` builds every per-letter matrix, the estimator's too:
`build_count_matrices` maps each level-2 label to its count matrix, a numpy
array of edge multiplicities; `detect_alignment` takes any such dict of
nonnegative arrays, int or float.  When all nonzero matrices share one
strictly positive eigenvector, per-symbol growth rates replace word counts.
`aligned_table` hands them to the one contraction, `sponge.closed_form`,
and the weighted entropy collapses to a nested finite sum over the
projected alphabets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAligned
from .symbolic import Digit, LabeledGraph, SoficChain, validate_digit_system

POWER_TOL = 1e-13
POWER_MAX_ITERS = 100_000
VERIFY_TOL = 1e-10
MIN_POSITIVE = 1e-9
BASIC_TOL = 1e-9  # a class radius this close to the largest, relatively, is basic


@dataclass(frozen=True)
class SpectralAlignment:
    """Common positive eigenvector (max entry 1) and one eigenvalue per nonzero label."""

    vector: tuple[float, ...]
    eigenvalues: dict

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", dict(self.eigenvalues))


def _transfer_matrices(transitions, size: int, letters, dtype) -> dict:
    """{letter: size x size array}, entry (t, s) adding the weights of the
    (s, t, letter, weight) transitions in list order; zeros for idle letters."""
    mats = {letter: np.zeros((size, size), dtype=dtype) for letter in letters}
    with np.errstate(over="ignore"):  # callers report an infinite weight themselves
        for s, t, letter, w in transitions:
            mats[letter][t, s] += w
    return mats


def _classes(m: np.ndarray) -> list[tuple[list[int], bool]]:
    """Strong components of the graph i -> j where m[i, j] > 0, by least
    index, each with whether it is final (reaches no other component)."""
    reach = (m > 0) | np.eye(len(m), dtype=bool)
    while not ((closed := reach @ reach) == reach).all():  # transitive closure by squaring
        reach = closed
    mutual = reach & reach.T
    leaders = np.flatnonzero(mutual.argmax(axis=1) == np.arange(len(m)))  # least index of each class
    return [(np.flatnonzero(mutual[i]).tolist(), bool((reach[i] == mutual[i]).all())) for i in leaders]


def _basic_classes_are_final(m: np.ndarray) -> bool:
    """Whether m's basic classes (radius within BASIC_TOL of the largest) are
    its final classes; one class passes without eigenvalue work."""
    classes = _classes(m)
    if len(classes) == 1:
        return True
    radii = [abs(np.linalg.eigvals(m[np.ix_(c, c)])).max() for c, _final in classes]
    top = max(radii)
    return all((top - r <= BASIC_TOL * top) == final for r, (_c, final) in zip(radii, classes))


def build_count_matrices(g: LabeledGraph) -> dict[Digit, np.ndarray]:
    """Level-2 count matrices: {length-(r-1) label: int64 |V| x |V| array}.

    Entry (i, j) counts the edges j -> i whose label projects to the key.
    Keys are the system's length-(r-1) prefixes in sorted order; prefixes
    that no edge carries get zero matrices.  Graphs parsed from a config
    build their digit set from the edge labels, so they get no zero matrices.
    """
    keep = g.system.rank - 1
    order = {v: i for i, v in enumerate(g.vertices)}
    transitions = ((order[s], order[t], tuple(lab)[:keep], 1) for s, t, lab in g.edges)
    return _transfer_matrices(transitions, len(order), g.system.prefixes(keep), np.int64)


def _power_iterate(matrix: np.ndarray):
    """Power iteration from the all-ones vector, each iterate scaled to max 1.

    Returns (vector, converged, iterations); the vector is None once an
    iterate vanishes.  Each iterate is also compared with a checkpoint moved
    at powers of two (Brent's cycle detection): an exact repeat means the
    iterates cycle through values already tested, so the iteration stops as
    not converged, as all POWER_MAX_ITERS iterations would.
    """
    # all ones, not 1/n: an integer matrix with equal row sums then maps it
    # to an exact multiple of itself, so its Perron vector is exactly all ones
    v = np.ones(matrix.shape[0])
    checkpoint, next_move = v.tobytes(), 1  # equal bytes imply an equal iterate
    for k in range(1, POWER_MAX_ITERS + 1):
        w = matrix @ v
        norm = w.max()
        if norm <= 0:
            return None, False, k
        w = w / norm
        if np.abs(w - v).max() <= POWER_TOL:
            return w, True, k
        state = w.tobytes()
        if state == checkpoint:
            return w, False, k
        if k == next_move:
            checkpoint, next_move = state, 2 * next_move
        v = w
    return v, False, POWER_MAX_ITERS


def detect_alignment(matrices: dict) -> SpectralAlignment | None:
    """Common positive eigenvector of all nonzero matrices, or None.

    `matrices` maps labels to nonnegative square arrays, int or float.  The
    summed matrix M has a positive eigenvector only if its basic classes
    (those of the largest spectral radius) are exactly its final classes
    (Berman and Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    ch. 2), so any other M is not aligned at once.  Otherwise the candidate
    is the Perron vector of M found by power iteration; each nonzero matrix
    is then verified against it.  Iteration oscillates on periodic matrices,
    so when it does not converge it is rerun on I + M, which has the same
    eigenvectors.  Failure to converge to a strictly positive vector, or a
    non-finite entry, means not aligned, never an error.
    """
    nonzero = {
        label: np.asarray(m, dtype=float) for label, m in matrices.items() if np.any(m)
    }
    if not nonzero:
        return None
    total = sum(nonzero.values())
    if not (np.isfinite(total).all() and _basic_classes_are_final(total)):
        return None
    v, converged, _ = _power_iterate(total)
    if v is not None and not converged:
        v, converged, _ = _power_iterate(total + np.eye(len(total)))
    if not converged:
        return None
    if v.min() < MIN_POSITIVE * v.max():
        return None
    eigenvalues = {}
    for label, arr in nonzero.items():
        image = arr @ v
        lam = float(np.dot(image, v) / np.dot(v, v))
        if lam <= 0:
            return None
        if np.abs(image - lam * v).max() > VERIFY_TOL * np.abs(lam * v).max():
            return None
        eigenvalues[label] = lam
    return SpectralAlignment(vector=tuple(float(x) for x in v), eigenvalues=eigenvalues)


def aligned_table(chain: SoficChain) -> dict:
    """Eigenvalue of each level-2 count matrix, keyed by its length-(r-1) label.

    In the contraction (`sponge.closed_form`) these per-symbol growth rates
    replace a sponge's digit counts.  Valid when the count matrices align,
    which makes every level above the bottom a full shift over its projected
    alphabet: with M_k v = lambda_k v and v > 0, every vertex has an
    incoming edge of every level-2 label, so each level-2 word reads
    backwards from any vertex along some path.
    """
    alignment = detect_alignment(build_count_matrices(chain.graph))
    if alignment is None:
        raise NotAligned("count matrices share no positive eigenvector")
    return alignment.eigenvalues


def golden_mean_chain() -> SoficChain:
    """Three-vertex chain over bases (2, 3, 4) with golden-ratio growth.

    The count matrices of the labels (0, 0), (0, 1), (1, 0) are pinned to A,
    A^2, A^3 (A has Perron value the golden ratio); the other three prefixes
    of the full 2 x 3 x 4 digit set get zero matrices, which the config
    golden_sofic.json, whose digit set is its labels, does not.
    Third coordinates of the labels are a frozen choice maximizing the word
    count of the presentation subject to those matrices.

    The matrices force out-degree 5 in one projection class at two vertices,
    while only 4 distinct third coordinates exist, so any faithful
    presentation has two same-source label collisions; here both sit on the
    label (1, 0, 3).  check_right_resolving therefore reports this graph.
    """
    system = validate_digit_system(
        (2, 3, 4),
        [(i, j, k) for i in range(2) for j in range(3) for k in range(4)],
    )
    edges = [
        # projected label (0, 0): matrix [[0,1,1],[0,0,1],[1,1,0]]
        ("1", "3", (0, 0, 0)),
        ("2", "1", (0, 0, 1)),
        ("2", "3", (0, 0, 2)),
        ("3", "1", (0, 0, 3)),
        ("3", "2", (0, 0, 0)),
        # projected label (0, 1): matrix [[1,1,1],[1,1,0],[0,1,2]]
        ("1", "1", (0, 1, 0)),
        ("1", "2", (0, 1, 1)),
        ("2", "1", (0, 1, 0)),
        ("2", "2", (0, 1, 1)),
        ("2", "3", (0, 1, 2)),
        ("3", "1", (0, 1, 0)),
        ("3", "3", (0, 1, 2)),
        ("3", "3", (0, 1, 3)),
        # projected label (1, 0): matrix [[1,2,2],[0,1,2],[2,2,1]]
        ("1", "1", (1, 0, 0)),
        ("2", "3", (1, 0, 0)),
        ("3", "2", (1, 0, 0)),
        ("1", "3", (1, 0, 1)),
        ("2", "1", (1, 0, 1)),
        ("3", "2", (1, 0, 1)),
        ("1", "3", (1, 0, 2)),
        ("2", "2", (1, 0, 2)),
        ("3", "1", (1, 0, 2)),
        ("2", "1", (1, 0, 3)),
        ("2", "3", (1, 0, 3)),
        ("3", "1", (1, 0, 3)),
        ("3", "3", (1, 0, 3)),
    ]
    return SoficChain(LabeledGraph(vertices=("1", "2", "3"), edges=tuple(edges), system=system))
