"""Transfer-matrix machinery for sofic chains.

`_transfer_matrices` builds every per-letter matrix, the enumerator's too:
`build_count_matrices` maps each level-2 label to its count matrix, a numpy
array of edge multiplicities; `detect_alignment` takes any such dict of
nonnegative arrays, int or float, and reads their common eigenvector off
the Frobenius classes of their sum by direct linear algebra.  When all
nonzero matrices share one strictly positive eigenvector, per-symbol growth
rates replace word counts.
`aligned_table` hands them to the one contraction, `sponge.closed_form`,
and the weighted entropy collapses to a nested finite sum over the
projected alphabets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAligned
from .symbolic import Digit, LabeledGraph, SoficChain, validate_digit_system

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


def _verified(nonzero: dict, v: np.ndarray) -> SpectralAlignment | None:
    """The alignment on v, scaled to max 1, if v is strictly positive and
    every nonzero matrix maps it to a positive multiple of itself."""
    if not v.max() > 0 or v.min() < MIN_POSITIVE * v.max():
        return None
    v = v / v.max()
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


def detect_alignment(matrices: dict) -> SpectralAlignment | None:
    """Common positive eigenvector of all nonzero matrices, or None.

    `matrices` maps labels to nonnegative square arrays, int or float.  When
    the summed matrix M has equal row sums, the all-ones vector is tried
    first, so it comes out exact.  Otherwise M needs a positive eigenvector,
    which exists only if its basic classes (those of the largest spectral
    radius) are exactly its final classes (Berman and Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, ch. 2); any other M is not
    aligned at once.  M's Perron eigenspace then has one nonnegative basis
    vector per final class (Rothblum, Linear Algebra Appl. 1975): the
    class's Perron vector from `eig`, extended to the transient states T by
    (rho I - M_TT) v_T = M_TF v_F.  The common eigenvector mixes them with
    scales c in the null space of every label's transient rows of
    M_k - lambda_k I, lambda_k read off the first final block; c projects
    the all-ones vector onto it.  The mix is verified against each nonzero
    matrix: no strictly positive mix, or a non-finite entry, means not
    aligned, never an error.
    """
    nonzero = {
        label: np.asarray(m, dtype=float) for label, m in matrices.items() if np.any(m)
    }
    if not nonzero:
        return None
    total = sum(nonzero.values())
    if not np.isfinite(total).all():
        return None
    sums = total.sum(axis=1)
    if (sums == sums[0]).all() and (alignment := _verified(nonzero, np.ones(len(total)))):
        return alignment
    classes = _classes(total)
    radii, finals = [], []
    basis = np.zeros((len(total), sum(final for _c, final in classes)))
    for c, final in classes:
        w, vecs = np.linalg.eig(total[np.ix_(c, c)])
        i = w.real.argmax()
        radii.append(w[i].real)
        if final:
            p = vecs[:, i].real
            basis[c, len(finals)] = p / p[np.abs(p).argmax()]
            finals.append(c)
    rho = max(radii)
    if any((rho - r <= BASIC_TOL * rho) != final for r, (_c, final) in zip(radii, classes)):
        return None
    transient = [i for c, final in classes if not final for i in c]
    scales = np.ones(len(finals))
    if transient:
        t = np.ix_(transient, transient)  # basis is still 0 on T, so total[T] @ basis is M_TF v_F
        basis[transient] = np.linalg.solve(rho * np.eye(len(transient)) - total[t], total[transient] @ basis)
        if len(finals) > 1:
            first = basis[finals[0], 0]
            rows = []
            for m in nonzero.values():
                image = m @ basis
                lam = image[finals[0], 0] @ first / (first @ first)
                rows.append(image[transient] - lam * basis[transient])
            _u, s, vh = np.linalg.svd(np.vstack(rows))
            null = vh[(s > VERIFY_TOL * rho).sum():]
            scales = null.T @ null.sum(axis=1)
    return _verified(nonzero, basis @ scales)


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
