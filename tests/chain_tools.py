"""Seeded generators and block coding shared by the tests.

Core contents:
    - `random_sponge` and `random_exponents` draw digit systems and exponent
      vectors from a numpy Generator, so a seed fixes every draw
    - `m_fold_system` and `m_fold_potential` block-code a sponge: digits
      become m-blocks and base m_i becomes m_i^m, so S_N of the block chain
      is S_(mN) of the original and its pressure is m times the original's
    - `random_potential` draws a window-k table; `window2_potential` is a
      window-2 table drawn from no generator, whose DP states keep the last
      digit, so a sponge's S_N is enumerated
    - `golden_word_and_path_counts` yields word counts, eigenvalue products
      and path totals for every level-2 word of the golden chain
    - `brute_level2_weights` and `brute_nested_count` are the one brute-force
      nested counter (an oracle): every bottom word enumerated along the
      graph's paths, weighed, grouped by its level-2 word and nested up
"""
import itertools
import math

import numpy as np

from wtp.errors import ValidationError
from wtp.enumeration import _bottom_matrices
from wtp.sofic import build_count_matrices, detect_alignment, golden_mean_chain
from wtp.sponge import Potential
from wtp.symbolic import DigitSystem, validate_digit_system
from wtp.weights import Exponents


def random_sponge(rng, max_rank=4, max_base=5, max_digits=10) -> DigitSystem:
    r = int(rng.integers(2, max_rank + 1))
    bases = tuple(sorted(int(rng.integers(2, max_base + 1)) for _ in range(r)))
    pool = list(itertools.product(*(range(m) for m in bases)))
    k = int(rng.integers(1, min(max_digits, len(pool)) + 1))
    picked = rng.choice(len(pool), size=k, replace=False)
    return validate_digit_system(bases, [pool[i] for i in picked])


def random_exponents(rng, r) -> Exponents:
    return Exponents(tuple(float(rng.uniform(0.0, 1.0)) for _ in range(r - 1)))


def _blocks(sys: DigitSystem, m: int):
    """Each m-block of digits with its code in the block system.

    Coordinate i of the code is the base-m_i integer built from the i-th
    coordinates of the m constituent digits, so prefix structure is
    preserved coordinatewise.
    """
    for block in itertools.product(sys.sorted_digits, repeat=m):
        yield block, tuple(
            sum(block[t][i] * sys.bases[i] ** (m - 1 - t) for t in range(m))
            for i in range(sys.rank)
        )


def m_fold_system(sys: DigitSystem, m: int) -> DigitSystem:
    """Block-code the chain: digits become m-blocks, base i becomes m_i^m."""
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    bases = tuple(b**m for b in sys.bases)
    return validate_digit_system(bases, [code for _block, code in _blocks(sys, m)])


def m_fold_potential(sys: DigitSystem, potential: Potential, m: int) -> Potential:
    """Window-1 potential on the block system summing f over the block."""
    f = dict(zip(sys.sorted_digits, potential.letter_values(sys.sorted_digits)))
    table = {(code,): sum(map(f.__getitem__, block)) for block, code in _blocks(sys, m)}
    return Potential(window=1, table=table)


def random_potential(rng, digits, window) -> Potential | None:
    """None at window 0; else normal values on about 70% of the windows of `digits`."""
    if window == 0:
        return None
    words = itertools.product(digits, repeat=window)
    return Potential(window=window, table={w: float(rng.normal()) for w in words if rng.random() < 0.7})


def window2_potential(sys: DigitSystem) -> Potential:
    """f(x, y) = ((i + 2 j) mod 3) / 4 for the i-th and j-th sorted digits."""
    ranked = enumerate(sys.sorted_digits)
    table = {(x, y): ((i + 2 * j) % 3) / 4 for (i, x), (j, y) in itertools.product(ranked, repeat=2)}
    return Potential(2, table)


def golden_word_and_path_counts(n_max=10):
    """Word counts, eigenvalue products, and path totals for every admissible
    level-2 word of the golden-mean chain up to length n_max."""
    chain = golden_mean_chain()
    mats = build_count_matrices(chain.graph)
    alignment = detect_alignment(mats)
    labels = sorted(alignment.eigenvalues)
    start, bottom, _tail, _exact = _bottom_matrices(chain, None, 1)
    transfer = dict(zip(chain.alphabet(2), (m.astype(float) for m in bottom)))

    words = start.astype(float)[None, :]
    paths = np.ones((1, len(chain.graph.vertices)))
    lam = np.ones(1)
    for n in range(1, n_max + 1):
        words = np.concatenate([words @ transfer[lab].T for lab in labels], axis=0)
        # rows are P 1 for the path-count matrix P = A_{k_n} ... A_{k_1}:
        # appending a letter left-multiplies P, so the pairing with `words` is
        # positionwise exact, and the entry sum of P is that of P 1
        paths = np.concatenate([paths @ mats[lab].T for lab in labels], axis=0)
        lam = np.concatenate([lam * alignment.eigenvalues[lab] for lab in labels])
        yield n, words.sum(axis=1), paths.sum(axis=1), lam, alignment


def brute_level2_weights(chain, potential, n) -> dict:
    """Oracle, kept on purpose: {level-2 word: summed weight of its bottom
    words of length n}, every word enumerated along the graph's paths.

    Without a potential a word weighs the Python int 1.  With one, it weighs
    exp of its windows plus the largest overhang: the windows past its end
    range over the admissible extensions by window - 1 letters, labels of
    paths leaving a vertex at which some realizing path ends.  A word with
    no such extension weighs 0."""
    out = {v: [] for v in chain.graph.vertices}
    for s, t, lab in chain.graph.edges:
        out[s].append((tuple(lab), t))

    def paths(vertex, length):
        if length == 0:
            yield (), vertex
            return
        for lab, t in out[vertex]:
            for rest, end in paths(t, length - 1):
                yield (lab,) + rest, end

    ends = {}
    for v in chain.graph.vertices:
        for word, end in paths(v, n):
            ends.setdefault(word, set()).add(end)
    k = 1 if potential is None else potential.window
    weights = {}
    for word, word_ends in ends.items():
        weight = 1
        if potential is not None:
            total = sum(potential.value(word[t : t + k]) for t in range(n - k + 1))
            extensions = [e for v in word_ends for e, _end in paths(v, k - 1)]
            weight = 0.0
            if extensions:
                tail = max(
                    sum(potential.value((word + e)[n - k + 1 + t : n + 1 + t]) for t in range(k - 1))
                    for e in extensions
                )
                weight = math.exp(total + tail)
        key = tuple(d[: chain.rank - 1] for d in word)
        weights[key] = weights.get(key, 0) + weight
    return weights


def brute_nested_count(chain, a: Exponents, potential, n) -> float:
    """Oracle: log S_N from `brute_level2_weights`.  Level-2 words of weight
    0 are not counted; the others are raised to a_1 and summed under their
    level-3 word, and so on up to the top."""
    values = {word: x for word, x in brute_level2_weights(chain, potential, n).items() if x != 0}
    for i in range(chain.rank - 2):  # level i + 2 words grouped under level i + 3 words
        keep = chain.rank - 2 - i
        grouped = {}
        for word, x in values.items():
            key = tuple(d[:keep] for d in word)
            grouped[key] = grouped.get(key, 0.0) + x ** a.values[i]
        values = grouped
    return math.log(sum(x ** a.values[-1] for x in values.values()))
