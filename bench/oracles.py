"""Reference values computed apart from wtp, used to check its outputs.

Nothing here imports wtp or numpy: every quantity is recomputed from the
digit list or the edge list with plain Python, so that a fault in the
library cannot also hide in its check.
"""
from __future__ import annotations

import math
from collections import defaultdict


def exponents_from_bases(bases) -> list[float]:
    """a_i = log m_{r-i} / log m_{r-i+1} for i = 1..r-1 (1 where the bases are equal)."""
    r = len(bases)
    return [
        1.0 if bases[r - i - 1] == bases[r - i] else math.log(bases[r - i - 1]) / math.log(bases[r - i])
        for i in range(1, r)
    ]


def weight_w1(a) -> float:
    """w_1 = a_1 * ... * a_{r-1}: the share of the potential in the pressure."""
    return math.prod(a)


def contract(table: dict, a) -> float:
    """Fold a table keyed by level-2 keys into one number.

    Each key is a tuple whose items are truncated one coordinate further per
    step; the values of keys that agree after truncation are raised to a_k and
    summed.  Keys are either digits (tuples of ints) or words (tuples of
    digits), truncated letterwise.
    """
    for exponent in a:
        folded: dict = defaultdict(float)
        for key, value in table.items():
            if value > 0:
                folded[_truncate(key)] += value**exponent
        table = folded
    return sum(table.values())


def _truncate(key):
    if key and isinstance(key[0], tuple):
        return tuple(x[:-1] for x in key)
    return key[:-1]


def nested_sum(digits, a, weight=None) -> float:
    """Z_0: the nested sum over a digit list, optionally weighted by exp(f(d))."""
    table: dict = defaultdict(float)
    for d in digits:
        table[tuple(d[:-1])] += math.exp(weight[tuple(d)]) if weight else 1.0
    return contract(table, a)


def hausdorff_dimension(bases, digits) -> float:
    return math.log(nested_sum(digits, exponents_from_bases(bases))) / math.log(bases[0])


def minkowski_dimension(bases, digits) -> float:
    """sum_j log(|D_j| / |D_{j-1}|) / log m_j over the prefix counts |D_j|."""
    total, prev = 0.0, 1
    for j in range(1, len(bases) + 1):
        cur = len({tuple(d[:j]) for d in digits})
        total += math.log(cur / prev) / math.log(bases[j - 1])
        prev = cur
    return total


def sofic_words(vertices, edges, n: int) -> set:
    """Distinct label words of length n read along paths of a labeled graph."""
    out = defaultdict(list)
    for s, t, label in edges:
        out[s].append((t, tuple(label)))
    frontier = {(v, ()) for v in vertices}
    for _ in range(n):
        frontier = {(t, word + (label,)) for v, word in frontier for t, label in out[v]}
    return {word for _v, word in frontier}


def nested_count_from_words(words, a) -> float:
    """S_N by brute force: count bottom words per level-2 projection, then fold."""
    table: dict = defaultdict(float)
    for word in words:
        table[tuple(x[:-1] for x in word)] += 1.0
    return contract(table, a)


def follower_state_count(vertices, edges) -> tuple[int, bool]:
    """States of the level-1 subset automaton from the full vertex set, and
    whether every state reads every letter (the bottom is then a full shift)."""
    by_letter: dict = defaultdict(lambda: defaultdict(set))
    for s, t, label in edges:
        by_letter[tuple(label)][s].add(t)
    start = frozenset(vertices)
    seen, queue, complete = {start}, [start], True
    while queue:
        state = queue.pop()
        for targets in by_letter.values():
            image = frozenset(t for v in state for t in targets.get(v, ()))
            if not image:
                complete = False
                continue
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return len(seen), complete


def golden_entropy() -> float:
    """Closed form of the three-vertex golden-mean example over bases (2, 3, 4)."""
    phi = (1 + math.sqrt(5)) / 2
    a1 = math.log(3) / math.log(4)
    a2 = math.log(2) / math.log(3)
    return math.log((phi**a1 + phi ** (2 * a1)) ** a2 + math.sqrt(2 + math.sqrt(5)))


def carpet_entropy() -> float:
    """McMullen's carpet: digits (0,0), (1,1), (0,2) over bases (2, 3)."""
    return math.log(2 ** (math.log(2) / math.log(3)) + 1)
