"""Chains of one-sided symbolic systems and exact word/preimage counting.

Level convention
----------------
A system of rank r induces a chain of r full or sofic shifts connected by
coordinate projections.  Chain level i (1 <= i <= r) keeps the FIRST
r - i + 1 coordinates of every digit, so level 1 carries full digits and
level r carries only the first coordinate.  Prefix length j and chain level
i are related by j = r - i + 1.  All public functions state which of the
two indexings they take.

One chain class: SoficChain presents the bottom level by a labeled graph,
and a sponge (SpongeChain) is its one-vertex case, with one self-loop per
digit.  Whether a level is a full shift is read off its follower automaton.

Counting is done with Python integers (counts grow like |D|^N); callers
convert to floats only when taking logarithms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

from .errors import (
    BasesNotSorted,
    DeadVertex,
    DigitOutOfRange,
    DuplicateLabelAtVertex,
    EmptyDigits,
    InadmissibleWord,
    LevelOutOfRange,
    RankTooSmall,
    ValidationError,
)

Digit = tuple[int, ...]


@dataclass(frozen=True)
class DigitSystem:
    """Sorted bases m_1 <= ... <= m_r and a digit set D inside prod {0..m_i-1}."""

    bases: tuple[int, ...]
    digits: frozenset[Digit]

    @property
    def rank(self) -> int:
        return len(self.bases)

    @cached_property
    def sorted_digits(self) -> tuple[Digit, ...]:
        return tuple(sorted(self.digits))

    def prefixes(self, j: int) -> tuple[Digit, ...]:
        """Distinct length-j prefixes of the digit set, sorted."""
        if not 1 <= j <= self.rank:
            raise LevelOutOfRange(f"prefix length {j} not in 1..{self.rank}")
        return self._prefixes[j - 1]

    @cached_property
    def _prefixes(self) -> tuple[tuple[Digit, ...], ...]:
        # cutting a sorted sequence keeps it sorted, so dropping repeats of the
        # cut (dict keys keep their first order) leaves the distinct prefixes
        # sorted; each length is cut from the next longer, shortest last
        levels = [self.sorted_digits]
        for j in range(self.rank, 0, -1):
            levels.append(tuple(dict.fromkeys(map(itemgetter(slice(j)), levels[-1]))))
        return tuple(reversed(levels[1:]))


def validate_digit_system(bases, digits) -> DigitSystem:
    """Check bases are sorted integers >= 2, digits componentwise in range."""
    bases = tuple(int(m) for m in bases)
    if len(bases) < 2:
        raise RankTooSmall(f"need rank >= 2, got {len(bases)}")
    if any(m < 2 for m in bases):
        raise ValidationError(f"every base must be >= 2, got {bases}")
    if any(bases[i] > bases[i + 1] for i in range(len(bases) - 1)):
        raise BasesNotSorted(f"bases {bases} not nondecreasing")
    dedup = set(map(tuple, digits))
    if not {int}.issuperset(map(type, itertools.chain.from_iterable(dedup))):
        dedup = {tuple(int(c) for c in d) for d in dedup}
    if not dedup:
        raise EmptyDigits("digit set is empty")
    system = DigitSystem(bases=bases, digits=frozenset(dedup))
    ordered = system.sorted_digits
    # one pass per coordinate; the loop below names the first bad digit
    if set(map(len, ordered)) != {len(bases)} or any(
        min(column) < 0 or max(column) >= m for column, m in zip(zip(*ordered), bases)
    ):
        for d in ordered:
            if len(d) != len(bases):
                raise DigitOutOfRange(d, len(d))
            for i, (c, m) in enumerate(zip(d, bases)):
                if not 0 <= c < m:
                    raise DigitOutOfRange(d, i)
    return system


def _is_clean_edges(edges, vertices: set, digits: frozenset) -> bool:
    """Every edge is a (source, target, label) tuple between `vertices` with
    a digit tuple as label: the checks of `LabeledGraph`, made a whole list
    at a time, so that its loop runs only to name the first bad edge."""
    if not ({tuple}.issuperset(map(type, edges)) and set(map(len, edges)) <= {3}):
        return False
    labels = list(map(itemgetter(2), edges))
    return (
        vertices.issuperset(map(itemgetter(0), edges))
        and vertices.issuperset(map(itemgetter(1), edges))
        and {tuple}.issuperset(map(type, labels))
        and digits.issuperset(labels)
    )


@dataclass(frozen=True)
class LabeledGraph:
    """Directed multigraph with D-labeled edges presenting a sofic shift.

    Edges are (source, target, label) with label a digit of `system`.
    Construction validates structure only; right-resolving and dead-vertex
    checks live in check_right_resolving so that presentations violating
    them remain representable for diagnosis.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, Digit], ...]
    system: DigitSystem

    def __post_init__(self):
        if not self.vertices:
            raise ValidationError("graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        vs = set(self.vertices)
        if _is_clean_edges(self.edges, vs, self.system.digits):
            return
        for s, t, lab in self.edges:
            if s not in vs or t not in vs:
                raise ValidationError(f"edge ({s!r}, {t!r}) references unknown vertex")
            if tuple(lab) not in self.system.digits:
                raise ValidationError(f"edge label {lab} is not a digit of the system")


def check_right_resolving(g: LabeledGraph) -> None:
    """Raise unless no two edges from one vertex share a label and out-degrees are >= 1."""
    seen: dict[tuple[str, Digit], bool] = {}
    degree = {v: 0 for v in g.vertices}
    for s, _t, lab in g.edges:
        key = (s, tuple(lab))
        if key in seen:
            raise DuplicateLabelAtVertex(s, tuple(lab))
        seen[key] = True
        degree[s] += 1
    for v, d in degree.items():
        if d == 0:
            raise DeadVertex(v)


@dataclass(frozen=True)
class FollowerAutomaton:
    """Deterministic subset automaton of a labeled graph.

    The state reached after reading word x is exactly the set of vertices at
    which some path labeled x ends; x is admissible iff that set is nonempty.
    States are indices into `states`; index 0 is the initial full-vertex set.
    """

    states: tuple[frozenset[str], ...]
    letters: tuple[Digit, ...]
    transitions: dict  # (state index, letter) -> state index or None

    @property
    def initial(self) -> int:
        return 0

    def run(self, letters) -> int | None:
        state = self.initial
        for letter in letters:
            state = self.transitions.get((state, letter))
            if state is None:
                return None
        return state

    def count_words(self, n: int) -> int:
        """Number of admissible words of length n (exact, big integers)."""
        return _count_words(self, [self.letters] * n)


def _count_words(aut: FollowerAutomaton, letter_sets) -> int:
    """Number of words with i-th letter in letter_sets[i] that `aut` accepts.

    Exact (big integers): one count per reachable state, advanced a position
    at a time.
    """
    counts = {aut.initial: 1}
    for letters in letter_sets:
        nxt: dict[int, int] = {}
        for st, c in counts.items():
            for letter in letters:
                t = aut.transitions.get((st, letter))
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(counts.values())


def determinize(g: LabeledGraph, level: int = 1) -> FollowerAutomaton:
    """Subset construction over edge labels projected to chain level `level`.

    Level 1 reads full labels; level i reads the first r - i + 1 coordinates.
    Works for any labeled graph; right-resolving is not required (the subset
    construction is what makes word counting exact either way).
    """
    r = g.system.rank
    if not 1 <= level <= r:
        raise LevelOutOfRange(f"level {level} not in 1..{r}")
    keep = r - level + 1
    by_letter: dict[Digit, dict[str, set[str]]] = {}
    for s, t, lab in g.edges:
        letter = tuple(lab)[:keep]
        by_letter.setdefault(letter, {}).setdefault(s, set()).add(t)
    letters = tuple(sorted(by_letter))
    initial = frozenset(g.vertices)
    states = [initial]
    index = {initial: 0}
    transitions: dict[tuple[int, Digit], int] = {}
    queue = [initial]
    while queue:
        state = queue.pop()
        for letter in letters:
            tmap = by_letter[letter]
            image = frozenset().union(*(tmap.get(v, set()) for v in state))
            if not image:
                continue
            if image not in index:
                index[image] = len(states)
                states.append(image)
                queue.append(image)
            transitions[(index[state], letter)] = index[image]
    return FollowerAutomaton(states=tuple(states), letters=letters, transitions=transitions)


class SoficChain:
    """Chain whose bottom level is presented by a labeled graph.

    Level 1 is the set of label sequences of paths; level i >= 2 is its
    letterwise projection to the first r - i + 1 coordinates.  Alphabets are
    the projections of the labels actually present in the graph.  A full
    shift is the one-vertex case (SpongeChain).
    """

    def __init__(self, graph: LabeledGraph):
        self.graph = graph
        self.system = graph.system

    @property
    def rank(self) -> int:
        return self.system.rank

    def prefix_length(self, level: int) -> int:
        if not 1 <= level <= self.rank:
            raise LevelOutOfRange(f"level {level} not in 1..{self.rank}")
        return self.rank - level + 1

    def alphabet(self, level: int) -> tuple[Digit, ...]:
        keep = self.prefix_length(level)
        return tuple(sorted({tuple(lab)[:keep] for _s, _t, lab in self.graph.edges}))

    def fibers(self, level: int) -> dict[Digit, tuple[Digit, ...]]:
        """Map each level-(level+1) letter to the level-`level` letters over it."""
        j = self.prefix_length(level)
        out: dict[Digit, list[Digit]] = {}
        for x in self.alphabet(level):
            out.setdefault(x[: j - 1], []).append(x)
        return {k: tuple(v) for k, v in out.items()}

    def automaton(self, level: int) -> FollowerAutomaton:
        return _cached_automaton(self.graph, level)

    def is_full_shift(self, level: int) -> bool:
        """True iff every word over the level alphabet is admissible.

        Checked on the follower automaton: from every reachable state every
        letter must have a transition.
        """
        aut = self.automaton(level)
        return all(
            (s, letter) in aut.transitions
            for s in range(len(aut.states))
            for letter in aut.letters
        )

    def admissible(self, level: int, letters) -> bool:
        """True iff the level-`level` word `letters` is read along some path."""
        return self.automaton(level).run(letters) is not None

    def __eq__(self, other):
        return isinstance(other, SoficChain) and self.graph == other.graph

    def __hash__(self):
        return hash(("sofic", self.graph))


class SpongeChain(SoficChain):
    """Chain of full shifts induced by a digit system: one vertex, one self-loop per digit."""

    def __init__(self, system: DigitSystem):
        edges = tuple(("*", "*", d) for d in system.sorted_digits)
        super().__init__(LabeledGraph(vertices=("*",), edges=edges, system=system))


@lru_cache(maxsize=64)
def _cached_automaton(graph: LabeledGraph, level: int) -> FollowerAutomaton:
    return determinize(graph, level)


def preimage_count(chain: SoficChain, level: int, letters) -> int:
    """Exact number of admissible level-(level-1) words projecting letterwise
    to the level-`level` word `letters`.

    The result counts words one level finer, with the follower automaton of
    that level; the empty word has exactly one preimage.  Raises
    InadmissibleWord when `letters` itself is not admissible.
    """
    if not 2 <= level <= chain.rank:
        raise LevelOutOfRange(f"word level {level} must be in 2..{chain.rank}")
    if not chain.admissible(level, letters):
        raise InadmissibleWord(f"{letters} is not admissible at level {level}")
    finer = level - 1
    fibers = chain.fibers(finer)
    return _count_words(chain.automaton(finer), [fibers[x] for x in letters])
