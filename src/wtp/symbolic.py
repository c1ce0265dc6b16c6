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
digit.  Whether a level is a full shift is read off its follower automaton,
except on a sponge, whose one vertex makes every level a full shift: it
answers from its class and determinizes nothing.

Counting is done with Python integers (counts grow like |D|^N); callers
convert to floats only when taking logarithms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import index, itemgetter

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
        return self._level(j)[0]

    def parents(self, j: int) -> tuple[int, ...]:
        """Index in prefixes(j - 1) of each length-j prefix's cut (0 at j = 1)."""
        return self._level(j)[1]

    def _level(self, j: int) -> tuple[tuple[Digit, ...], tuple[int, ...]]:
        if not 1 <= j <= self.rank:
            raise LevelOutOfRange(f"prefix length {j} not in 1..{self.rank}")
        return self._table[j - 1]

    @cached_property
    def _table(self) -> tuple[tuple[tuple[Digit, ...], tuple[int, ...]], ...]:
        # (prefixes, parents) per length j = 1..r, each cut from the next
        # longer: cutting a sorted sequence keeps it sorted, so dropping repeats
        # of the cut (dict keys keep their first order) leaves the distinct
        # prefixes sorted, and a prefix's parent is its cut's place among them
        table, level = [], self.sorted_digits
        for j in range(self.rank, 0, -1):
            cuts = list(map(itemgetter(slice(j - 1)), level))
            place = dict(zip(dict.fromkeys(cuts), itertools.count()))
            table.append((level, tuple(map(place.__getitem__, cuts))))
            level = tuple(place)
        return tuple(reversed(table))


def _int_tuple(values, what: str, error=ValidationError) -> tuple[int, ...]:
    """`values` as a tuple of ints.  Each is taken through `operator.index`,
    so numpy integers pass, while a float, a string or a value that is not a
    sequence raises `error` naming it: nothing is rounded or parsed."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise error(f"{what} {values!r} is not a sequence of integers") from None


def _real(value, what: str, error=ValidationError) -> float:
    """`value` as a float, taken from a number only, never parsed from a string."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return float(value)
        except TypeError:
            pass
    raise error(f"{what} is {value!r}, not a real number")


def validate_digit_system(bases, digits) -> DigitSystem:
    """Check bases are sorted integers >= 2, digits componentwise in range."""
    bases = _int_tuple(bases, "bases")
    if len(bases) < 2:
        raise RankTooSmall(f"need rank >= 2, got {len(bases)}")
    if any(m < 2 for m in bases):
        raise ValidationError(f"every base must be >= 2, got {bases}")
    if any(bases[i] > bases[i + 1] for i in range(len(bases) - 1)):
        raise BasesNotSorted(f"bases {bases} not nondecreasing")
    digits = list(digits)  # the fallback below takes a second pass
    try:
        dedup = set(map(tuple, digits))
        clean = {int}.issuperset(map(type, itertools.chain.from_iterable(dedup)))
    except TypeError:  # a digit that is not a sequence, or an unhashable coordinate
        clean = False
    if not clean:
        dedup = {_int_tuple(d, "digit") for d in digits}
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
        for edge in self.edges:
            try:
                s, t, lab = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not a (source, target, label) triple") from None
            if s not in vs or t not in vs:
                raise ValidationError(f"edge ({s!r}, {t!r}) references unknown vertex")
            if _int_tuple(lab, "edge label") not in self.system.digits:
                raise ValidationError(f"edge label {lab} is not a digit of the system")


def _duplicate_label(g: LabeledGraph) -> DuplicateLabelAtVertex | None:
    """The error naming the first edge whose label its source already carries, if any."""
    seen = set()
    for key in ((s, tuple(lab)) for s, _t, lab in g.edges):
        if key in seen:
            return DuplicateLabelAtVertex(*key)
        seen.add(key)
    return None


def check_right_resolving(g: LabeledGraph) -> None:
    """Raise unless no vertex repeats a label and every out-degree is >= 1; a repeat is named first."""
    live = set(map(itemgetter(0), g.edges))
    error = _duplicate_label(g) or next((DeadVertex(v) for v in g.vertices if v not in live), None)
    if error is not None:
        raise error


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

    @cached_property
    def _labels(self) -> DigitSystem:
        """The digit set of the edge labels; the system itself when every digit labels an edge."""
        used = frozenset(map(tuple, map(itemgetter(2), self.graph.edges)))
        digits = frozenset(filter(used.__contains__, self.system.digits))  # the system's own tuples
        return self.system if digits == self.system.digits else DigitSystem(self.system.bases, digits)

    def alphabet(self, level: int) -> tuple[Digit, ...]:
        return self._labels.prefixes(self.prefix_length(level))

    def projection(self, level: int) -> tuple[int, ...]:
        """Index in alphabet(level + 1) of each level-`level` letter's image (0 at level r)."""
        return self._labels.parents(self.prefix_length(level))

    def fibers(self, level: int) -> dict[Digit, tuple[Digit, ...]]:
        """Map each level-(level+1) letter to the level-`level` letters over it."""
        coarse = self.alphabet(level + 1) if level < self.rank else ((),)
        runs = itertools.groupby(zip(self.projection(level), self.alphabet(level)), itemgetter(0))
        return {coarse[k]: tuple(map(itemgetter(1), run)) for k, run in runs}

    def automaton(self, level: int) -> FollowerAutomaton:
        return _cached_automaton(self.graph, level)

    def is_full_shift(self, level: int) -> bool:
        """True iff every word of the level alphabet is admissible: each automaton state reads all letters."""
        aut = self.automaton(level)
        return len(aut.transitions) == len(aut.states) * len(aut.letters)

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

    def is_full_shift(self, level: int) -> bool:
        """True at every level: one vertex reads every digit."""
        self.prefix_length(level)  # range-checks the level
        return True


@lru_cache(maxsize=64)
def _cached_automaton(graph: LabeledGraph, level: int) -> FollowerAutomaton:
    return determinize(graph, level)


@lru_cache(maxsize=2)
def _cached_bottom(chain: SoficChain, potential):
    """`wtp.enumeration._bottom_matrices`' read-only arrays, built once per
    (chain, potential) for every N and every exponent vector.

    Two entries serve a per-N loop and `wtp check`'s pairs of potentials,
    and keep at most two builds alive between calls.

    It lives here, not in `wtp.enumeration`, because `import wtp.cli` loads
    this module: `bench/worker.py` empties the caches of the loaded `wtp`
    modules before each operation, as a fresh CLI process has them.
    """
    from . import enumeration  # loads numpy

    return enumeration._build_bottom(chain, potential)


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
    fibers = chain.fibers(level - 1)
    return _count_words(chain.automaton(level - 1), [fibers[x] for x in letters])
