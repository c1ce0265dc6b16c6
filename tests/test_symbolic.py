"""Digit systems, labeled graphs, follower automata, and preimage counting.

Core claims:
    - digit-system validation catches empty sets, range violations, bad bases,
      and names the first bad digit that a per-digit loop would name
    - constructors take integers and reals without lossy coercion: a float
      or string where an integer belongs, a string where a real belongs, a
      non-sequence digit and a malformed edge are ValidationErrors
    - prefix projection is surjective level to level
    - each level's alphabet, fibers and projection, and the objective's marginal
      groups, equal the per-call derivations that the one prefix table
      replaced (kept below as oracles), on random digit systems of rank 2-4
      and graphs whose labels are any subset of the digits
    - the subset automaton counts exactly the words brute-force path
      enumeration produces after label deduplication
    - a sponge is a full shift at every level, as its follower automaton
      says, answered without determinizing; levels out of range raise
    - right-resolving graphs have at most |V| path realizations per word
    - the frozen three-vertex chain necessarily carries one duplicated label
      (five same-projection edges leave one vertex, only four labels exist)
    - preimage counts: per-letter fiber products on full shifts, automaton
      DP on the sofic bottom, multiplicative under concatenation; on random
      1-3 vertex graphs they equal brute-force path enumeration at every
      level, full-shift levels included, and words outside the language
      raise InadmissibleWord
"""
import itertools
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtp.errors import (
    BasesNotSorted,
    DeadVertex,
    DigitOutOfRange,
    DistributionInvalid,
    DuplicateLabelAtVertex,
    EmptyDigits,
    InadmissibleWord,
    LevelOutOfRange,
    RankTooSmall,
    ValidationError,
)
from wtp.sofic import build_count_matrices
from wtp.sponge import Potential
from wtp.symbolic import (
    LabeledGraph,
    SoficChain,
    SpongeChain,
    check_right_resolving,
    determinize,
    preimage_count,
    validate_digit_system,
)
from wtp.variational import SymbolDistribution, _marginal_groups


# -- validation ---------------------------------------------------------------

def test_carpet_validates(carpet):
    assert carpet.rank == 2
    assert carpet.digits == {(0, 0), (1, 1), (0, 2)}


def test_empty_digits_rejected():
    with pytest.raises(EmptyDigits):
        validate_digit_system((2, 3), [])


def test_unsorted_bases_rejected():
    with pytest.raises(BasesNotSorted):
        validate_digit_system((3, 2), [(0, 0)])


def test_digit_out_of_range_rejected():
    with pytest.raises(DigitOutOfRange):
        validate_digit_system((2, 3), [(0, 3)])
    with pytest.raises(DigitOutOfRange):
        validate_digit_system((2, 3), [(2, 0)])


def _first_bad_digit(bases, digits):
    """Oracle: the first digit, in sorted order, that a per-digit loop rejects."""
    for d in sorted({tuple(int(c) for c in d) for d in digits}):
        if len(d) != len(bases):
            return d, len(d)
        for i, (c, m) in enumerate(zip(d, bases)):
            if not 0 <= c < m:
                return d, i
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 4), min_size=1, max_size=4), min_size=1, max_size=30))
def test_digit_validation_matches_per_digit_loop(digits):
    bases = (2, 3, 4)
    bad = _first_bad_digit(bases, digits)
    if bad is not None:
        with pytest.raises(DigitOutOfRange) as info:
            validate_digit_system(bases, digits)
        assert (info.value.digit, info.value.index) == bad
        return
    system = validate_digit_system(bases, digits)
    assert system.sorted_digits == tuple(sorted(set(map(tuple, digits))))
    for j in (1, 2, 3):
        assert system.prefixes(j) == tuple(sorted({d[:j] for d in system.digits}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefixes_match_sorted_set_oracle(data):
    bases = tuple(sorted(data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))))
    pool = st.tuples(*(st.integers(0, m - 1) for m in bases))
    digits = data.draw(st.lists(pool, min_size=1, max_size=20))
    system = validate_digit_system(bases, digits)
    for j in range(1, len(bases) + 1):
        assert system.prefixes(j) == tuple(sorted({d[:j] for d in digits}))


def test_rank_one_rejected():
    with pytest.raises(RankTooSmall):
        validate_digit_system((5,), [(0,)])


def test_duplicate_digits_are_merged():
    sys = validate_digit_system((2, 3), [(0, 0), (0, 0), (1, 1)])
    assert len(sys.digits) == 2


# -- projection ---------------------------------------------------------------

def test_carpet_prefix_projection(carpet):
    assert set(carpet.prefixes(1)) == {(0,), (1,)}


def test_full_length_projection_is_identity(carpet):
    assert set(carpet.prefixes(2)) == carpet.digits


def test_projection_level_out_of_range(carpet):
    with pytest.raises(LevelOutOfRange):
        carpet.prefixes(0)
    with pytest.raises(LevelOutOfRange):
        carpet.prefixes(3)


def test_golden_level2_alphabet(golden):
    assert set(golden.alphabet(2)) == {(0, 0), (1, 0), (0, 1)}
    assert set(golden.alphabet(3)) == {(0,), (1,)}


def test_projection_surjective_between_levels(golden, carpet):
    for chain in (golden, SpongeChain(carpet)):
        for level in range(1, chain.rank):
            fibers = chain.fibers(level)
            assert set(fibers) == set(chain.alphabet(level + 1))
            assert all(len(f) >= 1 for f in fibers.values())


# Reference derivations of the maps between levels, each computed afresh
# from the edge labels or the digits, as the code did before the one table
# in `DigitSystem`; kept here as oracles for that table.

def _alphabet_oracle(graph, level):
    keep = graph.system.rank - level + 1
    return tuple(sorted({tuple(lab)[:keep] for _s, _t, lab in graph.edges}))


def _fibers_oracle(graph, level):
    keep = graph.system.rank - level + 1
    out = {}
    for x in _alphabet_oracle(graph, level):
        out.setdefault(x[: keep - 1], []).append(x)
    return {k: tuple(v) for k, v in out.items()}


def _projection_oracle(graph, level):
    """The estimator's per-level projection: each letter's index above, by dict lookup."""
    coarse = {x: k for k, x in enumerate(_alphabet_oracle(graph, level + 1))}
    keep = graph.system.rank - level + 1
    return [coarse[x[: keep - 1]] for x in _alphabet_oracle(graph, level)]


def _bottom_walk_oracle(graph):
    """(bottom letter, level-2 index) in the order of the estimator's old double loop."""
    fibers = _fibers_oracle(graph, 1)
    return [(x, k) for k, y in enumerate(_alphabet_oracle(graph, 2)) for x in fibers.get(y, ())]


def _marginal_groups_oracle(system):
    """Run-start cumsum over the sorted digits: a digit starts a new length-j
    run when the first coordinate where it differs from the one before is below j."""
    digits = system.sorted_digits
    n, r = len(digits), system.rank
    coords = np.array(digits, dtype=np.intp).reshape(n, r)
    first_change = (coords[1:] != coords[:-1]).argmax(axis=1)
    groups = []
    for level in range(1, r + 1):
        group = np.zeros(n, dtype=np.intp)
        np.cumsum(first_change < r - level + 1, out=group[1:])
        groups.append((group, int(group[-1]) + 1))
    return groups


@st.composite
def _label_graphs(draw):
    """A digit system of rank 2-4 and a 1-3 vertex graph over it.  The labels
    are any subset of the digits, none included, given as int tuples, numpy
    int tuples or lists."""
    bases = tuple(sorted(draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))))
    pool = st.tuples(*(st.integers(0, m - 1) for m in bases))
    system = validate_digit_system(bases, draw(st.lists(pool, min_size=1, max_size=25)))
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(1, 3))))
    spelling = st.sampled_from([tuple, list, lambda d: tuple(map(np.int64, d))])
    vertex, digit = st.sampled_from(vertices), st.sampled_from(system.sorted_digits)
    edge = st.tuples(vertex, vertex, digit, spelling)
    edges = tuple((s, t, spell(d)) for s, t, d, spell in draw(st.lists(edge, max_size=30)))
    return LabeledGraph(vertices=vertices, edges=edges, system=system)


@settings(max_examples=150, deadline=None)
@given(graph=_label_graphs())
@example(graph=LabeledGraph(vertices=("v",), edges=(), system=validate_digit_system((2, 3), [(0, 0)])))
def test_level_maps_match_reference_derivations(graph):
    chain = SoficChain(graph)
    r = graph.system.rank
    for level in range(1, r + 1):
        assert chain.alphabet(level) == _alphabet_oracle(graph, level)
        assert chain.fibers(level) == _fibers_oracle(graph, level)
    for level in range(1, r):
        assert list(chain.projection(level)) == _projection_oracle(graph, level)
    assert list(zip(chain.alphabet(1), chain.projection(1))) == _bottom_walk_oracle(graph)
    groups, reference = _marginal_groups(graph.system), _marginal_groups_oracle(graph.system)
    assert groups == [(g.tolist(), k) for g, k in reference]


def test_golden_labels_use_half_the_digits(golden):
    # 12 of the 24 digits label an edge; the alphabets are those of the labels
    assert len(golden.system.digits) == 24
    assert len(golden.alphabet(1)) == 12
    assert golden.alphabet(2) == ((0, 0), (0, 1), (1, 0))
    assert golden.fibers(2) == {(0,): ((0, 0), (0, 1)), (1,): ((1, 0),)}
    assert golden.projection(2) == (0, 0, 1)


# -- right-resolving ----------------------------------------------------------

def _loop_graph():
    sys = validate_digit_system((2, 2), [(0, 0)])
    return LabeledGraph(vertices=("v",), edges=(("v", "v", (0, 0)),), system=sys)


def test_single_self_loop_is_right_resolving():
    check_right_resolving(_loop_graph())


def test_duplicate_label_detected():
    sys = validate_digit_system((2, 2), [(0, 0), (1, 1)])
    g = LabeledGraph(
        vertices=("a", "b"),
        edges=(("a", "a", (0, 0)), ("a", "b", (0, 0)), ("b", "b", (1, 1))),
        system=sys,
    )
    with pytest.raises(DuplicateLabelAtVertex) as exc:
        check_right_resolving(g)
    assert exc.value.vertex == "a"
    assert exc.value.label == (0, 0)


@pytest.mark.parametrize(
    "edges, message",
    [
        (
            (("a", "a", (0, 0)), ("a", "c", (1, 1)), ("d", "a", (0, 0))),
            "edge ('a', 'c') references unknown vertex",
        ),
        (
            (("a", "b", (0, 0)), ("b", "a", (1, 0)), ("b", "b", (2, 2))),
            "edge label (1, 0) is not a digit of the system",
        ),
        ((("a", "b", (0, 0)), ("b", "a", [1, 0])), "edge label [1, 0] is not a digit of the system"),
        ((("a", "b", (0, 0)), ("b", "a", (0, 0, 0))), "edge label (0, 0, 0) is not a digit of the system"),
    ],
)
def test_bad_edge_is_named(edges, message):
    # the first bad edge in edge order, as a per-edge loop names it
    sys = validate_digit_system((2, 2), [(0, 0), (1, 1)])
    with pytest.raises(ValidationError, match=re.escape(message)):
        LabeledGraph(vertices=("a", "b"), edges=edges, system=sys)


CARPET = validate_digit_system((2, 3), [(0, 0), (1, 1), (0, 2)])


@pytest.mark.parametrize(
    "build, error, message",
    [
        # lossy coercions: a float coordinate, base or letter was truncated
        (lambda: validate_digit_system((2, 3), [(0.5, 0), (1, 2.9)]), ValidationError, "digit (0.5, 0)"),
        (lambda: validate_digit_system((2.7, 3), [(0, 0)]), ValidationError, "bases (2.7, 3)"),
        (lambda: Potential(window=1, table={((0.9, 1.2),): 1}), ValidationError, "potential letter (0.9, 1.2)"),
        # untyped ValueError or TypeError
        (lambda: validate_digit_system((2, 3), [(0, "a")]), ValidationError, "digit (0, 'a')"),
        (lambda: validate_digit_system(("2", 3), [(0, 0)]), ValidationError, "bases ('2', 3)"),
        (lambda: validate_digit_system((2, 3), [(0, 0), 5]), ValidationError, "digit 5"),
        (lambda: Potential(window=1, table={(5,): 1.0}), ValidationError, "potential letter 5"),
        (lambda: Potential(window=1, table={5: 1.0}), ValidationError, "table key 5"),
        (
            lambda: Potential(window=1, table={((0, 0),): "1.0"}),
            ValidationError,
            "potential value for ((0, 0),) is '1.0', not a real number",
        ),
        (
            lambda: LabeledGraph(vertices=("a",), edges=(("a", "a"),), system=CARPET),
            ValidationError,
            "edge ('a', 'a') is not a (source, target, label) triple",
        ),
        (
            lambda: SymbolDistribution(system=CARPET, probs={(0, 0): "0.5", (1, 1): 0.5}),
            DistributionInvalid,
            "probability for (0, 0) is '0.5', not a real number",
        ),
    ],
)
def test_constructors_take_integers_and_reals_without_coercing(build, error, message):
    # integers pass through operator.index (numpy ints pass, floats and
    # strings do not), reals only from numbers; the error names the value
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_digit_labels_as_lists_or_numpy_ints_are_accepted():
    sys = validate_digit_system((2, 2), [(0, 0), (1, 1)])
    edges = (("a", "b", [0, 0]), ("b", "a", (np.int64(1), np.int64(1))), ("a", "a", (0, 0)))
    plain = (("a", "b", (0, 0)), ("b", "a", (1, 1)), ("a", "a", (0, 0)))
    g = LabeledGraph(vertices=("a", "b"), edges=edges, system=sys)
    h = LabeledGraph(vertices=("a", "b"), edges=plain, system=sys)
    assert determinize(g).count_words(3) == determinize(h).count_words(3)


def test_dead_vertex_detected():
    sys = validate_digit_system((2, 2), [(0, 0)])
    g = LabeledGraph(
        vertices=("a", "b"), edges=(("a", "b", (0, 0)),), system=sys
    )
    with pytest.raises(DeadVertex):
        check_right_resolving(g)


def test_golden_chain_label_collision_is_forced(golden):
    """The pinned count matrices put five (1,0,*)-projection edges on two of
    the vertices while only four third coordinates exist, so some label must
    repeat at a vertex.  The frozen presentation places both collisions on
    (1, 0, 3)."""
    mats = build_count_matrices(golden.graph)
    out_degrees = mats[(1, 0)].sum(axis=0)
    third_coordinates = golden.system.bases[2]
    assert out_degrees.max() > third_coordinates  # pigeonhole: collision unavoidable
    with pytest.raises(DuplicateLabelAtVertex) as exc:
        check_right_resolving(golden.graph)
    assert exc.value.label == (1, 0, 3)


# -- determinization ----------------------------------------------------------

def _brute_force_words(graph, level, n):
    """All words of length n read along paths, deduplicated by label; also the
    (start vertex, word) pairs."""
    keep = graph.system.rank - level + 1
    words = set()
    pairs = set()
    paths_per_word: dict = {}

    def walk(vertex, word, start):
        if len(word) == n:
            words.add(word)
            pairs.add((start, word))
            paths_per_word[word] = paths_per_word.get(word, 0) + 1
            return
        for s, t, lab in graph.edges:
            if s == vertex:
                walk(t, word + (tuple(lab)[:keep],), start)

    for v in graph.vertices:
        walk(v, (), v)
    return words, pairs, paths_per_word


def test_determinize_single_loop():
    aut = determinize(_loop_graph())
    assert len(aut.states) == 1
    assert len(aut.transitions) == 1


def test_full_shift_encoding_accepts_everything(carpet):
    chain = SpongeChain(carpet)
    aut = chain.automaton(1)
    for n in range(4):
        assert aut.count_words(n) == len(carpet.digits) ** n


@settings(max_examples=100, deadline=None)
@given(bases=st.lists(st.integers(2, 4), min_size=2, max_size=4).map(sorted), data=st.data())
def test_sponge_is_full_shift_from_its_class(bases, data):
    """Every level of a sponge is a full shift, as its follower automaton
    says; the sponge answers without determinizing, and range-checks the
    level as prefix_length does."""
    pool = list(itertools.product(*(range(m) for m in bases)))
    system = validate_digit_system(bases, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
    chain = SpongeChain(system)
    r = system.rank
    with mock.patch.object(SoficChain, "automaton", side_effect=AssertionError("determinized")):
        answers = [chain.is_full_shift(level) for level in range(1, r + 1)]
        for level in (0, r + 1):
            with pytest.raises(LevelOutOfRange):
                chain.is_full_shift(level)
    for level, answer in enumerate(answers, 1):
        aut = determinize(chain.graph, level)
        assert answer is (len(aut.transitions) == len(aut.states) * len(aut.letters)) is True


def _random_graph(rng):
    r = 2
    bases = (2, int(rng.integers(2, 4)))
    digits = list(itertools.product(*(range(m) for m in bases)))
    sys = validate_digit_system(bases, digits)
    n_v = int(rng.integers(1, 5))
    vertices = tuple(f"v{i}" for i in range(n_v))
    edges = []
    for v in vertices:
        for _ in range(int(rng.integers(1, 4))):
            edges.append(
                (v, vertices[int(rng.integers(0, n_v))], digits[int(rng.integers(0, len(digits)))])
            )
    return LabeledGraph(vertices=vertices, edges=tuple(edges), system=sys)


def test_determinize_matches_brute_force_on_random_graphs(rng):
    for _ in range(40):
        g = _random_graph(rng)
        aut = determinize(g, level=1)
        for n in range(0, 7):
            words, pairs, _ = _brute_force_words(g, 1, n)
            assert aut.count_words(n) == len(words)
            if words:
                # every word is readable from at most |V| start vertices
                assert len(words) <= len(pairs) <= len(g.vertices) * len(words)


def test_right_resolving_graphs_have_few_paths_per_word(rng):
    found = 0
    for _ in range(60):
        g = _random_graph(rng)
        try:
            check_right_resolving(g)
        except Exception:
            continue
        found += 1
        for n in range(1, 5):
            words, _, paths = _brute_force_words(g, 1, n)
            if words:
                assert max(paths.values()) <= len(g.vertices)
                assert sum(paths.values()) <= len(g.vertices) * len(words)
    assert found >= 3  # the generator must exercise the right-resolving case


# -- preimage counting --------------------------------------------------------

def test_carpet_preimage_count_matches_enumeration(carpet_chain, carpet):
    letters = ((0,), (0,), (1,))
    brute = sum(
        1
        for w in itertools.product(carpet.sorted_digits, repeat=3)
        if tuple(d[:1] for d in w) == letters
    )
    assert brute == 4
    assert preimage_count(carpet_chain, 2, letters) == brute


def test_empty_word_has_one_preimage(carpet_chain, golden):
    assert preimage_count(carpet_chain, 2, ()) == 1
    assert preimage_count(golden, 2, ()) == 1


def test_golden_single_letter_counts(golden):
    mats = build_count_matrices(golden.graph)
    for label in ((0, 0), (0, 1), (1, 0)):
        wc = preimage_count(golden, 2, (label,))
        brute = len({lab for _s, _t, lab in golden.graph.edges if lab[:2] == label})
        assert wc == brute
        paths = int(mats[label].sum())
        assert 1 <= paths / wc
    # the (0,0) fiber stays below the vertex-count bound
    wc00 = preimage_count(golden, 2, ((0, 0),))
    assert 1 <= int(mats[(0, 0)].sum()) / wc00 <= 3


def test_golden_level2_preimages_of_level3_words(golden):
    # level 2 is a full shift on three letters; count preimages of (0, 1, 0)
    assert preimage_count(golden, 3, ((0,), (1,), (0,))) == 2 * 1 * 2


def test_inadmissible_word_raises(carpet_chain):
    with pytest.raises(InadmissibleWord):
        preimage_count(carpet_chain, 2, ((7,),))


def test_preimage_multiplicative_on_full_shifts(rng, carpet_chain):
    alphabet = carpet_chain.alphabet(2)
    for _ in range(50):
        n1, n2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        v = tuple(alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(n1))
        w = tuple(alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(n2))
        joint = preimage_count(carpet_chain, 2, v + w)
        split = preimage_count(carpet_chain, 2, v) * preimage_count(carpet_chain, 2, w)
        assert joint == split


def test_admissible_words_always_have_preimages(golden, rng):
    alphabet = golden.alphabet(2)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        letters = tuple(alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(n))
        assert golden.admissible(2, letters)
        assert preimage_count(golden, 2, letters) >= 1


def _bottom_paths(graph, n):
    """Label sequences of every length-n path of the graph, one per path."""
    paths = [((), v) for v in graph.vertices]
    for _ in range(n):
        paths = [(labels + (lab,), t) for labels, v in paths for s, t, lab in graph.edges if s == v]
    return [labels for labels, _end in paths]


@st.composite
def _small_graphs(draw):
    """1-3 vertices over the full digit product of rank 2-3, bases 2-3.

    With `full`, every vertex has an edge to the first vertex for every label
    in use, so every level is a full shift; with more than one vertex, its
    automaton mostly has more than one state."""
    bases = tuple(sorted(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))))
    system = validate_digit_system(bases, itertools.product(*(range(m) for m in bases)))
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(1, 3))))
    labels = draw(st.lists(st.sampled_from(system.sorted_digits), min_size=1, max_size=3, unique=True))
    full = draw(st.booleans())
    digits = st.sampled_from(labels if full else system.sorted_digits)
    vertex = st.sampled_from(vertices)
    edges = [(v, vertices[0], lab) for v in vertices for lab in labels] if full else []
    edges += [(v, v, labels[0]) for v in vertices]
    edges += draw(st.lists(st.tuples(vertex, vertex, digits), min_size=1, max_size=6))
    return LabeledGraph(vertices=vertices, edges=tuple(edges), system=system), full


@settings(max_examples=60, deadline=None)
@given(drawn=_small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_preimage_count_matches_path_enumeration(drawn, seed):
    graph, full = drawn
    rnd = random.Random(seed)
    chain = SoficChain(graph)
    r = graph.system.rank
    assert not full or all(chain.is_full_shift(level) for level in range(1, r + 1))
    for n in range(5):
        paths = _bottom_paths(graph, n)
        for level in range(2, r + 1):
            keep = r - level + 1
            finer = {tuple(lab[: keep + 1] for lab in p) for p in paths}
            preimages: dict = {}
            for w in finer:
                x = tuple(letter[:keep] for letter in w)
                preimages[x] = preimages.get(x, 0) + 1
            words = sorted(preimages)
            for x in rnd.sample(words, min(len(words), 6)):
                assert preimage_count(chain, level, x) == preimages[x]
            alphabet = chain.alphabet(level)
            for _ in range(4):
                x = tuple(rnd.choice(alphabet) for _ in range(n))
                if x in preimages:
                    assert preimage_count(chain, level, x) == preimages[x]
                else:
                    with pytest.raises(InadmissibleWord):
                        preimage_count(chain, level, x)
