"""Count matrices, spectral alignment, and the sofic closed form.

Core claims:
    - the frozen chain's count matrices are the pinned int64 arrays, keyed
      by label in sorted order, and satisfy A^2 = A_(0,1), A^3 = A_(1,0)
    - the matrices share the eigenvector (1, 1/phi, 1) with eigenvalues
      phi, phi^2, phi^3 (phi the golden ratio); scaling each matrix by a
      float weight scales its eigenvalue by the weight and keeps the vector
    - the closed form evaluates the nested bracket, about 1.4598 nats, and
      the exponent product makes the last term sqrt(2 + sqrt 5) exactly
    - a full shift encoded on one vertex reproduces the sponge closed form,
      bit for bit on random sponges (an oracle between the two routes)
    - the aligned route carries its caveats as reason codes: always the
      dimension ambiguity, and the path count when a vertex repeats a label;
      a sofic chain with a potential has no closed form
    - on random small graphs, aligned count matrices make every level from
      2 up a full shift, which the closed form relies on unchecked
    - matrices without a common positive eigenvector are reported as absent;
      periodic matrices that share one are aligned, and power iteration on
      a periodic matrix stops at its first exact cycle
    - the frozen chain's presentation is not finite-to-one: graph paths grow
      faster than words, and the word count's growth rate at N = 13 sits
      more than 0.01 below the closed form (which counts paths)
    - the golden check's path totals equal those of the path-count
      matrices (the oracle) byte for byte up to N = 10
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.checks import _golden_word_and_path_counts, random_sponge
from wtp.errors import ClosedFormUnavailable, NotAligned
from wtp.estimator import nested_count
from wtp.sofic import (
    POWER_MAX_ITERS,
    _power_iterate,
    build_count_matrices,
    detect_alignment,
    golden_mean_chain,
)
from wtp.sponge import Potential, closed_form, hausdorff_dimension
from wtp.symbolic import LabeledGraph, SoficChain, SpongeChain, determinize, validate_digit_system
from wtp.weights import Exponents, exponents_from_bases

PHI = (1 + math.sqrt(5)) / 2
A00 = ((0, 1, 1), (0, 0, 1), (1, 1, 0))
A01 = ((1, 1, 1), (1, 1, 0), (0, 1, 2))
A10 = ((1, 2, 2), (0, 1, 2), (2, 2, 1))


def test_count_matrices_match_pinned_values(golden):
    mats = build_count_matrices(golden.graph)
    assert list(mats) == sorted(golden.system.prefixes(2))
    assert {m.dtype for m in mats.values()} == {np.dtype(np.int64)}
    assert mats[(0, 0)].tolist() == [list(row) for row in A00]
    assert mats[(0, 1)].tolist() == [list(row) for row in A01]
    assert mats[(1, 0)].tolist() == [list(row) for row in A10]
    for label in ((1, 1), (0, 2), (1, 2)):
        assert not mats[label].any()


def test_matrix_power_identities(golden):
    a = np.array(A00)
    assert np.array_equal(a @ a, np.array(A01))
    assert np.array_equal(a @ a @ a, np.array(A10))


def test_sum_of_matrices_is_adjacency_count(golden):
    total = sum(build_count_matrices(golden.graph).values())
    order = {v: i for i, v in enumerate(golden.graph.vertices)}
    adjacency = np.zeros_like(total)
    for s, t, _lab in golden.graph.edges:
        adjacency[order[t], order[s]] += 1
    assert np.array_equal(total, adjacency)


def test_single_vertex_matrices_are_fiber_sizes(carpet):
    chain = SpongeChain(carpet)
    mats = build_count_matrices(chain.graph)
    assert mats[(0,)].tolist() == [[2]]
    assert mats[(1,)].tolist() == [[1]]


def test_alignment_on_golden_chain(golden):
    alignment = detect_alignment(build_count_matrices(golden.graph))
    assert alignment is not None
    v = np.array(alignment.vector)
    expected = np.array([1.0, 1.0 / PHI, 1.0])
    assert np.abs(v - expected).max() <= 1e-10
    assert alignment.eigenvalues[(0, 0)] == pytest.approx(PHI, abs=1e-10)
    assert alignment.eigenvalues[(0, 1)] == pytest.approx(PHI**2, abs=1e-10)
    assert alignment.eigenvalues[(1, 0)] == pytest.approx(PHI**3, abs=1e-10)
    assert (1, 1) not in alignment.eigenvalues  # zero matrices are skipped
    # residual invariant: every nonzero matrix maps v onto lambda v
    for label, m in build_count_matrices(golden.graph).items():
        if not m.any():
            continue
        lam = alignment.eigenvalues[label]
        residual = np.abs(m @ v - lam * v).max()
        assert residual <= 1e-10 * np.abs(lam * v).max()


def test_alignment_of_weighted_float_matrices(golden):
    # per-label weights that are not integers: each eigenvalue scales by its
    # weight and the common vector stays, so float entries are never cast
    weights = {(0, 0): 0.3, (0, 1): math.e, (1, 0): 1 / math.sqrt(2)}
    mats = build_count_matrices(golden.graph)
    plain = detect_alignment(mats)
    weighted = detect_alignment({label: w * mats[label] for label, w in weights.items()})
    assert weighted is not None
    assert weighted.vector == pytest.approx(plain.vector, abs=1e-12)
    assert weighted.eigenvalues == {
        label: pytest.approx(w * plain.eigenvalues[label], rel=1e-12)
        for label, w in weights.items()
    }


def test_one_by_one_matrices_always_align():
    mats = {(0,): np.array([[3]]), (1,): np.array([[5]])}
    alignment = detect_alignment(mats)
    assert alignment is not None
    assert alignment.eigenvalues == {(0,): pytest.approx(3.0), (1,): pytest.approx(5.0)}


def test_misaligned_matrices_return_none():
    # identity fixes every vector, [[2,1],[0,1]] fixes only multiples of (1,0),
    # which is not strictly positive, so no common positive eigenvector exists
    mats = {(0,): np.array([[1, 0], [0, 1]]), (1,): np.array([[2, 1], [0, 1]])}
    assert detect_alignment(mats) is None


def test_periodic_matrices_align():
    # period 2: plain power iteration oscillates between two vectors, yet
    # (sqrt 2, 1) is a positive eigenvector of both matrices
    mats = {(0,): np.array([[0, 2], [1, 0]]), (1,): np.array([[0, 4], [2, 0]])}
    alignment = detect_alignment(mats)
    assert alignment is not None
    assert alignment.vector == pytest.approx((1.0, 1 / math.sqrt(2)), abs=1e-12)
    assert alignment.eigenvalues == {
        (0,): pytest.approx(math.sqrt(2), abs=1e-12),
        (1,): pytest.approx(2 * math.sqrt(2), abs=1e-12),
    }


def test_power_iteration_stops_at_an_exact_cycle():
    # the iterates alternate between (1, 1/2) and (1, 1) for ever; the plain
    # loop would spend all POWER_MAX_ITERS iterations before the I + M rerun
    v, converged, iterations = _power_iterate(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert v is not None and not converged
    assert iterations < 100 < POWER_MAX_ITERS


def test_golden_closed_form_value(golden):
    a1 = math.log(3) / math.log(4)
    a2 = math.log(2) / math.log(3)
    h = closed_form(golden, Exponents((a1, a2))).h_a_nats
    bracket = (PHI**a1 + PHI ** (2 * a1)) ** a2 + PHI ** (3 * a1 * a2)
    assert h == pytest.approx(math.log(bracket), abs=1e-12)
    assert h == pytest.approx(1.4598, abs=5e-5)
    # a_1 a_2 = 1/2 exactly, so the last term is sqrt(phi^3) = sqrt(2 + sqrt 5)
    assert 3 * a1 * a2 == pytest.approx(1.5, abs=1e-14)
    assert PHI ** (3 * a1 * a2) == pytest.approx(math.sqrt(2 + math.sqrt(5)), abs=1e-12)
    assert bracket == pytest.approx(4.3053, abs=5e-5)


def test_golden_closed_form_collapses_at_ones(golden):
    h = closed_form(golden, Exponents((1.0, 1.0))).h_a_nats
    assert h == pytest.approx(math.log(PHI + PHI**2 + PHI**3), abs=1e-10)


def test_dimension_report(golden):
    result = closed_form(golden, exponents_from_bases(golden.system.bases))
    assert result.route == "aligned"
    assert result.h_a_nats == pytest.approx(1.4598, abs=5e-5)
    assert math.log(result.z0) == result.h_a_nats
    assert result.h_a_nats / math.log(2) == pytest.approx(2.1062, abs=1e-3)
    # two edges out of vertex 2 share a label, so the eigenvalues count paths
    assert [code for code, _detail in result.caveats] == ["dimension-ambiguity", "not-right-resolving"]
    assert "ambiguity" in result.caveats[0][1]
    assert result.caveats[1][1] == "vertex '2' has two outgoing edges labeled (1, 0, 3)"


def test_right_resolving_closed_form_carries_only_the_ambiguity():
    # per-label count matrices [[1,1],[1,1]] and [[0,1],[1,0]] share the
    # eigenvector (1, 1); no vertex repeats a label
    sys = validate_digit_system((2, 2), [(0, 0), (0, 1), (1, 0)])
    edges = (
        ("1", "1", (0, 0)), ("1", "2", (0, 1)), ("1", "2", (1, 0)),
        ("2", "1", (0, 0)), ("2", "2", (0, 1)), ("2", "1", (1, 0)),
    )
    result = closed_form(SoficChain(LabeledGraph(("1", "2"), edges, sys)), Exponents((0.5,)))
    assert result.h_a_nats == pytest.approx(math.log(2**0.5 + 1))
    assert [code for code, _detail in result.caveats] == ["dimension-ambiguity"]


def test_sofic_closed_form_takes_no_potential(golden):
    a = exponents_from_bases(golden.system.bases)
    for window, word in ((1, ((0, 0, 0),)), (2, ((0, 0, 0), (0, 0, 1)))):
        f = Potential(window=window, table={word: 5.0})
        with pytest.raises(ClosedFormUnavailable, match="^sofic chains with potentials are estimator-only$"):
            closed_form(golden, a, f)


def test_carpet_as_one_vertex_chain_matches_sponge(carpet, carpet_exponents):
    # the same one-vertex graph, routed by class: SpongeChain counts digits,
    # SoficChain takes the eigenvalues of its 1 x 1 count matrices
    chain = SpongeChain(carpet)
    sponge = closed_form(chain, carpet_exponents)
    aligned = closed_form(SoficChain(chain.graph), carpet_exponents)
    assert (sponge.route, aligned.route) == ("sponge", "aligned")
    assert aligned.h_a_nats == pytest.approx(sponge.h_a_nats, abs=1e-15)
    assert aligned.h_a_nats / math.log(2) == pytest.approx(hausdorff_dimension(carpet), abs=1e-15)


def test_full_product_on_one_vertex_gives_rank():
    bases = (2, 2)
    digits = list(itertools.product(*(range(m) for m in bases)))
    sys = validate_digit_system(bases, digits)
    h = closed_form(SoficChain(SpongeChain(sys).graph), exponents_from_bases(bases)).h_a_nats
    assert h / math.log(bases[0]) == pytest.approx(len(bases), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_aligned_route_reproduces_sponge_route(seed, exponents):
    # Oracle, kept on purpose: the eigenvalue table builder, run on a
    # sponge's own one-vertex graph, must give the digit-count route's bits,
    # so the sofic route stays tested against the sponge route
    sys = random_sponge(np.random.default_rng(seed), max_rank=4, max_base=6, max_digits=40)
    chain = SpongeChain(sys)
    a = Exponents(tuple(exponents[: sys.rank - 1]))
    sponge = closed_form(chain, a)
    aligned = closed_form(SoficChain(chain.graph), a)
    assert (sponge.route, aligned.route) == ("sponge", "aligned")
    assert repr(aligned.h_a_nats) == repr(sponge.h_a_nats)


def test_not_aligned_chain_raises():
    # two-vertex right-resolving graph realizing identity and [[2,1],[0,1]]
    sys = validate_digit_system((2, 2), list(itertools.product(range(2), range(2))))
    g = LabeledGraph(
        vertices=("a", "b"),
        edges=(
            ("a", "a", (0, 0)),
            ("b", "b", (0, 0)),
            ("a", "a", (1, 0)),
            ("a", "a", (1, 1)),
            ("b", "a", (1, 0)),
            ("b", "b", (1, 1)),
        ),
        system=sys,
    )
    from wtp.symbolic import check_right_resolving

    check_right_resolving(g)
    mats = build_count_matrices(g)
    assert mats[(0,)].tolist() == [[1, 0], [0, 1]]
    assert mats[(1,)].tolist() == [[2, 1], [0, 1]]
    with pytest.raises(NotAligned):
        closed_form(SoficChain(g), Exponents((0.5,)))


@st.composite
def _small_graphs(draw):
    """A graph of rank 2 or 3 over bases 2 and 3 on 1-3 vertices.  In about
    half of them every vertex has d_k incoming edges of each level-2 label k,
    with distinct digits and random sources, so their count matrices align
    on the vector of ones; the others have 1-8 random edges."""
    rank = draw(st.integers(2, 3))
    bases = tuple(sorted(draw(st.lists(st.integers(2, 3), min_size=rank, max_size=rank))))
    verts = tuple(str(v) for v in range(draw(st.integers(1, 3))))
    vertex = st.sampled_from(verts)
    if draw(st.booleans()):
        labels = list(itertools.product(*(range(m) for m in bases[:-1])))
        edges = set()
        for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)):
            degree = draw(st.integers(1, 2))
            for target in verts:
                for last in draw(st.permutations(range(bases[-1])))[:degree]:
                    edges.add((draw(vertex), target, label + (last,)))
    else:
        pool = list(itertools.product(*(range(m) for m in bases)))
        edges = set(draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(pool)), min_size=1, max_size=8)))
    sys = validate_digit_system(bases, [lab for _s, _t, lab in edges])
    return LabeledGraph(vertices=verts, edges=tuple(sorted(edges)), system=sys)


@settings(max_examples=300, deadline=None)
@given(graph=_small_graphs())
def test_alignment_makes_every_upper_level_a_full_shift(graph):
    """With M_k v = lambda_k v and v > 0, every vertex has an incoming edge
    of every level-2 label, so each level-2 word reads backwards from any
    vertex along a path: `aligned_table` relies on this instead of checking
    each level's follower automaton."""
    chain = SoficChain(graph)
    if detect_alignment(build_count_matrices(graph)) is None:
        return
    for level in range(2, chain.rank + 1):
        assert chain.is_full_shift(level), level


def _log_spectral_radius(m: np.ndarray) -> float:
    return math.log(max(abs(np.linalg.eigvals(m))))


def test_golden_chain_paths_outgrow_words(golden):
    # Documents the gap between the closed form and the chain's word-based
    # entropy; this pins today's numbers and changes no closed-form pin.
    vertex = {v: i for i, v in enumerate(golden.graph.vertices)}
    edges = np.zeros((len(vertex), len(vertex)))
    for s, t, _label in golden.graph.edges:
        edges[vertex[s], vertex[t]] += 1
    aut = determinize(golden.graph, level=1)
    n = len(aut.states)
    follower = np.zeros((n, n))
    for (s, _letter), t in aut.transitions.items():
        follower[s, t] += 1
    reach = np.linalg.matrix_power(np.eye(n) + follower, n) > 0
    # the terminal component: states that every state they reach reaches back
    terminal = [s for s in range(n) if all(reach[t, s] for t in range(n) if reach[s, t])]
    assert len(terminal) == 6
    graph_rate = _log_spectral_radius(edges)
    word_rate = _log_spectral_radius(follower[np.ix_(terminal, terminal)])
    assert graph_rate == pytest.approx(2.13678, abs=1e-5)
    assert word_rate == pytest.approx(2.11367, abs=1e-5)
    assert graph_rate - word_rate > 0.02

    a = exponents_from_bases(golden.system.bases)
    closed = closed_form(golden, a).h_a_nats
    assert closed == pytest.approx(1.459838, abs=1e-6)
    step = nested_count(golden, a, n=13).log_value - nested_count(golden, a, n=12).log_value
    assert step == pytest.approx(1.4489082, abs=1e-7)
    assert step < closed - 0.01


def test_golden_path_totals_match_einsum_oracle():
    # Oracle: the path-count matrices themselves, left-multiplied by einsum as
    # the check once carried them; the check carries only their row sums.
    chain = golden_mean_chain()
    mats = build_count_matrices(chain.graph)
    labels = sorted(detect_alignment(mats).eigenvalues)
    arrays = {label: mats[label].astype(float) for label in labels}
    paths = np.eye(len(chain.graph.vertices))[None, :, :]
    for n, _words, totals, _lam, _alignment in _golden_word_and_path_counts(10):
        paths = np.concatenate([np.einsum("ij,kjl->kil", arrays[lab], paths) for lab in labels], axis=0)
        assert totals.tobytes() == paths.sum(axis=(1, 2)).tobytes(), n
