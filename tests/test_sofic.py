"""Count matrices, spectral alignment, and the sofic closed form.

Core claims:
    - the frozen chain's count matrices are the pinned integer matrices and
      satisfy A^2 = A_(0,1), A^3 = A_(1,0)
    - the matrices share the eigenvector (1, 1/phi, 1) with eigenvalues
      phi, phi^2, phi^3 (phi the golden ratio)
    - the closed form evaluates the nested bracket, about 1.4598 nats, and
      the exponent product makes the last term sqrt(2 + sqrt 5) exactly
    - a full shift encoded on one vertex reproduces the sponge closed form
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

from wtp.checks import _golden_word_and_path_counts
from wtp.errors import NotAligned
from wtp.estimator import nested_count
from wtp.sofic import (
    POWER_MAX_ITERS,
    CountMatrix,
    _power_iterate,
    build_count_matrices,
    detect_alignment,
    golden_mean_chain,
    sofic_dimension_report,
    sofic_weighted_entropy_closed_form,
)
from wtp.sponge import hausdorff_dimension, weighted_entropy_closed_form
from wtp.symbolic import LabeledGraph, SpongeChain, determinize, validate_digit_system
from wtp.weights import Exponents, exponents_from_bases

PHI = (1 + math.sqrt(5)) / 2
A00 = ((0, 1, 1), (0, 0, 1), (1, 1, 0))
A01 = ((1, 1, 1), (1, 1, 0), (0, 1, 2))
A10 = ((1, 2, 2), (0, 1, 2), (2, 2, 1))


def _matrix_map(chain):
    return {m.label: m for m in build_count_matrices(chain.graph, level=2)}


def test_count_matrices_match_pinned_values(golden):
    mats = _matrix_map(golden)
    assert mats[(0, 0)].matrix == A00
    assert mats[(0, 1)].matrix == A01
    assert mats[(1, 0)].matrix == A10
    for label in ((1, 1), (0, 2), (1, 2)):
        assert mats[label].is_zero


def test_matrix_power_identities(golden):
    a = np.array(A00)
    assert np.array_equal(a @ a, np.array(A01))
    assert np.array_equal(a @ a @ a, np.array(A10))


def test_sum_of_matrices_is_adjacency_count(golden):
    total = sum(m.as_array() for m in build_count_matrices(golden.graph))
    order = {v: i for i, v in enumerate(golden.graph.vertices)}
    adjacency = np.zeros_like(total)
    for s, t, _lab in golden.graph.edges:
        adjacency[order[t], order[s]] += 1
    assert np.array_equal(total, adjacency)


def test_single_vertex_matrices_are_fiber_sizes(carpet):
    chain = SpongeChain(carpet)
    mats = _matrix_map(chain)
    assert mats[(0,)].matrix == ((2,),)
    assert mats[(1,)].matrix == ((1,),)


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
    for m in build_count_matrices(golden.graph):
        if m.is_zero:
            continue
        lam = alignment.eigenvalues[m.label]
        residual = np.abs(m.as_array() @ v - lam * v).max()
        assert residual <= 1e-10 * np.abs(lam * v).max()


def test_one_by_one_matrices_always_align():
    mats = [CountMatrix(label=(0,), matrix=((3,),)), CountMatrix(label=(1,), matrix=((5,),))]
    alignment = detect_alignment(mats)
    assert alignment is not None
    assert alignment.eigenvalues == {(0,): pytest.approx(3.0), (1,): pytest.approx(5.0)}


def test_misaligned_matrices_return_none():
    # identity fixes every vector, [[2,1],[0,1]] fixes only multiples of (1,0),
    # which is not strictly positive, so no common positive eigenvector exists
    mats = [
        CountMatrix(label=(0,), matrix=((1, 0), (0, 1))),
        CountMatrix(label=(1,), matrix=((2, 1), (0, 1))),
    ]
    assert detect_alignment(mats) is None


def test_periodic_matrices_align():
    # period 2: plain power iteration oscillates between two vectors, yet
    # (sqrt 2, 1) is a positive eigenvector of both matrices
    mats = [
        CountMatrix(label=(0,), matrix=((0, 2), (1, 0))),
        CountMatrix(label=(1,), matrix=((0, 4), (2, 0))),
    ]
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
    h = sofic_weighted_entropy_closed_form(golden, Exponents((a1, a2)))
    bracket = (PHI**a1 + PHI ** (2 * a1)) ** a2 + PHI ** (3 * a1 * a2)
    assert h == pytest.approx(math.log(bracket), abs=1e-12)
    assert h == pytest.approx(1.4598, abs=5e-5)
    # a_1 a_2 = 1/2 exactly, so the last term is sqrt(phi^3) = sqrt(2 + sqrt 5)
    assert 3 * a1 * a2 == pytest.approx(1.5, abs=1e-14)
    assert PHI ** (3 * a1 * a2) == pytest.approx(math.sqrt(2 + math.sqrt(5)), abs=1e-12)
    assert bracket == pytest.approx(4.3053, abs=5e-5)


def test_golden_closed_form_collapses_at_ones(golden):
    h = sofic_weighted_entropy_closed_form(golden, Exponents((1.0, 1.0)))
    assert h == pytest.approx(math.log(PHI + PHI**2 + PHI**3), abs=1e-10)


def test_dimension_report(golden):
    report = sofic_dimension_report(golden)
    assert report.h_a_nats == pytest.approx(1.4598, abs=5e-5)
    assert report.h_over_log_m1 == pytest.approx(report.h_a_nats / math.log(2), abs=1e-15)
    assert report.h_over_log_m1 == pytest.approx(2.1062, abs=1e-3)
    assert "ambiguity" in report.warning


def test_carpet_as_one_vertex_chain_matches_sponge(carpet, carpet_exponents):
    chain = SpongeChain(carpet)
    h = sofic_weighted_entropy_closed_form(chain, carpet_exponents)
    assert h == pytest.approx(weighted_entropy_closed_form(carpet, carpet_exponents), abs=1e-15)
    report = sofic_dimension_report(chain)
    assert report.h_over_log_m1 == pytest.approx(hausdorff_dimension(carpet), abs=1e-15)


def test_full_product_on_one_vertex_gives_rank():
    bases = (2, 2)
    digits = list(itertools.product(*(range(m) for m in bases)))
    sys = validate_digit_system(bases, digits)
    report = sofic_dimension_report(SpongeChain(sys))
    assert report.h_over_log_m1 == pytest.approx(len(bases), abs=1e-12)


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
    from wtp.symbolic import SoficChain, check_right_resolving

    check_right_resolving(g)
    mats = _matrix_map(SoficChain(g))
    assert mats[(0,)].matrix == ((1, 0), (0, 1))
    assert mats[(1,)].matrix == ((2, 1), (0, 1))
    with pytest.raises(NotAligned):
        sofic_weighted_entropy_closed_form(SoficChain(g), Exponents((0.5,)))


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
    closed = sofic_weighted_entropy_closed_form(golden, a)
    assert closed == pytest.approx(1.459838, abs=1e-6)
    step = nested_count(golden, a, n=13).log_value - nested_count(golden, a, n=12).log_value
    assert step == pytest.approx(1.4489082, abs=1e-7)
    assert step < closed - 0.01


def test_golden_path_totals_match_einsum_oracle():
    # Oracle: the path-count matrices themselves, left-multiplied by einsum as
    # the check once carried them; the check carries only their row sums.
    chain = golden_mean_chain()
    mats = build_count_matrices(chain.graph, level=2)
    labels = sorted(detect_alignment(mats).eigenvalues)
    arrays = {m.label: m.as_array().astype(float) for m in mats if not m.is_zero}
    paths = np.eye(len(chain.graph.vertices))[None, :, :]
    for n, _words, totals, _lam, _alignment in _golden_word_and_path_counts(10):
        paths = np.concatenate([np.einsum("ij,kjl->kil", arrays[lab], paths) for lab in labels], axis=0)
        assert totals.tobytes() == paths.sum(axis=(1, 2)).tobytes(), n
