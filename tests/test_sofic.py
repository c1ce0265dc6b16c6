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
      periodic matrices that share one are aligned, and the old power
      iteration (kept as an oracle) stops at its first exact cycle on one
    - a summed matrix whose basic classes are not its final classes is not
      aligned, by either route: [[2,1,1],[0,1,1],[0,0,2]] (a repeated
      Perron value, where iteration converges like 1/k) and a 3-vertex
      chain with that sum answer in well under 0.5 s
    - the strong components and final flags of `_classes` match a
      pure-Python reachability oracle; whenever the class check passes,
      power iteration on I + M and `detect_alignment` on M both give a
      positive Perron vector, and otherwise M aligns nothing; the
      equal-in-degree-per-label graphs are never rejected
    - on random matrix dicts every vector returned is a common eigenvector,
      and whatever the power-iteration oracle accepts is accepted with its
      eigenvalues within 1e-10; matrices built around an integer vector and
      integer eigenvalues align with those eigenvalues within 1e-12
    - several final classes: the A/B/T chain aligns on (1, 2, 2) with
      lambda = (2, 2), `wtp entropy` prints log(2 sqrt 2) and `wtp check`
      passes; equal row sums whose all-ones vector is not common still
      align; an integer vector (1, 2) gives eigenvalues 2, 1, 2 exactly; a
      null space whose projection of the all-ones vector is not positive is
      a strict xfail
    - the frozen chain's presentation is not finite-to-one: graph paths grow
      faster than words, and the word count's growth rate at N = 13 sits
      more than 0.01 below the closed form (which counts paths)
    - on the frozen chain up to N = 10, every level-2 word is admissible,
      has at least as many paths as words, and its word count stays within
      the constant |V| * (max v / min v) of its eigenvalue product
    - those path totals equal the path-count matrices' (the oracle) byte
      for byte up to N = 10
"""
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtp.cli import main
from wtp.errors import ClosedFormUnavailable, NotAligned
from wtp.estimator import nested_count
from wtp.sofic import (
    BASIC_TOL,
    MIN_POSITIVE,
    VERIFY_TOL,
    _classes,
    build_count_matrices,
    detect_alignment,
    golden_mean_chain,
)
from wtp.sponge import Potential, closed_form, hausdorff_dimension
from wtp.symbolic import LabeledGraph, SoficChain, SpongeChain, determinize, validate_digit_system
from wtp.weights import Exponents, exponents_from_bases

from chain_tools import golden_word_and_path_counts, random_sponge

PHI = (1 + math.sqrt(5)) / 2
A00 = ((0, 1, 1), (0, 0, 1), (1, 1, 0))
A01 = ((1, 1, 1), (1, 1, 0), (0, 1, 2))
A10 = ((1, 2, 2), (0, 1, 2), (2, 2, 1))

# Oracle, kept on purpose: the route `detect_alignment` took before it read
# the common vector off the Frobenius classes.  Power iteration from the
# all-ones vector on the summed matrix, rerun on I + M when it does not
# converge, behind the same class check; it may miss a common vector of a
# several-dimensional Perron eigenspace, but what it accepts must align.
POWER_TOL = 1e-13
POWER_MAX_ITERS = 100_000


def _power_iterate(matrix: np.ndarray):
    """Power iteration from the all-ones vector, each iterate scaled to max 1.

    Returns (vector, converged, iterations); the vector is None once an
    iterate vanishes.  Each iterate is also compared with a checkpoint moved
    at powers of two (Brent's cycle detection): an exact repeat means the
    iterates cycle through values already tested, so the iteration stops as
    not converged, as all POWER_MAX_ITERS iterations would.
    """
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


def _basic_classes_are_final(m: np.ndarray) -> bool:
    """Whether m's basic classes (radius within BASIC_TOL of the largest) are
    its final classes; one class passes without eigenvalue work."""
    classes = _classes(m)
    if len(classes) == 1:
        return True
    radii = [abs(np.linalg.eigvals(m[np.ix_(c, c)])).max() for c, _final in classes]
    top = max(radii)
    return all((top - r <= BASIC_TOL * top) == final for r, (_c, final) in zip(radii, classes))


def _power_iteration_alignment(matrices: dict):
    """(vector, eigenvalues) as the old route found them, or None."""
    nonzero = {label: np.asarray(m, dtype=float) for label, m in matrices.items() if np.any(m)}
    if not nonzero:
        return None
    total = sum(nonzero.values())
    if not (np.isfinite(total).all() and _basic_classes_are_final(total)):
        return None
    v, converged, _ = _power_iterate(total)
    if v is not None and not converged:
        v, converged, _ = _power_iterate(total + np.eye(len(total)))
    if not converged or v.min() < MIN_POSITIVE * v.max():
        return None
    eigenvalues = {}
    for label, arr in nonzero.items():
        image = arr @ v
        lam = float(np.dot(image, v) / np.dot(v, v))
        if lam <= 0 or np.abs(image - lam * v).max() > VERIFY_TOL * np.abs(lam * v).max():
            return None
        eigenvalues[label] = lam
    return v, eigenvalues


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


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_matrices_return_none(bad):
    # `eig` rejects a non-finite block, so these answer before any class work
    assert detect_alignment({(0,): np.array([[bad, 1.0], [0.0, 1.0]]), (1,): np.eye(2)}) is None


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
    # the oracle's iterates alternate between (1, 1/2) and (1, 1) for ever;
    # the plain loop would spend all POWER_MAX_ITERS iterations before the
    # I + M rerun; the direct route reads the vector off the matrix at once
    matrix = np.array([[0.0, 2.0], [1.0, 0.0]])
    v, converged, iterations = _power_iterate(matrix)
    assert v is not None and not converged
    assert iterations < 100 < POWER_MAX_ITERS
    assert detect_alignment({(0,): matrix}).vector == pytest.approx((1.0, 1 / math.sqrt(2)), abs=1e-12)


# classes {0} and {2} both have radius 2, and only {2} is final
REPEATED_PERRON = ((2, 1, 1), (0, 1, 1), (0, 0, 2))


def test_repeated_perron_value_is_not_aligned_at_once():
    # the oracle's power iteration converges only like 1/k here: an answer
    # from it alone would take all POWER_MAX_ITERS iterations twice, over a
    # second; the class check answers both routes at once
    for route in (detect_alignment, _power_iteration_alignment):
        start = time.perf_counter()
        assert route({(0,): np.array(REPEATED_PERRON)}) is None
        assert time.perf_counter() - start < 0.5


def test_chain_with_repeated_perron_value_raises_not_aligned_fast():
    sys = validate_digit_system((2, 2), list(itertools.product(range(2), range(2))))
    # an edge s -> t adds 1 at entry (t, s) of its label's matrix
    edges = (
        ("a", "a", (0, 0)), ("a", "a", (1, 0)), ("b", "a", (0, 1)), ("c", "a", (1, 1)),
        ("b", "b", (0, 0)), ("c", "b", (0, 0)), ("c", "c", (0, 0)), ("c", "c", (1, 1)),
    )
    g = LabeledGraph(vertices=("a", "b", "c"), edges=edges, system=sys)
    assert sum(build_count_matrices(g).values()).tolist() == [list(row) for row in REPEATED_PERRON]
    start = time.perf_counter()
    with pytest.raises(NotAligned):
        closed_form(SoficChain(g), Exponents((0.5,)))
    assert time.perf_counter() - start < 0.5


_small_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)
).map(np.array)


def _reachability_classes(m):
    """Oracle: reach sets by depth-first search, classes as mutual reach."""
    n = len(m)
    reach = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            j = stack.pop()
            for k in range(n):
                if m[j][k] > 0 and k not in seen:
                    seen.add(k)
                    stack.append(k)
        reach.append(seen)
    classes = []
    for i in range(n):
        members = sorted(j for j in reach[i] if i in reach[j])
        if members[0] == i:
            classes.append((members, reach[i] == set(members)))
    return classes


@settings(max_examples=200, deadline=None)
@given(m=_small_matrices)
def test_classes_match_reachability_oracle(m):
    assert _classes(m) == _reachability_classes(m.tolist())


@settings(max_examples=200, deadline=None)
@given(m=_small_matrices)
def test_passing_class_check_has_a_positive_perron_vector(m):
    """Basic classes equal to final classes give a positive eigenvector:
    the oracle's power iteration on I + M, which is aperiodic, finds it, and
    `detect_alignment` finds one for M alone.  Other matrices align nothing."""
    alignment = detect_alignment({(0,): m})
    if not _basic_classes_are_final(m):
        assert alignment is None
        return
    v, converged, _ = _power_iterate(m + np.eye(len(m)))
    assert converged
    assert v.min() >= MIN_POSITIVE * v.max()
    rho = max(abs(np.linalg.eigvals(m)))
    assert np.abs(m @ v - rho * v).max() <= 1e-9 * (1 + rho)
    if m.any():
        w = np.array(alignment.vector)
        assert w.min() >= MIN_POSITIVE
        assert np.abs(m @ w - rho * w).max() <= 1e-9 * (1 + rho)


_matrix_dicts = st.integers(1, 4).flatmap(
    lambda n: st.dictionaries(
        st.tuples(st.integers(0, 3)),
        st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n).map(np.array),
        min_size=1,
        max_size=3,
    )
)


@settings(max_examples=300, deadline=None)
@given(mats=_matrix_dicts)
def test_direct_route_accepts_what_power_iteration_accepts(mats):
    """Every vector returned is a common eigenvector, and whatever the old
    route accepts the direct one accepts, with the same eigenvalues."""
    alignment = detect_alignment(mats)
    old = _power_iteration_alignment(mats)
    if alignment is not None:
        v = np.array(alignment.vector)
        assert v.min() >= MIN_POSITIVE and v.max() == 1.0
        assert set(alignment.eigenvalues) == {label for label, m in mats.items() if m.any()}
        for label, lam in alignment.eigenvalues.items():
            assert np.abs(mats[label] @ v - lam * v).max() <= 1e-9 * lam
    if old is not None:
        assert alignment is not None
        assert alignment.eigenvalues == {label: pytest.approx(lam, rel=1e-10) for label, lam in old[1].items()}


@st.composite
def _built_alignments(draw):
    """Count matrices built around a chosen positive integer vector v and
    integer eigenvalues lambda_k: 1-3 final groups of 1-2 vertices, the first
    of each with v = 1, whose rows take sources inside the group, and 0-2
    transient vertices, whose rows take sources anywhere.  Each row t of
    label k takes sources s with v_s within what is left, until their v
    sum to lambda_k v_t, so M_k v = lambda_k v by construction."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    group = [g for g, size in enumerate(sizes) for _ in range(size)] + [None] * draw(st.integers(0, 2))
    v = [1 if g is not None and group.index(g) == i else draw(st.integers(1, 3)) for i, g in enumerate(group)]
    lams = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    mats = {}
    for k, lam in enumerate(lams):
        m = np.zeros((len(v), len(v)), dtype=np.int64)
        for t, g in enumerate(group):
            rest = lam * v[t]
            while rest:
                s = draw(st.sampled_from([s for s, h in enumerate(group) if g in (None, h) and v[s] <= rest]))
                m[t, s] += 1
                rest -= v[s]
        mats[(k,)] = m
    return lams, mats


@settings(max_examples=300, deadline=None)
@given(case=_built_alignments())
def test_built_alignments_are_found_with_exact_eigenvalues(case):
    lams, mats = case
    alignment = detect_alignment(mats)
    assert alignment is not None
    for k, lam in enumerate(lams):
        assert alignment.eigenvalues[(k,)] == pytest.approx(lam, rel=1e-12, abs=0)


def _abt_graph():
    """A and B each carry the four self-loops of bases (2, 4) with last
    digit 0 or 1; A -> T carries (0, 2) and (0, 3), B -> T carries (1, 2) and
    (1, 3), and T loops on (0, 0).  The count matrices share the eigenvector
    (1, 2, 2) with lambda = (2, 2), in a Perron eigenspace of two dimensions
    (one per final class {A}, {B}) that power iteration from the all-ones
    vector does not search."""
    sys = validate_digit_system((2, 4), [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    loops = [(v, v, (i, j)) for v in "AB" for i in range(2) for j in range(2)]
    edges = loops + [("A", "T", (0, 2)), ("A", "T", (0, 3)), ("B", "T", (1, 2)), ("B", "T", (1, 3)), ("T", "T", (0, 0))]
    return LabeledGraph(vertices=("A", "B", "T"), edges=tuple(edges), system=sys)


def test_several_final_classes_align_on_their_common_vector(tmp_path, capsys):
    g = _abt_graph()
    mats = build_count_matrices(g)
    assert _power_iteration_alignment(mats) is None  # the false "not aligned" of the old route
    alignment = detect_alignment(mats)
    assert alignment.vector == pytest.approx((0.5, 1.0, 1.0), abs=1e-15)
    assert alignment.eigenvalues == {(0,): 2.0, (1,): 2.0}

    doc = {"system": {"sofic": {"bases": [2, 4], "vertices": list(g.vertices),
                                "edges": [[s, t, list(lab)] for s, t, lab in g.edges]}}}
    path = tmp_path / "abt.json"
    path.write_text(json.dumps(doc))
    assert main(["entropy", "--config", str(path)]) == 0
    h = json.loads(capsys.readouterr().out)["closed_form"]["h_a_nats"]
    assert h == pytest.approx(math.log(2 * math.sqrt(2)), abs=1e-12)
    assert main(["check", "--config", str(path)]) == 0
    assert all(row["passed"] for row in json.loads(capsys.readouterr().out)["checks"])


def test_equal_row_sums_fall_back_to_the_classes():
    # the summed matrix has row sums (4, 4, 4), yet all ones is not common:
    # A and B loop twice on each label, T takes three label-0 edges from A
    # and one label-1 edge from B; (1, 3, 3/2) is common with lambda = (2, 2)
    mats = {
        (0,): np.array([[2, 0, 0], [0, 2, 0], [3, 0, 0]]),
        (1,): np.array([[2, 0, 0], [0, 2, 0], [0, 1, 0]]),
    }
    assert _power_iteration_alignment(mats) is None
    alignment = detect_alignment(mats)
    assert alignment.vector == pytest.approx((1 / 3, 1.0, 0.5), abs=1e-15)
    assert alignment.eigenvalues == {(0,): pytest.approx(2.0, abs=1e-15), (1,): pytest.approx(2.0, abs=1e-15)}


def test_integer_eigenvector_gives_exact_eigenvalues():
    # vertices P, Q over bases (2, 3, 3): labels (0, 0) and (1, 0) on edges
    # Q -> P, P -> Q twice and Q -> Q (eigenvalue 2), label (0, 1) on P -> P
    # and P -> Q twice (eigenvalue 1); the common vector is (1, 2)
    eigenvalue_2 = (("Q", "P", 0), ("P", "Q", 0), ("P", "Q", 1), ("Q", "Q", 1))
    edges = [(s, t, (i, 0, d)) for i in range(2) for s, t, d in eigenvalue_2]
    edges += [("P", "P", (0, 1, 0)), ("P", "Q", (0, 1, 1)), ("P", "Q", (0, 1, 2))]
    sys = validate_digit_system((2, 3, 3), [lab for _s, _t, lab in edges])
    mats = build_count_matrices(LabeledGraph(("P", "Q"), tuple(edges), sys))
    alignment = detect_alignment(mats)
    assert alignment.vector == (0.5, 1.0)
    assert alignment.eigenvalues == {(0, 0): 2.0, (0, 1): 1.0, (1, 0): 2.0}


@pytest.mark.xfail(strict=True, reason="the all-ones vector projects onto the null space off the positive orthant")
def test_undecided_null_space():
    # final classes {0}, {1}, {2} loop once on each label; T (vertex 3) takes
    # label-0 edges six from 0 and two from 1, and label-1 edges one from 2.
    # Scales c with 6 c_0 + 2 c_1 = c_2 make (1, 1, 8, 8) common with
    # lambda = (1, 1), but the projection of (1, 1, 1) onto that plane is
    # negative on class {0}; finding a positive point is a small linear program
    loops = np.diag([1, 1, 1, 0])
    mats = {
        (0,): loops + np.array([[0] * 4] * 3 + [[6, 2, 0, 0]]),
        (1,): loops + np.array([[0] * 4] * 3 + [[0, 0, 1, 0]]),
    }
    v = np.array([1, 1, 8, 8])
    assert all((m @ v == v).all() for m in mats.values())
    assert detect_alignment(mats) is not None


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
def _small_graphs(draw, equal_in_degree=st.booleans()):
    """A graph of rank 2 or 3 over bases 2 and 3 on 1-3 vertices.  In about
    half of them (all, with equal_in_degree=st.just(True)) every vertex has
    d_k incoming edges of each level-2 label k, with distinct digits and
    random sources, so their count matrices align on the vector of ones;
    the others have 1-8 random edges."""
    rank = draw(st.integers(2, 3))
    bases = tuple(sorted(draw(st.lists(st.integers(2, 3), min_size=rank, max_size=rank))))
    verts = tuple(str(v) for v in range(draw(st.integers(1, 3))))
    vertex = st.sampled_from(verts)
    if draw(equal_in_degree):
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


@settings(max_examples=100, deadline=None)
@given(graph=_small_graphs(equal_in_degree=st.just(True)))
def test_equal_in_degree_graphs_pass_the_class_check(graph):
    mats = build_count_matrices(graph)
    assert _basic_classes_are_final(sum(mats.values()))
    alignment = detect_alignment(mats)
    assert alignment is not None
    assert alignment.vector == (1.0,) * len(graph.vertices)


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
    # Oracle: the path-count matrices themselves, left-multiplied by einsum;
    # `golden_word_and_path_counts` carries only their row sums.
    chain = golden_mean_chain()
    mats = build_count_matrices(chain.graph)
    labels = sorted(detect_alignment(mats).eigenvalues)
    arrays = {label: mats[label].astype(float) for label in labels}
    paths = np.eye(len(chain.graph.vertices))[None, :, :]
    for n, _words, totals, _lam, _alignment in golden_word_and_path_counts(10):
        paths = np.concatenate([np.einsum("ij,kjl->kil", arrays[lab], paths) for lab in labels], axis=0)
        assert totals.tobytes() == paths.sum(axis=(1, 2)).tobytes(), n


def test_golden_growth_sandwich():
    # |V| * (max v / min v) bounds the word/eigenvalue ratios only up to the
    # length tested: the smallest ratio shrinks by about 4 / phi^3 per letter
    nv = len(golden_mean_chain().graph.vertices)
    lo, hi, c = math.inf, 0.0, None
    for n, wc, paths, lam, alignment in golden_word_and_path_counts(10):
        vec = np.array(alignment.vector)
        c = nv * float(vec.max() / vec.min())
        assert wc.min() > 0, f"inadmissible word at N = {n}"
        assert not (paths < wc - 1e-9).any(), n
        ratio = wc / lam
        lo, hi = min(lo, float(ratio.min())), max(hi, float(ratio.max()))
    assert lo >= 1.0 / c and hi <= c, (lo, hi, c)
