"""Print repr(log S_N) of weighted nested counts whose bottom DP has several states.

    PYTHONPATH=src python tests/weighted_thread_reprs.py

Their level-2 weights are BLAS products, which fix no order of their sums, so
tests/test_blas_threads.py runs this under 1 and under 2 BLAS threads and
fails if the outputs differ.  The chains are window-2 potentials on sponges of the benchmark's
window-2 shapes (rank 3 and rank 4, five level-2 letters, ten digits, N up
to 8), a window-3 potential on a 15-digit sponge, whose bottom DP has
241 states, up to N = 11, and a window-1 potential on the golden chain, a
sofic bottom whose follower automaton has several states, up to N = 10.
Each case prints nested_count at every N, then the entropy_estimate series
(log S_N / N), the one pass `wtp estimate` runs.
"""
import itertools
import random

from wtp import Potential, SpongeChain, exponents_from_bases, validate_digit_system
from wtp.enumeration import _bottom_matrices
from wtp.estimator import entropy_estimate, nested_count
from wtp.sofic import golden_mean_chain


def _sponge(rng, bases, letters, size):
    """`size` digits spread over `letters` distinct level-2 letters."""
    prefixes = rng.sample(list(itertools.product(*(range(m) for m in bases[:-1]))), letters)
    digits = {p + (rng.randrange(bases[-1]),) for p in prefixes}
    while len(digits) < size:
        digits.add(rng.choice(prefixes) + (rng.randrange(bases[-1]),))
    return sorted(digits)


def _print(label, chain, potential, n_max):
    a, window = exponents_from_bases(chain.system.bases), potential.window
    states = len(_bottom_matrices(chain, potential, window)[0])
    for n in range(window, n_max + 1):
        print(f"{label} states={states} N={n} {nested_count(chain, a, potential, n).log_value!r}")
    for n, value in entropy_estimate(chain, a, potential, n_max=n_max).entries:
        print(f"{label} series N={n} {value!r}")


def main():
    rng = random.Random(16)
    cases = [("rank3-w2", (3, 4, 5), 5, 10, 2, 8), ("rank4-w2", (2, 3, 4, 5), 5, 10, 2, 8),
             ("rank2-w3", (2, 8), 2, 15, 3, 11)]
    for label, bases, letters, size, window, n_max in cases:
        digits = _sponge(rng, bases, letters, size)
        table = {w: rng.gauss(0.0, 1.0) for w in itertools.product(digits, repeat=window) if rng.random() < 0.5}
        _print(label, SpongeChain(validate_digit_system(bases, digits)), Potential(window, table), n_max)
    golden = golden_mean_chain()
    _print("golden-w1", golden, Potential(1, {(x,): rng.gauss(0.0, 1.0) for x in golden.alphabet(1)}), 10)


if __name__ == "__main__":
    main()
