"""The one closed form of weighted entropy and pressure; sponge dimensions.

The backward recursion contracts prefix tables: start from a table of
length-(r-1) prefixes (a sponge's digit counts, optionally weighted by
exp f, or an aligned sofic chain's per-label eigenvalues), then repeatedly
apply `sum of previous ** exponent` until a scalar remains.  Both routes
return a `ClosedForm` that keeps every table; `kp_recursion` is the sponge
route, and a Z_0 of 0 or inf in floats is a ComputationError.

Index bookkeeping, fixed once here: contracting prefixes of length j to
length j-1 raises to the power a_{r-j} (1-based).  With base-derived
exponents a_i = log m_{r-i} / log m_{r-i+1} this reproduces the classical
recursion whose exponent from length j+1 to j is log m_{j+1} / log m_{j+2}.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter

from .defaults import AMBIGUITY_WARNING
from .errors import (
    ClosedFormUnavailable,
    ComputationError,
    DuplicateLabelAtVertex,
    ExponentLengthMismatch,
    ValidationError,
    WindowUnsupported,
)
from .symbolic import (
    Digit,
    DigitSystem,
    SoficChain,
    SpongeChain,
    _int_tuple,
    _real,
    check_right_resolving,
    validate_digit_system,
)
from .weights import Exponents, exponents_from_bases


def _is_clean_table(table: dict, window: int) -> bool:
    """Keys are `window`-tuples of int tuples and values finite floats: the
    table `Potential` would build, checked without a Python step per entry."""
    if not ({tuple}.issuperset(map(type, table)) and set(map(len, table)) <= {window}):
        return False
    letters = list(itertools.chain.from_iterable(table))
    values = table.values()
    return (
        {tuple}.issuperset(map(type, letters))
        and {int}.issuperset(map(type, itertools.chain.from_iterable(letters)))
        and {float}.issuperset(map(type, values))
        and all(map(math.isfinite, values))
    )


@dataclass(frozen=True)
class Potential:
    """Locally constant potential on the bottom system: a window-k table.

    `table` maps k-tuples of digits to reals; admissible words missing from
    the table contribute 0.  Values are nats per window occurrence.
    """

    window: int
    table: dict

    def __post_init__(self):
        if self.window < 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")
        if _is_clean_table(self.table, self.window):
            object.__setattr__(self, "table", dict(self.table))
            return
        clean = {}
        for word, value in self.table.items():
            if not isinstance(word, tuple):
                raise ValidationError(f"table key {word!r} is not a sequence of letters")
            key = tuple(_int_tuple(d, "potential letter") for d in word)
            if len(key) != self.window:
                raise ValidationError(f"table key {key} has length != window {self.window}")
            v = _real(value, f"potential value for {key}")
            if not math.isfinite(v):
                raise ValidationError(f"non-finite potential value for {key}")
            clean[key] = v
        object.__setattr__(self, "table", clean)

    def __hash__(self):
        return hash((self.window, tuple(sorted(self.table.items()))))

    def value(self, word) -> float:
        return self.table.get(tuple(word), 0.0)

    def letter_values(self, letters) -> list[float]:
        """f(x) for each letter x of a window-1 potential, 0 where the table has none."""
        if self.window != 1:
            raise WindowUnsupported("potentials wider than window 1 are estimator-only")
        return list(map(self.table.get, zip(letters), itertools.repeat(0.0)))

    def weight(self, word) -> float:
        """exp(f(word)); a ComputationError when that overflows a float."""
        v = self.value(word)
        try:
            return math.exp(v)
        except OverflowError:
            raise ComputationError(f"exp of potential value {v} for {tuple(word)} overflows a float") from None


def contract(table: dict, avals, r: int) -> list[dict]:
    """Sum `value ** exponent` grouped by prefix, from length r-1 down to 0.

    `table` maps length-(r-1) prefixes to values: digit counts (optionally
    potential-weighted) for sponges, per-label eigenvalues for sofic chains.
    Returns the tables for prefix lengths r-2, ..., 0; the last is {(): Z_0}.
    """
    levels = []
    for j in range(r - 1, 0, -1):
        exponent = avals[r - j - 1]  # a_{r-j}, 0-based storage
        contracted: dict[Digit, float] = {}
        for prefix, value in table.items():
            key = prefix[: j - 1]
            contracted[key] = contracted.get(key, 0.0) + value**exponent
        levels.append(contracted)
        table = contracted
    return levels


@dataclass(frozen=True)
class ClosedForm:
    """log Z_0 of one contraction, with the route that built its first table.

    `route` is "sponge" (digit counts) or "aligned" (per-label eigenvalues of
    the aligned count matrices).  `caveats` holds (reason code, detail)
    pairs: "dimension-ambiguity" on the aligned route, and
    "not-right-resolving" when two edges from one vertex share a label, so
    that the eigenvalues count graph paths rather than words.  `tables[j]`
    maps the length-j prefixes to their contracted values, j = 0..r-1, so
    `tables[0]` is {(): z0}; it takes no part in repr, equality or hashing.
    """

    h_a_nats: float
    z0: float
    route: str
    caveats: tuple
    tables: tuple = field(repr=False, compare=False)


def _closed_form(table: dict, a: Exponents, route: str, caveats=()) -> ClosedForm:
    """Contract a table of length-(r-1) prefixes down to Z_0, keeping every
    table; a Z_0 of 0 or inf in floats is a ComputationError."""
    levels = [table, *contract(table, a.values, len(a) + 1)]
    z0 = levels[-1][()]
    if not 0.0 < z0 < math.inf:
        cause = "underflow" if z0 == 0.0 else "overflow"
        raise ComputationError(f"Z_0 is {z0!r}: the weights {cause} a float")
    return ClosedForm(
        h_a_nats=math.log(z0), z0=z0, route=route, caveats=tuple(caveats), tables=tuple(reversed(levels))
    )


def _digit_table(sys: DigitSystem, potential: Potential | None) -> dict:
    """Length-(r-1) prefix sums over the digits, each digit e weighted by
    exp(f(e)) under a window-1 potential and by 1 without one."""
    digits = sys.sorted_digits
    if potential is None:
        weights = itertools.repeat(1.0)
    else:
        try:
            weights = list(map(math.exp, potential.letter_values(digits)))
        except OverflowError:
            for d in digits:  # names the first digit whose weight overflows
                potential.weight((d,))
            raise
    table: dict[Digit, float] = {}
    for prefix, weight in zip(map(itemgetter(slice(sys.rank - 1)), digits), weights):
        table[prefix] = table.get(prefix, 0.0) + weight
    return table


def kp_recursion(sys: DigitSystem, a: Exponents, potential: Potential | None = None) -> ClosedForm:
    """The sponge route: contract the digit counts, each digit weighted by
    exp f under a window-1 potential, with every prefix table kept."""
    if len(a) != sys.rank - 1:
        raise ExponentLengthMismatch(f"need {sys.rank - 1} exponents, got {len(a)}")
    return _closed_form(_digit_table(sys, potential), a, "sponge")


def closed_form(chain: SoficChain, a: Exponents, potential: Potential | None = None) -> ClosedForm:
    """Weighted entropy (pressure, under a window-1 potential) in nats.

    A SpongeChain contracts its digit counts, weighted by exp f
    (`kp_recursion`); any other chain contracts the eigenvalues of its
    aligned count matrices, which `wtp.sofic` computes (imported here, so
    sponges load no numpy).  The route follows the class, not the vertex
    count: a one-vertex graph with a repeated label counts paths.  A
    potential wider than window 1, and a sofic chain with any potential,
    raise ClosedFormUnavailable.
    """
    if isinstance(chain, SpongeChain):
        return kp_recursion(chain.system, a, potential)
    if len(a) != chain.rank - 1:
        raise ExponentLengthMismatch(f"need {chain.rank - 1} exponents, got {len(a)}")
    if potential is not None:
        raise ClosedFormUnavailable("sofic chains with potentials are estimator-only")
    from .sofic import aligned_table

    table = aligned_table(chain)
    caveats = [("dimension-ambiguity", AMBIGUITY_WARNING)]
    try:
        check_right_resolving(chain.graph)
    except DuplicateLabelAtVertex as e:
        caveats.append(("not-right-resolving", str(e)))
    return _closed_form(table, a, "aligned", caveats)


def hausdorff_dimension(sys: DigitSystem) -> float:
    """log Z_0 / log m_1 with the base-derived exponents."""
    return kp_recursion(sys, exponents_from_bases(sys.bases)).h_a_nats / math.log(sys.bases[0])


def minkowski_dimension(sys: DigitSystem) -> float:
    """Box dimension: sum over j of log(|D_j| / |D_{j-1}|) / log m_j, |D_0| = 1."""
    total = 0.0
    prev = 1
    for j in range(1, sys.rank + 1):
        cur = len(sys.prefixes(j))
        total += math.log(cur / prev) / math.log(sys.bases[j - 1])
        prev = cur
    return total


def anisotropic_box_count(sys: DigitSystem, n: int) -> int:
    """Boxes of side m_1^{-n} meeting the attractor, counted combinatorially.

    Coordinate i is resolved to n_i = floor(n log m_1 / log m_i) digits; the
    count is the number of distinct digit-sequence truncations.  Serves as an
    independent oracle for minkowski_dimension (log count / (n log m_1)
    converges to it).
    """
    depths = [int(math.floor(n * math.log(sys.bases[0]) / math.log(m))) for m in sys.bases]
    top = max(depths)
    seen = set()
    for seq in itertools.product(sys.sorted_digits, repeat=top):
        key = tuple(
            tuple(seq[t][i] for i, d in enumerate(depths) if t < d) for t in range(top)
        )
        seen.add(key)
    return len(seen)


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
