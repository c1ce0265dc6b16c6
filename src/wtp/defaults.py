"""Defaults and report texts that the CLI reads before any numeric work.

They live apart from the numpy modules that use them, so that parsing a
config and the sponge closed forms never load numpy.
"""

DEFAULT_BUDGET = 10**7  # level-2 words the estimator may enumerate per N
DEFAULT_N_MAX = 12  # longest N of an estimate series
MAX_ITERS = 100_000  # ascent iterations of maximize_bernoulli
# default tolerance: the ascent stops within it of the closed form, or, as a
# fallback, after a run of 50 gains below it
STALL_GAIN = 1e-12

AMBIGUITY_WARNING = (
    "dimension ambiguity: the weighted entropy h (nats) and the quotient "
    "h / log m_1 are both reported; the sponge dimension formula divides by "
    "log m_1, while the nats value itself also circulates as the dimension "
    "of this family; this report does not choose between them"
)
