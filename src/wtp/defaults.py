"""Estimator defaults and report texts that the CLI reads before any numeric work.

They live in a module that imports nothing, so that parsing a config loads
none of the numeric modules that use them.  The variational certificate has
no settings: its maximizer is built in closed form.
"""

DEFAULT_BUDGET = 10**7  # level-2 words the estimator may enumerate per N
DEFAULT_N_MAX = 12  # longest N of an estimate series

AMBIGUITY_WARNING = (
    "dimension ambiguity: the weighted entropy h (nats) and the quotient "
    "h / log m_1 are both reported; the sponge dimension formula divides by "
    "log m_1, while the nats value itself also circulates as the dimension "
    "of this family; this report does not choose between them"
)
