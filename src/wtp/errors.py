"""Exception hierarchy shared by all modules.

ValidationError subclasses mean the input was malformed; ComputationError
subclasses mean a well-formed request could not be carried out.
"""


class WtpError(Exception):
    pass


class ValidationError(WtpError):
    pass


class ComputationError(WtpError):
    pass


class EmptyDigits(ValidationError):
    pass


class DigitOutOfRange(ValidationError):
    def __init__(self, digit, index):
        self.digit = digit
        self.index = index
        super().__init__(f"digit {digit} out of range at coordinate {index}")


class BasesNotSorted(ValidationError):
    pass


class RankTooSmall(ValidationError):
    pass


class LevelOutOfRange(ValidationError):
    pass


class DuplicateLabelAtVertex(ValidationError):
    def __init__(self, vertex, label):
        self.vertex = vertex
        self.label = label
        super().__init__(f"vertex {vertex!r} has two outgoing edges labeled {label}")


class DeadVertex(ValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} has no outgoing edge")


class InadmissibleWord(ComputationError):
    pass


class ExponentOutOfRange(ValidationError):
    pass


class ExponentLengthMismatch(ValidationError):
    pass


class ClosedFormUnavailable(ComputationError):
    """No closed form covers this chain, exponents and potential; the estimator does."""


class WindowUnsupported(ClosedFormUnavailable):
    pass


class PotentialWindowTooLarge(ComputationError):
    pass


class ComplexityBudgetExceeded(ComputationError):
    def __init__(self, needed, budget):
        self.needed = needed
        self.budget = budget
        super().__init__(f"enumeration needs {needed} words, budget is {budget}")


class NotAligned(ClosedFormUnavailable):
    pass


class DistributionInvalid(ValidationError):
    pass


class ParseError(ValidationError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnsupportedCombination(ValidationError):
    pass
