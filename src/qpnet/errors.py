"""Exception hierarchy shared by all qpnet modules."""


class QpnError(Exception):
    """Base class for every error raised by this package."""


class NegativeMass(QpnError):
    pass


class MassNotOne(QpnError):
    def __init__(self, actual_sum):
        self.actual_sum = actual_sum
        super().__init__(f"probabilities sum to {actual_sum!r}, expected 1")


class ShapeMismatch(QpnError):
    pass


class DuplicateVariable(QpnError):
    pass


class UnknownVariable(QpnError):
    pass


class UnknownLevel(QpnError):
    pass


class ZeroProbabilityEvidence(QpnError):
    pass


class SupportMismatch(QpnError):
    pass


class CycleDetected(QpnError):
    pass


class OverlappingSets(QpnError):
    pass


class ContextOverlap(QpnError):
    pass


class ZeroColumn(QpnError):
    pass


class SupportTooLarge(QpnError):
    pass


class NotMlrp(QpnError):
    pass


class IsMlrp(QpnError):
    pass


class TooManyParents(QpnError):
    pass


class NoSuchEdge(QpnError):
    pass


class WouldCreateCycle(QpnError):
    pass


class Stuck(QpnError):
    pass


class BadEvidenceSign(QpnError):
    pass


class BadProbability(QpnError):
    pass


class ParseError(QpnError):
    pass
