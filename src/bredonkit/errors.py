"""Exception types raised across the library.

Every error is a subclass of BredonKitError, so callers can catch the whole
family at once.  Names describe the violated precondition or the refused
computation; the message carries the offending object (cell id, grading,
line number) where one exists.
"""


class BredonKitError(Exception):
    """Base class for all library errors."""


class CompositionNotZero(BredonKitError):
    """d_out . d_in is not the zero map, so homology is undefined."""


class NotASubgroup(BredonKitError):
    """Requested subgroup order does not divide the group order."""


class NotPrime(BredonKitError):
    """An operation restricted to prime group order got a composite."""


class PrimeTooLarge(BredonKitError):
    """F_p with (p - 1)**2 >= 2**63 (kept for now, see check_coeff), or a
    number past the range where primality is decided exactly."""


class TrivialCharacter(BredonKitError):
    """Euler data of the trivial character was requested."""


class EmptyRepresentation(BredonKitError):
    """A unit sphere of the zero representation was requested."""


class MissingBasepoint(BredonKitError):
    """A smash product or reduced (co)homology got an unbased complex."""


class UnsupportedGrading(BredonKitError):
    """The grading cannot be reduced by any implemented rule.

    Raised instead of guessing: gradings with a positive character part on
    a non-free complex other than S^0, and integer-coefficient queries that
    would need the mod-p grading collapse, are refused.
    """


class NotFree(BredonKitError):
    """The complex has a fixed (non-basepoint) cell where a free one is required.

    The message names the first offending cell.
    """


class KappaUnsupported(BredonKitError):
    """kappa action requested where no cup-product model is available."""


class ContainmentFails(BredonKitError):
    """The target grading does not contain the sphere representation."""


class WitnessVanishes(BredonKitError):
    """The candidate source class is zero: the model cannot witness anything."""


class CertificateFailed(BredonKitError):
    """Certification aborted; carries the offending record in args."""


class ParseError(BredonKitError):
    """Malformed input text; message includes the 1-based line number."""


class InvariantViolation(BredonKitError):
    """A complex breaks a structural invariant, or has an id save_gcw cannot write."""


class StabilizerMismatch(BredonKitError):
    """Boundary data inconsistent with the declared stabilizers."""


class ComplexTooLarge(BredonKitError):
    """A product complex or a reduced regular join would be too large.

    Predicted before anything is allocated; the message says what it counts.
    """
