"""Exception types shared across the library."""


class SylowlabError(Exception):
    """Base class for all library-specific errors."""


class CapExceeded(SylowlabError):
    """A computation would exceed a configured size cap.

    Carries the offending size and the cap so callers can report or retry
    with a larger budget.  ``required`` is None when the size is only
    known to pass the cap, and the message then says "more than" the cap.
    """

    def __init__(self, what: str, required: int | None, cap: int):
        needs = f"more than {cap}" if required is None else required
        super().__init__(f"{what}: needs {needs}, cap is {cap}")
        self.what = what
        self.required = required
        self.cap = cap


class DegreeMismatch(SylowlabError, ValueError):
    """Permutations of different degrees were combined."""


class InvalidPermutation(SylowlabError, ValueError):
    """An image table or cycle string does not describe a permutation."""


class NotAMember(SylowlabError):
    """An element was expected to lie in a group but does not."""


class NotASubgroup(SylowlabError):
    """A subgroup argument is not contained in the ambient group."""


class NotNormal(SylowlabError):
    """A quotient was requested by a non-normal subgroup."""


class NotMaximal(SylowlabError):
    """A check requires a maximal subgroup."""


class NotTransitive(SylowlabError):
    """A check requires a transitive action."""


class PreconditionFailed(SylowlabError):
    """A documented precondition of an operation does not hold."""


class SylowNotContained(PreconditionFailed):
    """The subgroup does not contain a full Sylow p-subgroup."""


class NotPSolvable(SylowlabError):
    """A check requires a p-solvable group."""


class NoPElement(SylowlabError):
    """No nontrivial p-element exists in the requested context."""


class OutOfDomain(SylowlabError, ValueError):
    """The parameters lie outside the operation's domain.

    Raised when a closed-form formula does not apply, and for a prime
    argument that is not a prime (``gf.check_prime``; ``p_part`` and
    ``is_p_power`` only refuse p < 2).
    """


class InvalidConfig(SylowlabError, ValueError):
    """An environment setting such as ``SYLOWLAB_CAP`` is malformed."""


class ClassNotCoverable(SylowlabError):
    """A conjugacy class meets no proper-subgroup candidate, so no cover exists."""


class UnsupportedField(SylowlabError, ValueError):
    """Requested GF(q) with q not a prime power from 2 to 32."""


class UnsupportedDegree(SylowlabError, ValueError):
    """Requested family parameter is outside the constructible range."""


class ExprSyntaxError(SylowlabError, ValueError):
    """Group expression could not be parsed.  Carries a character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
