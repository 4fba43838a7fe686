"""Shared exception types.

Hard failures (malformed input, violated preconditions) raise; bounded searches
that merely run out of room return verdict objects instead (NoneUpToBounds,
NoneWithinBudget, ...) -- those live next to the operations that produce them.
"""


class DomainError(Exception):
    """An operation failed for scale or structural reasons; the CLI exits 3.
    A mixin: each such error also keeps its ValueError or RuntimeError base."""


class GrammarError(ValueError):
    """Substitution rule text violates the grammar."""


class AlphabetError(ValueError):
    """A word uses letters outside the substitution's alphabet."""


class WindowTooShort(DomainError, ValueError):
    """The window cannot support the requested parse depth: the interior core
    that survives end-clipping is empty."""


class SpanMismatch(DomainError, ValueError):
    """Two windows cover different coordinate intervals and cannot be compared."""


class ScaleTooSmall(DomainError, ValueError):
    """A block longer than the scale, or a front past its letter budget."""


class DecompositionFailure(DomainError, ValueError):
    """An expansion did not split along the expected cut marks."""


class NoNesting(DomainError, ValueError):
    """The substitution has neither the starts-long nor the ends-long property."""


class UnboundedShorts(DomainError, ValueError):
    """No finite bound on all-short blocks was found; the marked-word vocabulary
    would be infinite."""


class CountExceedsImage(DomainError, ValueError):
    """A vertex carries more top edges than its read image has letters, so the
    multi-edge encoding is undefined at this power."""


class ShortLettersPresent(DomainError, ValueError):
    """The operation assumes every letter grows; short letters are present."""


class InsufficientGrowth(DomainError, ValueError):
    """The chain is not yet deep enough for the requested window radius."""


class TooManyPaths(DomainError, ValueError):
    """A path enumeration would materialise more paths than its budget."""


class SymbolTooLarge(DomainError, ValueError):
    """A box matrix would have more cells than its budget."""


class ImproperOrdering(DomainError, RuntimeError):
    """The diagram's ordering does not admit a well-defined successor here
    (several maximal paths and no caller-supplied wrap-around table)."""


class DiagramError(DomainError, ValueError):
    """A diagram operation received structurally invalid data."""
