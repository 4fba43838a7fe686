"""Shared exception types.

Hard failures (malformed input, violated preconditions) raise; bounded searches
that merely run out of room return verdict objects instead (NoneUpToBounds,
NoneWithinBudget, ...) -- those live next to the operations that produce them.
"""


class GrammarError(ValueError):
    """Substitution rule text violates the grammar."""


class AlphabetError(ValueError):
    """A word uses letters outside the substitution's alphabet."""


class WindowTooShort(ValueError):
    """The window cannot support the requested parse depth: the interior core
    that survives end-clipping is empty."""


class SpanMismatch(ValueError):
    """Two windows cover different coordinate intervals and cannot be compared."""


class ScaleTooSmall(ValueError):
    """A bounded scan hit a block longer than the requested scale; retry larger."""


class DecompositionFailure(ValueError):
    """An expansion did not split along the expected cut marks."""


class NoNesting(ValueError):
    """The substitution has neither the starts-long nor the ends-long property."""


class UnboundedShorts(ValueError):
    """No finite bound on all-short blocks was found; the marked-word vocabulary
    would be infinite."""


class CountExceedsImage(ValueError):
    """A vertex carries more top edges than its read image has letters, so the
    multi-edge encoding is undefined at this power."""


class ShortLettersPresent(ValueError):
    """The operation assumes every letter grows; short letters are present."""


class InsufficientGrowth(ValueError):
    """The chain is not yet deep enough for the requested window radius."""


class TooManyPaths(ValueError):
    """A path enumeration would materialise more paths than its budget."""


class ImproperOrdering(RuntimeError):
    """The diagram's ordering does not admit a well-defined successor here
    (several maximal paths and no caller-supplied wrap-around table)."""


class DiagramError(ValueError):
    """A diagram operation received structurally invalid data."""
