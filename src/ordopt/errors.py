"""Exception hierarchy shared across the package."""


class OrdoptError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateAttribute(OrdoptError):
    """A sort order would contain the same attribute twice."""


class NotAPrefix(OrdoptError):
    """Order subtraction was asked for a non-prefix."""


class ParseError(OrdoptError):
    """Input file is not well-formed JSON."""


class ValidationError(OrdoptError):
    """Well-formed input violates a schema or invariant.

    The message starts with a path to the offending node, e.g.
    ``expr.left.join_attrs: ...``.
    """


class UnknownRelation(ValidationError):
    """A query or index refers to a relation absent from the catalog."""


class UnknownAttribute(ValidationError):
    """An attribute is not part of the schema it is used against."""


class ConfigError(OrdoptError):
    """Invalid cost-model or block configuration."""


class TooLarge(OrdoptError):
    """An exhaustive computation was asked beyond its guard limits."""


class UnsortedPrefix(OrdoptError):
    """Sort input violated the declared known-prefix ordering."""
