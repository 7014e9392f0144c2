"""Exception types shared across the package, and the fixed order and
the one message in which validation problems are reported."""


class FixcatError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FixcatError):
    """A structure failed its construction-time invariants."""


class TypeMismatch(FixcatError):
    """Boundary objects of composed cells do not line up."""


class BoundaryMismatch(FixcatError):
    """A 2-cell expression composes cells whose boundaries disagree."""


class SizeCap(FixcatError):
    """An enumeration was requested above the configured search bound."""


class NoInitialObject(FixcatError):
    """The category has no initial object to start a chain from."""


class NoMediator(FixcatError):
    """No algebra cell to the target was found by exhaustive search."""


class UniquenessViolation(FixcatError):
    """A property that demands exactly one witness found another count."""

    def __init__(self, count, message=""):
        self.count = count
        super().__init__(message or f"expected exactly one witness, found {count}")


class NotInvertible(FixcatError):
    """An arrow or 2-cell required to be invertible has no two-sided inverse."""


class NotContractible(FixcatError):
    """Operator comparison found no unique connecting isomorphism."""


class InvalidSquare(FixcatError):
    """A uniformity square's commuting condition does not hold."""


class NoProducts(FixcatError):
    """The model does not implement binary products."""


class NotCartesian(FixcatError):
    """A polynomial morphism's squares do not commute or are not pullbacks."""


class SchemaError(FixcatError):
    """An input document does not match its declared shape."""


def sort_key(x):
    """A total sort key: class name, then the value of a str or int, else repr."""
    cls = type(x)
    if cls is str or cls is int:
        return (cls.__name__, x)
    return (cls.__name__, repr(x))


def in_fixed_order(problems_of, *collections):
    """The problems `problems_of(*collections)` finds, in an order that does
    not depend on the hash seed: when it finds any, they are found again
    over each collection sorted by `sort_key`.  A valid structure pays for
    no sort."""
    problems = problems_of(*collections)
    if problems:
        problems = problems_of(*(sorted(c, key=sort_key)
                                 for c in collections))
    return problems


def require_valid(name, problems):
    """Raise ValidationError for `name`'s `problems`, if there are any."""
    if problems:
        raise ValidationError(f"{name}: " + "; ".join(problems))
