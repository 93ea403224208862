"""Exception types shared across the library, and the reading of decoded
JSON documents into them."""

from contextlib import contextmanager


class TiltfanError(ValueError):
    """Base class for all validation errors raised by this package."""


class DetNotUnit(TiltfanError):
    pass


class ZeroVector(TiltfanError):
    pass


class NonUnimodularChamber(TiltfanError):
    def __init__(self, index, det=None):
        super().__init__(f"chamber {index} is not unimodular (det {det})")
        self.index = index
        self.det = det


class SignCoherenceViolation(TiltfanError):
    def __init__(self, chamber, coordinate):
        super().__init__(
            f"chamber {chamber} has rays on both sides of base coordinate {coordinate}"
        )
        self.chamber = chamber
        self.coordinate = coordinate


class IncompleteFan(TiltfanError):
    pass


class OrderViolation(TiltfanError):
    def __init__(self, wall):
        super().__init__(f"wall {wall} admits no normal that is nonnegative on the base chamber")
        self.wall = wall


class NotAFace(TiltfanError):
    pass


class NotPalindromic(TiltfanError):
    pass


class NotSkewSymmetric(TiltfanError):
    pass


class SignIncoherence(TiltfanError):
    def __init__(self, k):
        super().__init__(f"c-vector {k} has mixed signs; mutation invariant broken")
        self.k = k


class UnsupportedGraph(TiltfanError):
    pass


class Disconnected(TiltfanError):
    pass


class NotFiniteType(TiltfanError):
    pass


class NotConvex(TiltfanError):
    pass


class OriginNotInterior(TiltfanError):
    pass


class NotRank2(TiltfanError):
    pass


class ParseError(TiltfanError):
    pass


@contextmanager
def reading(what):
    """Report a malformed decoded JSON document as one ParseError.

    Python raises KeyError, TypeError or ValueError when a document lacks a
    key or holds a value of the wrong shape; inside this block each becomes
    a ParseError whose message starts with `what`.
    Errors of this package pass through unchanged.
    """
    try:
        yield
    except TiltfanError:
        raise
    except KeyError as exc:
        raise ParseError(f"{what}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}") from None


def check_schema_version(data):
    """Refuse a decoded document whose "schema_version", 1 if absent, is not
    the integer 1 (`true` and `1.0` compare equal to 1 in Python)."""
    version = data.get("schema_version", 1)
    if type(version) is not int or version != 1:
        raise TiltfanError(f"unsupported schema version {version!r}")


def parse_int(x):
    """x if it is an integer; TypeError for anything else, booleans,
    floats and numeric strings included (for use inside `reading`)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def parse_array(value, what):
    """value if it is a JSON array; TypeError naming `what` for anything
    else (for use inside `reading`)."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be an array, got {value!r}")
    return value
