"""Exception types shared across the library."""


class TooLarge(Exception):
    """A size or work limit would be exceeded."""


# Older names of the one limit class.
CapacityExceeded = BudgetExceeded = TooLarge

# The default limit of every work charge counted in elementary steps of
# roughly 10-100 ns: sweep table bytes and leaves, sumset steps, Monte Carlo
# products, and the Bin(k) binomial row and lemma sums.
WORK_LIMIT = 10**8


def charge(work: int, limit: int, what: str) -> None:
    """Refuse, with TooLarge, work beyond its limit; work past 64 bits is
    named by its bit length, so a refusal stays one short line."""
    if work > limit:
        bits = work.bit_length()
        shown = work if bits <= 64 else f"a {bits}-bit number"
        raise TooLarge(f"{what} = {shown} exceeds the limit {limit}")


class BadParams(ValueError):
    """Parameters violate a structural precondition."""


class Undecidable(Exception):
    """Interval comparison reached the precision cap without separating the values.

    Signals that the rational operand is extraordinarily close to the
    expression value; the comparison is reported, never guessed.
    """


class InvariantViolated(Exception):
    """A provable invariant failed, indicating an implementation bug.

    The offending witness is attached as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
