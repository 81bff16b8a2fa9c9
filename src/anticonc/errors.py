"""Exception types, default limits and the record base shared across the
library; importing it loads no other layer, so the CLI reads its defaults here."""


class TooLarge(Exception):
    """A size or work limit would be exceeded."""


# Older names of the one limit class.
CapacityExceeded = BudgetExceeded = TooLarge

# The default limit of every work charge counted in elementary steps of
# roughly 10-100 ns: sweep table bytes and leaves, sumset steps, Monte Carlo
# products, and the Bin(k) binomial row and lemma sums.
WORK_LIMIT = 10**8
# The profile kernels' caps (subsetsum), the interval precision cap
# (numerics) and the constant C of the reported checks (lemmas).
DEFAULT_NAIVE_CAP = 24
DEFAULT_DP_CAPACITY = 10**7
DEFAULT_MITM_CAP = 2 * DEFAULT_NAIVE_CAP
DEFAULT_MAX_BITS = 4096
DEFAULT_C = 20.0


def charge(work: int, limit: int, what: str) -> None:
    """Refuse, with TooLarge, work beyond its limit; work past 64 bits is
    named by its bit length, so a refusal stays one short line."""
    if work > limit:
        bits = work.bit_length()
        shown = work if bits <= 64 else f"a {bits}-bit number"
        raise TooLarge(f"{what} = {shown} exceeds the limit {limit}")


class Record:
    """A frozen dataclass without the import: a subclass annotates its fields,
    a class value being the default.  Records are built by position or keyword,
    equal within a class by fields, hashed by fields, shown as
    ``Name(field=value, ...)``, and their fields cannot be assigned."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


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
