"""Exception types, default limits, the scoped run limits and the record base
shared across the library; importing it loads no other layer, so the CLI reads
its defaults here.

Every limit a caller sets is scoped by ``with work_limit(...):``, as
``decimal.localcontext`` scopes a precision, and read through
``budget(default, name)`` where it is charged, the default holding outside
any block.  ``enum_budget`` limits the enumeration work whose size the caller
chooses (the sumset checks, the frontier sweep and the exact sup-ratio walk);
``naive_cap``, ``dp_cap`` and ``mitm_cap`` the profile kernels and the
cube-set builders; ``precision_cap_bits`` ``cmp_bound``.  The other charges
keep their fixed limits.
"""

from contextlib import contextmanager
from contextvars import ContextVar


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


_LIMITS = ContextVar("work_limit", default={})


@contextmanager
def work_limit(enum_budget=None, *, precision_cap_bits=None, naive_cap=None,
               dp_cap=None, mitm_cap=None):
    """Set the named limits within the block, in this context only; a None
    leaves the one in force."""
    given = dict(enum_budget=enum_budget, precision_cap_bits=precision_cap_bits,
                 naive_cap=naive_cap, dp_cap=dp_cap, mitm_cap=mitm_cap)
    limits = {**_LIMITS.get(), **{k: v for k, v in given.items() if v is not None}}
    token = _LIMITS.set(limits)
    try:
        yield
    finally:
        _LIMITS.reset(token)


def budget(default: int = WORK_LIMIT, name: str = "enum_budget") -> int:
    """The innermost ``work_limit`` of that name in force, or ``default``
    outside any."""
    return _LIMITS.get().get(name, default)


def charge(work: int, limit: int, what: str) -> None:
    """Refuse, with TooLarge, work beyond its limit; work past 64 bits is
    named by its bit length, so a refusal stays one short line."""
    if work > limit:
        bits = work.bit_length()
        shown = work if bits <= 64 else f"a {bits}-bit number"
        raise TooLarge(f"{what} = {shown} exceeds the limit {limit}")


class Record:
    """A frozen dataclass without the import: a subclass annotates its fields,
    a class value being the default, or names them in ``__slots__`` to hold no
    ``__dict__``.  Records are built by position or keyword, equal within a class
    by fields, hashed by fields, shown as ``Name(field=value, ...)``, pickled and
    copied through the constructor, and their fields cannot be assigned."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        own = vars(cls)  # a slotted record's fields are its slots, with no default
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {n: own[n] for n in cls._fields if n in own and "__slots__" not in own}

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __reduce__(self):
        return type(self), self._values()

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
