"""Exception types shared across the library."""


class EggboxError(Exception):
    """Base class for all library errors."""


class CapExceeded(EggboxError):
    """A closure or enumeration grew past its element cap."""

    def __init__(self, cap, reached):
        super().__init__(f"closure exceeded cap {cap} (at least {reached} elements)")
        self.cap = cap
        self.reached = reached


class InconsistentProduct(EggboxError):
    """A product rule produced a value outside the representable domain."""


class NotWellDefined(EggboxError):
    """Generator images do not extend to a homomorphism."""


class NotSurjective(EggboxError):
    """An operation required a surjective homomorphism."""


class NotIdempotent(EggboxError):
    """An operation required an idempotent element."""


class NotInMinimalIdeal(EggboxError):
    """The given element does not lie in the minimal ideal."""


class NotClosed(EggboxError):
    """The given element set is not closed under the product."""


class NoIdempotents(EggboxError):
    """A closed non-empty subsemigroup of a finite monoid always has an
    idempotent; hitting this indicates an internal error."""


class NotRowMonomial(EggboxError):
    """Malformed row-monomial matrix input."""


class NotInLocalMonoid(EggboxError):
    """The element does not belong to the local monoid eSe."""


class NTooSmall(EggboxError):
    """The cover modulus is below the required bound."""

    def __init__(self, n, bound):
        super().__init__(f"modulus {n} is too small, need n >= {bound}")
        self.n = n
        self.bound = bound


class TooFewGenerators(EggboxError):
    """The base monoid needs at least two listed generators."""


class PrimeBoundViolated(EggboxError):
    """No admissible prime exceeds the required bound."""


class NonSurjectiveAlpha(EggboxError):
    """The extension map of an embedding problem must be onto."""


class KMismatch(EggboxError):
    """The declared codomain is not isomorphic to the computed maximal
    subgroup of the base."""


class NotSimple(EggboxError):
    """The given group is not simple."""


class InternalInconsistency(EggboxError):
    """A structural invariant failed to hold; indicates a bug."""


class ParseError(EggboxError):
    """Definition file syntax error."""

    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownObject(EggboxError):
    """A name does not resolve to a declared or built-in object."""
