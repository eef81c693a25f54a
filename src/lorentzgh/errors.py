"""Exception hierarchy. Every domain error carries a machine-readable payload."""

from __future__ import annotations


class DomainError(Exception):
    """Base for all domain errors; `payload` is JSON-serializable.

    A class names its positional payload in `fields`; one argument past them
    is the message, which defaults to `template` formatted with the payload.
    Every payload value is also an attribute.
    """

    code = "domain-error"
    fields: tuple[str, ...] = ()
    template = ""

    def __init__(self, *args):
        if not len(self.fields) <= len(args) <= len(self.fields) + 1:
            raise TypeError(f"{type(self).__name__} takes {self.fields} and a message")
        payload = dict(zip(self.fields, args))
        message = args[len(self.fields)] if len(args) > len(self.fields) else ""
        super().__init__(message or self.template.format(**payload))
        self.payload = payload
        self.__dict__.update(payload)

    def record(self) -> dict:
        return {"error": self.code, "message": str(self), **self.payload}


class ShapeMismatch(DomainError):
    code = "shape-mismatch"


class AxiomViolation(DomainError):
    """A space or fiber axiom failed; `kind` is 'reverse-triangle', 'triangle',
    'diagonal', 'symmetry' or 'codomain'."""

    code = "axiom-violation"
    fields = ("kind", "witness")
    template = "{kind} violated at {witness}"


class PrePDPRequired(DomainError):
    code = "pre-pdp-required"


class EmptySubset(DomainError):
    code = "empty-subset"


class SizeMismatch(DomainError):
    code = "size-mismatch"


class CapExceeded(DomainError):
    code = "cap-exceeded"


class Uncoverable(DomainError):
    code = "uncoverable"
    fields = ("points",)
    template = "points not coverable: {points}"


class MiddleMismatch(DomainError):
    code = "middle-mismatch"


class CardinalityMismatch(DomainError):
    code = "cardinality-mismatch"
    fields = ("scale", "member")
    template = "net cardinality mismatch at scale {scale}, member {member}"


class EmptyPlan(DomainError):
    code = "empty-plan"


class EpsilonTooLarge(DomainError):
    code = "epsilon-too-large"


class NotAFiberNet(DomainError):
    code = "not-a-fiber-net"
    fields = ("witness",)
    template = "fiber point {witness} not within net radius of any site"


class UnsupportedMetricFamily(DomainError):
    code = "unsupported-metric-family"


class ChartDomain(DomainError):
    code = "chart-domain"


class Unrealizable(DomainError):
    code = "unrealizable"
    fields = ("constraint",)
    template = "side constraint not realizable: {constraint}"


class SolverDiverged(DomainError):
    code = "solver-diverged"


class NetDoesNotCover(DomainError):
    code = "net-does-not-cover"
    fields = ("points",)
    template = "net misses subset points {points}"


class UnmappedAtom(DomainError):
    code = "unmapped-atom"
    fields = ("atom",)
    template = "atom {atom} has no image under the point map"


class UnboundedWeights(DomainError):
    code = "unbounded-weights"
    fields = ("cover_index",)
    template = "weights violate the mass bound at cover level {cover_index}"


class NonCauchy(DomainError):
    code = "non-cauchy"
    fields = ("entry", "depth")
    template = "entry {entry} not Cauchy at depth {depth}"


class ScheduleViolation(DomainError):
    code = "schedule-violation"


class SpecViolated(DomainError):
    code = "spec-violated"
    fields = ("which",)
    template = "blow-up spec invariant violated: {which}"


class NoAdmissibleBasepoints(DomainError):
    code = "no-admissible-basepoints"
    fields = ("lam",)
    template = "no basepoint pair with tau < 1/{lam}"


class CycleDetected(DomainError):
    code = "cycle-detected"


class EmptyRegion(DomainError):
    code = "empty-region"
