"""Exception hierarchy. Every domain error carries a machine-readable payload."""

from __future__ import annotations


class DomainError(Exception):
    """Base for all domain errors; `payload` is JSON-serializable."""

    code = "domain-error"

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.payload = payload

    def record(self) -> dict:
        return {"error": self.code, "message": str(self), **self.payload}


class ShapeMismatch(DomainError):
    code = "shape-mismatch"


class AxiomViolation(DomainError):
    """A space axiom failed; `kind` is 'reverse-triangle', 'diagonal' or 'codomain'."""

    code = "axiom-violation"

    def __init__(self, kind: str, witness, message: str = ""):
        super().__init__(message or f"{kind} violated at {witness}",
                         kind=kind, witness=witness)
        self.kind = kind
        self.witness = witness


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

    def __init__(self, points, message: str = ""):
        super().__init__(message or f"points not coverable: {sorted(points)}",
                         points=sorted(points))
        self.points = sorted(points)


class MiddleMismatch(DomainError):
    code = "middle-mismatch"


class CardinalityMismatch(DomainError):
    code = "cardinality-mismatch"

    def __init__(self, scale, member, message: str = ""):
        super().__init__(message or f"net cardinality mismatch at scale {scale}, member {member}",
                         scale=scale, member=member)
        self.scale = scale
        self.member = member


class EmptyPlan(DomainError):
    code = "empty-plan"


class EpsilonTooLarge(DomainError):
    code = "epsilon-too-large"


class NotAFiberNet(DomainError):
    code = "not-a-fiber-net"

    def __init__(self, witness, message: str = ""):
        super().__init__(message or f"fiber point {witness} not within net radius of any site",
                         witness=witness)
        self.witness = witness


class UnsupportedMetricFamily(DomainError):
    code = "unsupported-metric-family"


class ChartDomain(DomainError):
    code = "chart-domain"


class Unrealizable(DomainError):
    code = "unrealizable"

    def __init__(self, constraint: str, message: str = ""):
        super().__init__(message or f"side constraint not realizable: {constraint}",
                         constraint=constraint)
        self.constraint = constraint


class SolverDiverged(DomainError):
    code = "solver-diverged"


class NetDoesNotCover(DomainError):
    code = "net-does-not-cover"


class UnmappedAtom(DomainError):
    code = "unmapped-atom"


class UnboundedWeights(DomainError):
    code = "unbounded-weights"

    def __init__(self, cover_index, message: str = ""):
        super().__init__(message or f"weights violate the mass bound at cover level {cover_index}",
                         cover_index=cover_index)
        self.cover_index = cover_index


class NonCauchy(DomainError):
    code = "non-cauchy"

    def __init__(self, entry, depth, message: str = ""):
        super().__init__(message or f"entry {entry} not Cauchy at depth {depth}",
                         entry=entry, depth=depth)
        self.entry = entry
        self.depth = depth


class ScheduleViolation(DomainError):
    code = "schedule-violation"


class SpecViolated(DomainError):
    code = "spec-violated"

    def __init__(self, which: str, message: str = ""):
        super().__init__(message or f"blow-up spec invariant violated: {which}", which=which)
        self.which = which


class NoAdmissibleBasepoints(DomainError):
    code = "no-admissible-basepoints"

    def __init__(self, lam, message: str = ""):
        super().__init__(message or f"no basepoint pair with tau < 1/{lam}", lam=lam)
        self.lam = lam


class CycleDetected(DomainError):
    code = "cycle-detected"


class EmptyRegion(DomainError):
    code = "empty-region"
