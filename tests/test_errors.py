import pytest

from lorentzgh import errors

# (class, constructor arguments, record()) for every DomainError subclass:
# default messages from the fields, and an explicit message past them
RECORDS = [
    ("AxiomViolation", ("triangle", (0, 1, 2)),
     {"error": "axiom-violation", "message": "triangle violated at (0, 1, 2)",
      "kind": "triangle", "witness": (0, 1, 2)}),
    ("AxiomViolation", ("codomain", None, "fiber distances must be finite and nonnegative"),
     {"error": "axiom-violation", "message": "fiber distances must be finite and nonnegative",
      "kind": "codomain", "witness": None}),
    ("Uncoverable", ([1, 3, 4],),
     {"error": "uncoverable", "message": "points not coverable: [1, 3, 4]", "points": [1, 3, 4]}),
    ("Uncoverable", ([0], "custom"),
     {"error": "uncoverable", "message": "custom", "points": [0]}),
    ("CardinalityMismatch", (2, 1),
     {"error": "cardinality-mismatch",
      "message": "net cardinality mismatch at scale 2, member 1", "scale": 2, "member": 1}),
    ("CardinalityMismatch", (0, 3, "member lacks a net at this scale"),
     {"error": "cardinality-mismatch", "message": "member lacks a net at this scale",
      "scale": 0, "member": 3}),
    ("NotAFiberNet", (5,),
     {"error": "not-a-fiber-net", "message": "fiber point 5 not within net radius of any site",
      "witness": 5}),
    ("NotAFiberNet", (None, "empty fiber net"),
     {"error": "not-a-fiber-net", "message": "empty fiber net", "witness": None}),
    ("Unrealizable", ("tau_yx < 0",),
     {"error": "unrealizable", "message": "side constraint not realizable: tau_yx < 0",
      "constraint": "tau_yx < 0"}),
    ("Unrealizable", ("tau_yx <= 0", "y and x must be chronologically related"),
     {"error": "unrealizable", "message": "y and x must be chronologically related",
      "constraint": "tau_yx <= 0"}),
    ("UnboundedWeights", (4,),
     {"error": "unbounded-weights",
      "message": "weights violate the mass bound at cover level 4", "cover_index": 4}),
    ("UnboundedWeights", (4, "custom"),
     {"error": "unbounded-weights", "message": "custom", "cover_index": 4}),
    ("NonCauchy", ((0, 1), 3),
     {"error": "non-cauchy", "message": "entry (0, 1) not Cauchy at depth 3",
      "entry": (0, 1), "depth": 3}),
    ("NonCauchy", ((0, 1), 3, "entry (0, 1) mixes unrelated and related members in the tail"),
     {"error": "non-cauchy",
      "message": "entry (0, 1) mixes unrelated and related members in the tail",
      "entry": (0, 1), "depth": 3}),
    ("SpecViolated", ("lambda > 0",),
     {"error": "spec-violated", "message": "blow-up spec invariant violated: lambda > 0",
      "which": "lambda > 0"}),
    ("SpecViolated", ("o << o_plus", "custom"),
     {"error": "spec-violated", "message": "custom", "which": "o << o_plus"}),
    ("NoAdmissibleBasepoints", (0.4,),
     {"error": "no-admissible-basepoints", "message": "no basepoint pair with tau < 1/0.4",
      "lam": 0.4}),
    ("NoAdmissibleBasepoints", (2, "custom"),
     {"error": "no-admissible-basepoints", "message": "custom", "lam": 2}),
    ("NetDoesNotCover", ([2, 5],),
     {"error": "net-does-not-cover", "message": "net misses subset points [2, 5]",
      "points": [2, 5]}),
    ("UnmappedAtom", (7,),
     {"error": "unmapped-atom", "message": "atom 7 has no image under the point map",
      "atom": 7}),
] + [(name, (f"message of {name}",), {"error": code, "message": f"message of {name}"})
     for name, code in [
         ("CapExceeded", "cap-exceeded"), ("ChartDomain", "chart-domain"),
         ("CycleDetected", "cycle-detected"), ("DomainError", "domain-error"),
         ("EmptyPlan", "empty-plan"), ("EmptyRegion", "empty-region"),
         ("EmptySubset", "empty-subset"), ("EpsilonTooLarge", "epsilon-too-large"),
         ("MiddleMismatch", "middle-mismatch"), ("PrePDPRequired", "pre-pdp-required"),
         ("ScheduleViolation", "schedule-violation"), ("ShapeMismatch", "shape-mismatch"),
         ("SizeMismatch", "size-mismatch"), ("SolverDiverged", "solver-diverged"),
         ("UnsupportedMetricFamily", "unsupported-metric-family")]]


@pytest.mark.parametrize("name, args, record", RECORDS,
                         ids=[f"{name}-{len(args)}" for name, args, _ in RECORDS])
def test_record(name, args, record):
    exc = getattr(errors, name)(*args)
    assert exc.record() == record
    for key, value in exc.payload.items():
        assert getattr(exc, key) is value


def test_every_domain_error_has_a_record():
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.DomainError)}
    assert classes == {name for name, _, _ in RECORDS}


@pytest.mark.parametrize("args", [("triangle",), ("triangle", (0, 1, 2), "message", "extra")])
def test_wrong_argument_count_is_a_type_error(args):
    with pytest.raises(TypeError, match="AxiomViolation takes"):
        errors.AxiomViolation(*args)
