"""Exception taxonomy.

DomainError covers bad user input (CLI exit code 1).  CertificationFailure
covers internal invariant violations: a construction that should be
mathematically impossible to fail did fail (CLI exit code 3).
PullbackUnbounded is raised by a pullback whose image would be unbounded;
the constructions shear first so that it cannot happen there, and if it
still does the CLI treats it as an internal failure (exit code 3).
"""


class PolysecError(Exception):
    pass


class DomainError(PolysecError):
    pass


class CertificationFailure(PolysecError):
    pass


# exactgeom
class DegenerateJoin(DomainError):
    pass


class DegenerateMeet(DomainError):
    pass


class AtInfinity(DomainError):
    pass


# polygon
class NotConvex(DomainError):
    pass


class TooFewVertices(DomainError):
    pass


class DuplicateVertex(DomainError):
    pass


class MapsVertexToInfinity(DomainError):
    pass


class ImageNotConvex(DomainError):
    pass


class LineMeetsPolygon(DomainError):
    pass


class DegenerateTriple(DomainError):
    pass


# hexagon
class NotHexagon(DomainError):
    pass


class NoConcurrency(DomainError):
    pass


class ComplexitySix(DomainError):
    pass


class NormalFormConstraintViolated(CertificationFailure):
    pass


# heptagon
class NotHeptagon(DomainError):
    pass


class DegenerateConstruction(CertificationFailure):
    pass


class NoneFound(CertificationFailure):
    """A guaranteed non-crossing standardization line was not found."""


# sections
class EmptySection(DomainError):
    pass


class ScaleExceeded(DomainError):
    pass


class PullbackUnbounded(PolysecError):
    """A lifted map sends some vertex to the hyperplane at infinity or beyond."""


# slack
class NoExtension(DomainError):
    """A facet inequality of the claimed section has no nonnegative extension.

    Every valid inequality of the true section extends to the polytope (LP
    duality), so the claimed section is false.
    """


class NotInPolytope(DomainError):
    pass


# serialization / CLI
class ParseError(DomainError):
    pass
