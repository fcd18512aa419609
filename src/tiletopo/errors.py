"""Exception types shared across the package."""


class TileError(Exception):
    """Base class for all library errors."""


class BadDeterminant(TileError):
    """Determinant B of the input matrix is below 2 (negative bases unsupported)."""


class NotExpanding(TileError):
    """|A| > B, so the matrix has an eigenvalue of modulus <= 1."""


class DegenerateBasis(TileError):
    """v and M*v are linearly dependent."""


class OutOfRange(TileError):
    """Parameter outside the supported range for this operation."""


class LengthMismatch(TileError):
    """Digit words of different lengths where equal lengths are required."""


class WrongRegime(TileError):
    """Operation invoked for (A, B) outside the regime where it is defined."""


class NotIrreducible(TileError):
    """Contact graph is not strongly connected.  The package no longer
    raises it: every graph of ``build_contact_graph`` is strongly connected
    by the lemma in its docstring.  It stays a public name."""


class NoConsistentOrdering(TileError):
    """No edge ordering satisfies the continuity constraints (signals a bug
    or unsupported parameters)."""


class NonPeriodicWalk(TileError):
    """Parameter whose greedy walk has not become periodic within the step
    limit (``max_steps``); such a walk may never become periodic, and lies
    outside the exact domain supported here."""


class CertificateFailure(TileError):
    """A certificate check that the theory guarantees has failed; signals an
    implementation bug."""


class ChainViolation(TileError):
    """A fact about the gamma arcs of the 2A - B = 3 construction does not
    hold: a point missing from alpha_{B-1} u alpha_B, an arc end off the
    junction set, or a missing containment edge.  It carries a message only.
    A chain report whose intersection pattern does not match lists the
    mismatches as its violations instead of raising."""


class IdentityFailure(TileError):
    """An exact identity between evaluated points does not hold."""


class BudgetExceeded(TileError):
    """Requested enumeration exceeds the configured walk budget."""
