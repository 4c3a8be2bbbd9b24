"""Exception hierarchy shared by every specmesh module.

The planned CLI (ROADMAP Must-fix 2) will map these onto its exit codes:
parse errors -> 2, argument/structural errors -> 3, numerical aborts -> 4.
"""


class SpecmeshError(Exception):
    """Base class for all package errors."""


class ParseError(SpecmeshError):
    """Malformed input file (OBJ record, config JSON, checkpoint tensors)."""


class ArgumentError(SpecmeshError):
    """A caller-supplied value violates an operation's precondition."""


class StructuralError(SpecmeshError):
    """Input data is well-formed but structurally invalid (bad face index,
    unreachable coarsening target, inconsistent topology)."""


class NumericalError(SpecmeshError):
    """A numerical routine failed: non-finite values, non-convergence."""

