"""Exception taxonomy for the vdwsurf library.

The CLI maps these onto exit codes:

    0  success
    1  validation failed (a `validate` check reported FAIL)
    2  invalid arguments, including NaN or infinite numbers; every other
       VdwError (DegenerateSourceError, ExtrapolationError,
       ExpansionWindowError); every ArithmeticError, such as a closed
       form's OverflowError or numpy's FloatingPointError on a division
       by zero or an overflow; and MemoryError, such as a scan grid too
       large to allocate
    3  RegionError and its subclass ContactError
    4  unwritable output

Each failure prints one line, `vdwsurf: ...`, on stderr; a failed scan
names the grid value of its first failing point.
"""


class VdwError(Exception):
    """Base class for all vdwsurf errors."""


class RegionError(VdwError):
    """Evaluation point lies outside the physical region of the geometry."""


class ContactError(RegionError):
    """Closed form evaluated at or inside contact with the conductor."""


class DegenerateSourceError(VdwError):
    """Field point coincides with an image-charge location."""


class ExtrapolationError(VdwError):
    """Finite-dipole extrapolation failed to converge to tolerance."""


class ExpansionWindowError(VdwError):
    """Near-contact expansion requested outside its validity window."""
