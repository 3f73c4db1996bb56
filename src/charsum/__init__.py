"""Exact symmetric-group character sums over two-rowed and hook shapes.

``__all__`` is the public API; every other name in the submodules is
internal and may change without notice.
"""

from .characters import RowCapExceeded, char_ct, char_mn, char_two_row
from .charsums import (
    InternalConsistencyError,
    sum_A,
    sum_A_bruteforce,
    sum_B,
    sum_B_bruteforce,
    verify_theorem,
)
from .discovery import fit_closed_form, search_pairs
from .oeis import OeisClient, OeisError
from .partition import (
    Partition,
    PartitionFormatError,
    companion_mu_prime,
    format_partition,
    make_partition,
    parse_partition,
    theorem_form_of,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "make_partition",
    "parse_partition",
    "format_partition",
    "theorem_form_of",
    "companion_mu_prime",
    "char_mn",
    "char_ct",
    "char_two_row",
    "sum_A",
    "sum_B",
    "sum_A_bruteforce",
    "sum_B_bruteforce",
    "verify_theorem",
    "search_pairs",
    "fit_closed_form",
    "OeisClient",
    "PartitionFormatError",
    "RowCapExceeded",
    "InternalConsistencyError",
    "OeisError",
    "__version__",
]
