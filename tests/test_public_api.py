"""The package's public surface: ``charsum.__all__`` and nothing else."""

import charsum

PUBLIC_API = [
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


def test_all_is_exactly_the_documented_surface():
    assert charsum.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    namespace = {}
    exec("from charsum import *", namespace)
    for name in PUBLIC_API:
        assert getattr(charsum, name) is namespace[name], name

