"""Exact symmetric-group character sums over two-rowed and hook shapes.

``__all__`` is the public API; every other name in the submodules is
internal and may change without notice.  Each public name is loaded on
first use (PEP 562), so ``import charsum`` imports no submodule, and
``charsum.sum_A`` imports only what ``charsums`` needs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {
    "Partition": "partition",
    "make_partition": "partition",
    "parse_partition": "partition",
    "format_partition": "partition",
    "theorem_form_of": "partition",
    "companion_mu_prime": "partition",
    "char_mn": "characters",
    "char_ct": "characters",
    "char_two_row": "characters",
    "sum_A": "charsums",
    "sum_B": "charsums",
    "sum_A_bruteforce": "charsums",
    "sum_B_bruteforce": "charsums",
    "verify_theorem": "charsums",
    "search_pairs": "discovery",
    "fit_closed_form": "charsums",
    "OeisClient": "oeis",
    "PartitionFormatError": "partition",
    "RowCapExceeded": "characters",
    "InternalConsistencyError": "charsums",
    "OeisError": "oeis",
}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # not cached here, so the name always reads the submodule's current binding
    return getattr(import_module(f".{_SOURCE[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
