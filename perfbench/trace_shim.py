"""Run one charsum CLI op with a span around every call into a traced layer.

    python3 perfbench/trace_shim.py SPAN_FILE OP_ID -- CHARSUM_ARGS...

The modules bind each other's functions with ``from .x import name``, so a
wrapper replaces the function under every name that any ``charsum`` module
holds it by.  ``IntPoly.__mul__`` is wrapped on the class.  The program's
exit code and output are unchanged; the spans go to SPAN_FILE when the op
exits, also when it raises.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "charsum" or name.startswith("charsum."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(rec: spans.Recorder):
    """Wrap the traced functions of every layer; return the wrapped ``cli.main``."""
    import charsum.cli
    from charsum import characters, charsums, discovery, partition, polyring

    lemma_keys: set = set()

    def count_bits(args, result):
        rec.counts["binomial_out_bits"] += result.bit_length()

    def count_terms(args, result):
        rec.counts["mul_out_terms"] += len(result.coeffs)

    def count_lemma(family):
        def after(args, result):
            lemma_keys.add((family, tuple(args[0].parts), args[1]))
            rec.counts["lemma_distinct"] = len(lemma_keys)

        return after

    def count_reported(args, result):
        rec.counts["search_reported"] += len(result)

    traced = [
        (partition, "parse_partition", None),
        (partition, "theorem_form_of", None),
        (discovery, "ratio_test", None),
        (discovery, "search_pairs", count_reported),
        (discovery, "fit_closed_form", None),
        (charsums, "sum_A", count_lemma("A")),
        (charsums, "sum_B", count_lemma("B")),
        (charsums, "sum_A_bruteforce", None),
        (charsums, "sum_B_bruteforce", None),
        (characters, "char_mn", None),
        (polyring, "binomial_coeff", count_bits),
    ]
    for module, attr, after in traced:
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        _rebind(original, rec.wrap(original, f"{layer}.{attr}", after))
    original = partition.enumerate_partitions
    _rebind(original, rec.wrap_generator(original, "partition.enumerate_partitions"))
    polyring.IntPoly.__mul__ = rec.wrap(polyring.IntPoly.__mul__, spans.MUL, count_terms)
    return rec.wrap(charsum.cli.main, spans.CLI_MAIN)


def _cache_counts() -> dict:
    from charsum import characters

    info = getattr(characters._mn, "cache_info", None)
    if info is None:
        return {}
    info = info()
    return {"mn_cache_hits": info.hits, "mn_cache_misses": info.misses, "mn_cache_size": info.currsize}


def main() -> int:
    span_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_shim.py SPAN_FILE OP_ID -- CHARSUM_ARGS...")
    rec = spans.Recorder()
    cli_main = install(rec)
    try:
        return cli_main(argv)
    finally:
        rec.write(Path(span_file), op_id, _cache_counts())


if __name__ == "__main__":
    sys.exit(main())
