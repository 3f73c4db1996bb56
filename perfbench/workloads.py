"""Turn a workload name and a seed into concrete ``charsum`` argv lists.

Each workload is one *round*: a fixed-size list of CLI invocations that the
benchmark repeats for the length of a run.  A round joins two kinds of work
that stress different layers: ``sweep_oracle`` verifies the halving identity
at large n (``verify``) and cross-checks both sums against the border-strip
oracle (``sum --mode both``); ``search_fit`` searches for constant-ratio
pairs (``search``) and fits closed forms (``fit``).  Two workloads with long
runs measure steadier than one short run per kind on a small shared machine;
the traced run still reports each kind's time on its own.

The seed chooses the order of the ops and, where the cost does not depend on
it, the n windows; the set of ops a round is built from, and so its cost,
does not depend on the seed.  The spread between runs with different seeds
is then the machine's, not the inputs'.  The program only ever sees the argv
lists built here.

Why each workload exists, and which layer each kind of op stresses, is
recorded in ``WHY``, in the comments below and in this directory's README.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep_oracle", "search_fit")

WHY = {
    "sweep_oracle": "verify 2A=B at n ~ 3000 (big binomials in polyring) and sum A|B --mode both "
    "at n <= 200 (border-strip recursion and cache in characters.char_mn)",
    "search_fit": "search --K 12..14 (small IntPoly products, repeated sum_A/sum_B calls) and "
    "fit --family A|B at weight 13/15 (exact Fraction solves in discovery)",
}

# The subcommands a workload's ops use; the traced run reports each one's time.
COMMANDS = ("verify", "sum", "search", "fit")

# Every theorem-form partition of weight 10: odd parts >= 3 plus the run
# 2, 4, ..., 2^(t-1).  A round verifies each of them once.
SWEEP_MU0 = ("7,3", "5,5", "5,3,2")
SWEEP_N_BAND = (3000, 3050)  # n_lo is drawn from this band
SWEEP_ROWS = 21

# The known-defect probe: A(n) passes CPython's 4300-digit int->str limit
# above n ~ 7150, so printing it raises.  Run once per sweep_oracle run, untimed.
PROBE_N_BAND = (7200, 7250)
PROBE_ROWS = 4

SEARCH_K = (12, 13, 14)
SEARCH_WINDOWS = (12, 13, 14)

# Every partition into three odd parts (all >= 3) of weight 13 and 15.  The
# cost of a fit varies by up to a factor of two between these M, and by up to
# a quarter between the families for one M, so a round fits each M for both
# families and the seed only orders them.
FIT_MU0 = ("7,3,3", "5,5,3", "9,3,3", "7,5,3", "5,5,5")
FIT_FAMILIES = ("A", "B")

# Three parts of weight 10, each >= 2.  The memoised border-strip cache
# grows with the number of parts and with n, so one part count keeps the
# peak memory of a round independent of the seed.  A round sums each M for
# both families; the seed picks each window's end.
ORACLE_MU0 = ("6,2,2", "5,3,2", "4,4,2", "4,3,3")
ORACLE_A_HI = (197, 200)  # A window: [hi - 40, hi]
ORACLE_A_SPAN = 40
# Hooks cost more per n than two-row shapes: these spans make an A op and a
# B op cost about the same.
ORACLE_B_HI = (100, 103)  # B window: [hi - 23, hi]
ORACLE_B_SPAN = 23

SETUP_ARGV = ("sum", "A", "--mu0", "", "--n", "0")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sweep(rng: random.Random) -> list[list[str]]:
    ops = []
    for mu0 in SWEEP_MU0:
        lo = rng.randrange(*SWEEP_N_BAND)
        ops.append(["verify", "--mu0", mu0, "--n", f"{lo}..{lo + SWEEP_ROWS - 1}", "--format", "csv"])
    return ops


def _oracle(rng: random.Random) -> list[list[str]]:
    ops = []
    for mu0 in ORACLE_MU0:
        for family, band, span in (("A", ORACLE_A_HI, ORACLE_A_SPAN), ("B", ORACLE_B_HI, ORACLE_B_SPAN)):
            hi = rng.randint(*band)
            ops.append(["sum", family, "--mu0", mu0, "--n", f"{hi - span}..{hi}", "--mode", "both"])
    return ops


def _search(rng: random.Random) -> list[list[str]]:
    # The window moves the cost of a search by up to a third, so a round
    # runs every K with every window.
    return [["search", "--K", str(k), "--window", str(w)] for k in SEARCH_K for w in SEARCH_WINDOWS]


def _fit(rng: random.Random) -> list[list[str]]:
    return [["fit", "--family", f, "--mu0", mu0] for mu0 in FIT_MU0 for f in FIT_FAMILIES]


def _mixed(*kinds):
    """A round of every kind's ops, in an order drawn from the seed."""

    def build(rng: random.Random) -> list[list[str]]:
        ops = [argv for kind in kinds for argv in kind(rng)]
        rng.shuffle(ops)
        return ops

    return build


_ROUND_OF = {"sweep_oracle": _mixed(_sweep, _oracle), "search_fit": _mixed(_search, _fit)}


def build(workload: str, seed: int) -> list[list[str]]:
    """The argv lists (without the program name) of one round."""
    if workload not in _ROUND_OF:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _ROUND_OF[workload](_rng(workload, seed))


def probe(seed: int) -> list[str]:
    """The known-defect probe op of a sweep_oracle run."""
    lo = _rng("probe", seed).randrange(*PROBE_N_BAND)
    return ["verify", "--mu0", "3", "--n", f"{lo}..{lo + PROBE_ROWS - 1}", "--format", "csv"]
