#!/usr/bin/env python3
"""Run the full verification battery and write one report file per claim.

Covers every claim the CLI knows: the modulus factorization and corner
decomposition over a seeded corpus, the positive-left-factor and
positive-right-factor identities, norm multiplicativity on the l1 chain,
the finite meet lab, and the norm-gap exploration.  Exit code 0 iff every
verifiable claim passes, 1 when one fails, and 2 (with ``error: ...`` on
stderr) for a flag below its least value (``--seed`` 0, ``--count`` 1,
``--lab-n`` 2), refused before any run, or a run the CLI refuses.  Each
claim's line on stdout ends in its wall time, e.g.
``cor22 -> reports/cor22.json  [ok]  (412 ms)``; the report files do not
carry it.

Usage:
    python scripts/verify_all.py --out reports/ --seed 7 --count 100
"""

import argparse
import os
import sys
import time

from rieszops.cli import main as cli_main

#: Each flag's least value, the bound the CLI itself sets on what it feeds.
LEAST = {"seed": 0, "count": 1, "lab_n": 2}


def invocations(args) -> list:
    corpus = f"seed={args.seed},dims=2x2x2x2,count={args.count}"
    mixed = f"seed={args.seed},dims=2x3x2x3,count={args.count}"
    runs = [
        ("cor22", ["verify", "cor22", "--corpus", corpus]),
        ("cor22_rect", ["verify", "cor22", "--corpus", mixed]),
        ("prop21", ["verify", "prop21", "--corpus", corpus]),
        ("synnatzschke_a", ["verify", "synnatzschke_a", "--corpus", corpus]),
        ("cor23", ["verify", "cor23", "--corpus", corpus]),
        # All 2 -> 2 norms: the rank-one witness attains the operator norm.
        ("gap", ["gap", "--m", "3"]),
    ]
    for k in range(1, args.lab_n + 1):
        runs.append(
            (
                f"counterexample_k{k}",
                ["counterexample", "--n", str(args.lab_n), "--k", str(k)],
            )
        )
    return runs


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--lab-n", type=int, default=4)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Bad sizes exit 2 before any run, as the rieszops command does.
    for name, least in LEAST.items():
        if getattr(args, name) < least:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be >= {least}, got {getattr(args, name)}",
                  file=sys.stderr)
            return 2

    os.makedirs(args.out, exist_ok=True)
    runs = invocations(args)
    failures = []
    for name, argv_run in runs:
        path = os.path.join(args.out, f"{name}.json")
        t0 = time.perf_counter()
        # A corpus spec carries the seed; every other run takes --seed.
        seed = [] if "--corpus" in argv_run else ["--seed", str(args.seed)]
        code = cli_main(argv_run + seed + ["--json", path])
        elapsed_ms = (time.perf_counter() - t0) * 1000
        marker = "ok" if code == 0 else f"EXIT {code}"
        print(f"{name:<20} -> {path}  [{marker}]  ({elapsed_ms:.0f} ms)")
        if code == 2:  # a refused run is an error of the battery, not a claim
            print(f"error: the {name} run was refused (exit 2)", file=sys.stderr)
            return 2
        if code != 0:
            failures.append(name)
    if failures:
        print(f"\n{len(failures)} failing claim(s): {', '.join(failures)}")
        return 1
    print(f"\nall {len(runs)} reports pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
