#!/usr/bin/env python3
"""Run the full verification battery and write one report file per claim.

Covers every claim the CLI knows: the modulus factorization and corner
decomposition over a seeded corpus, the positive-left-factor and
positive-right-factor identities, norm multiplicativity on the l1 chain,
the finite meet lab, and the norm-gap exploration.  Exit code 0 iff every
verifiable claim passes.  Each claim's line on stdout ends in its wall
time, e.g. ``cor22 -> reports/cor22.json  [ok]  (412 ms)``; the report
files do not carry it.

Usage:
    python scripts/verify_all.py --out reports/ --seed 7 --count 100
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass

from rieszops.cli import main as cli_main


@dataclass(frozen=True)
class BatteryConfig:
    out_dir: str = "reports"
    seed: int = 7
    count: int = 100
    lab_n: int = 4
    samples: int = 500


def invocations(config: BatteryConfig) -> list:
    corpus = f"seed={config.seed},dims=2x2x2x2,count={config.count}"
    mixed = f"seed={config.seed},dims=2x3x2x3,count={config.count}"
    runs = [
        ("cor22", ["verify", "cor22", "--corpus", corpus]),
        ("cor22_rect", ["verify", "cor22", "--corpus", mixed]),
        ("prop21", ["verify", "prop21", "--corpus", corpus]),
        ("synnatzschke_a", ["verify", "synnatzschke_a", "--corpus", corpus]),
        ("cor23", ["verify", "cor23", "--corpus", corpus]),
        (
            "gap",
            ["gap", "--m", "3", "--samples", str(config.samples)],
        ),
    ]
    for k in range(1, config.lab_n + 1):
        runs.append(
            (
                f"counterexample_k{k}",
                ["counterexample", "--n", str(config.lab_n), "--k", str(k)],
            )
        )
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--lab-n", type=int, default=4)
    parser.add_argument("--samples", type=int, default=500)
    args = parser.parse_args(argv)
    config = BatteryConfig(
        out_dir=args.out,
        seed=args.seed,
        count=args.count,
        lab_n=args.lab_n,
        samples=args.samples,
    )

    os.makedirs(config.out_dir, exist_ok=True)
    failures = []
    for name, argv_run in invocations(config):
        path = os.path.join(config.out_dir, f"{name}.json")
        t0 = time.perf_counter()
        # A corpus spec carries the seed; every other run takes --seed.
        seed = [] if "--corpus" in argv_run else ["--seed", str(config.seed)]
        code = cli_main(argv_run + seed + ["--json", path])
        elapsed_ms = (time.perf_counter() - t0) * 1000
        marker = "ok" if code == 0 else f"EXIT {code}"
        print(f"{name:<20} -> {path}  [{marker}]  ({elapsed_ms:.0f} ms)")
        if code != 0:
            failures.append(name)
    if failures:
        print(f"\n{len(failures)} failing claim(s): {', '.join(failures)}")
        return 1
    print(f"\nall {len(invocations(config))} reports pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
