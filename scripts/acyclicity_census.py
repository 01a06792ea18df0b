#!/usr/bin/env python3
"""Census of pattern acyclicity: how common are acyclic patterns?

Sweeps pattern length and variable-pool size, sampling uniformly random
terminal-free patterns, and reports the acyclic fraction together with the
decision time.  Small lengths are cross-checked against the brute-force
bracketing enumeration; any mismatch makes the script exit 1.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass

from wordeq.decompose import is_acyclic_pattern
from wordeq.model import Variable
from wordeq.oracle import brute_acyclic


@dataclass
class CensusConfig:
    max_length: int = 14
    num_vars: int = 3
    samples: int = 400
    crosscheck_up_to: int = 9
    seed: int = 0


def run(cfg: CensusConfig) -> int:
    """Print the census; return the number of crosscheck mismatches."""
    rng = random.Random(cfg.seed)
    pool = [Variable(f"x{i}") for i in range(1, cfg.num_vars + 1)]
    bad = 0
    print(f"{'len':>4} {'acyclic%':>9} {'ms/decision':>12} {'crosscheck':>11}")
    for length in range(1, cfg.max_length + 1):
        hits = 0
        t0 = time.perf_counter()
        patterns = [tuple(rng.choice(pool) for _ in range(length))
                    for _ in range(cfg.samples)]
        for p in patterns:
            hits += is_acyclic_pattern(p)
        ms = (time.perf_counter() - t0) * 1000 / cfg.samples
        checked = "-"
        if length <= cfg.crosscheck_up_to:
            mismatches = sum(is_acyclic_pattern(p) != brute_acyclic(p)
                             for p in patterns[:40])
            checked = "ok" if mismatches == 0 else f"{mismatches} BAD"
            bad += mismatches
        print(f"{length:>4} {100 * hits / cfg.samples:>8.1f}% {ms:>11.3f} {checked:>11}")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-length", type=int, default=14)
    ap.add_argument("--num-vars", type=int, default=3)
    ap.add_argument("--samples", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    bad = run(CensusConfig(max_length=args.max_length, num_vars=args.num_vars,
                           samples=args.samples, seed=args.seed))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
