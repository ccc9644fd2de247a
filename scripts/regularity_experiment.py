#!/usr/bin/env python3
"""Randomized regularity study.

For a batch of seeded random ideals (after a generic change of coordinates)
compare five quantities per instance:

  d        largest minimal-generator degree
  reg      regularity from the minimal resolution
  sat-reg  regularity that sat_defect reports, read off the saturation
  grevlex  top degree of the reduced grevlex basis
  lex      top degree of the reduced lex basis

The grevlex column tracking reg while the lex column drifts above it is the
degree-complexity story this engine is built around.

    python scripts/regularity_experiment.py --count 12 --seed 7
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from groebner import (
    GF,
    LEX,
    REGULAR,
    bayer_stillman_test,
    buchberger,
    free_resolution,
    minimalize_generators,
    random_ideal,
    regularity,
    sat_defect,
)
from groebner.ideals import generic_change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print(f"{'seed':>6} {'vars':>5} {'gens':>5} {'d':>3} {'reg':>4} {'sat-reg':>8} "
          f"{'grevlex':>8} {'lex':>5} {'bs-check':>9}")
    for k in range(args.count):
        seed = args.seed + k
        n_vars = 3 + (k % 2)
        n_gens = 2 + (k % 2)
        degree = 2 + (k % 2)
        ring, gens = random_ideal(seed, n_vars, n_gens, degree, field=GF(32003))
        changed, _ = generic_change(gens, seed=seed + 1000)

        d = max(g.total_degree() for g in minimalize_generators(changed))
        reg = regularity(free_resolution(changed))
        sat_reg = sat_defect(changed, seed=seed).regularity
        grev_top = buchberger(changed).max_degree()
        lex_top = buchberger(changed, order=LEX).max_degree()
        bs = bayer_stillman_test(changed, reg, seed=seed)
        flag = "ok" if bs == REGULAR else bs
        print(f"{seed:>6} {n_vars:>5} {n_gens:>5} {d:>3} {reg:>4} {sat_reg:>8} "
              f"{grev_top:>8} {lex_top:>5} {flag:>9}")


if __name__ == "__main__":
    main()
