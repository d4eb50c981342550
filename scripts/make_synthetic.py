#!/usr/bin/env python3
"""Generate a labeled synthetic CSV for trying out the CLI.

The first --informative columns carry class structure (class-dependent means
with gaussian jitter), the remaining --noise columns are uniform noise. The
output has a header row (f0, f1, ..., class) so it can be fed straight to
`csufs evaluate --has-header --label-col class`. The recipe is the
benchmark's own, perfbench/fixtures.py.
"""

import argparse
from pathlib import Path

from launch import fixtures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=300, help="number of samples")
    parser.add_argument("--classes", type=int, default=2, help="number of classes")
    parser.add_argument("--informative", type=int, default=10, help="class-bearing feature count")
    parser.add_argument("--noise", type=int, default=90, help="noise feature count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()

    X, labels = fixtures.build(args.n, args.classes, args.informative, args.noise, args.seed)
    fixtures.write_csv(args.output, X, labels)
    print(f"wrote {args.n} samples x {X.shape[1]} features to {args.output}")
    print(f"informative columns: f0..f{args.informative - 1}")


if __name__ == "__main__":
    main()
