"""Run one workload of the mvmae benchmark and print its metrics.

    python3 perfbench/run.py --workload desk_pretrain --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
`--trace 0`, per-layer metrics from the traced run with `--trace 1`.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads; losses are bit-identical with
# one thread and with the library default
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
EXIT_USAGE = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mvmae" / "__init__.py").is_file():
        print(f"error: no mvmae sources under {src}", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(workloads.report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
