"""Record the reference outputs the benchmark checks its runs against.

    python3 perfbench/record_reference.py --workload desk_pretrain --seeds 0 1 2

For each seed, one short run of the workload (the benchmark's own path, with
no timed window) writes its per-step losses (lr, l3d, l2d, total) and probe
accuracies into perfbench/reference.json. Record only from a commit whose
outputs are known to be right.
"""

import argparse
import json
import sys

from run import ROOT  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    for seed in args.seeds:
        outputs = workloads.run(args.workload, seed, 0, False, ROOT)["outputs"]
        reference["workloads"].setdefault(args.workload, {})[str(seed)] = outputs
        print(f"{args.workload} seed {seed}: {len(outputs['rows'])} rows, "
              f"linear {outputs['linear_accuracy']:.4f} fewshot {outputs['fewshot_accuracy']:.4f}")
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
