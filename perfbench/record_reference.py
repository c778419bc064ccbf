"""Record ``reference.json``: the expected output of every benchmark call.

    python3 perfbench/record_reference.py

Runs each workload's pass once at the default seed and stores, per call,
the check names and verdicts or the compute and lift values.  A call whose
exit code, verdicts or values break the rules in ``workloads.check_output``
stops the recording, so the file never holds a wrong expectation.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from run import HERE, ROOT, call, setup


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    (ROOT / workloads.OUT_DIR).mkdir(parents=True, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    reference = {"seed": seed, "ops": {}}
    for workload in workloads.WORKLOADS:
        kk = setup(workload, seed)
        for op in workloads.build_ops(workload, seed):
            rc, out = call(kk.cli.main, op.argv)
            reference["ops"][op.key] = workloads.observed(op, json.loads(out))
            msg = workloads.check_output(op, rc, out, reference, seed)
            if msg is not None:
                print(f"record_reference: {op.key}: {msg}", file=sys.stderr)
                return 1
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write('{"seed": %d, "ops": {\n' % seed)
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in reference["ops"].items()))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
