"""Record the SHA-256 of every output of every seed-0 job.

    python3 bench/record_reference.py

Writes bench/reference_seed0.json, which the seed-0 runs compare their
outputs against byte for byte.  Recorded once, on the commit that
defines the benchmark; a change that keeps outputs byte-identical leaves
it as it is.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from run import BENCH, BLAS_THREADS, BLAS_VARS

for var in BLAS_VARS:
    os.environ[var] = BLAS_THREADS
sys.path.insert(0, str(BENCH.parent / "src"))

import weyllab.cli  # noqa: E402

from checks import digests  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for make in WORKLOADS.values():
            for job in make(0).jobs:
                outdir = Path(tmp) / job.label
                code = weyllab.cli.main(job.argv(str(outdir)))
                if code != 0:
                    print(f"{job.label} exited with {code}", file=sys.stderr)
                    return 1
                reference[job.label] = digests(outdir)
    path = BENCH / "reference_seed0.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} jobs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
