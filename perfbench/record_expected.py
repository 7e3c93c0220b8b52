"""Record the reference outputs the oracles compare against.

    python3 perfbench/record_expected.py

Runs every job of fixed input once and writes ``expected.json``: the
SHA-256 of each exact output, and the full output of each job that prints
floats.  Run it only on the commit whose outputs are the reference; the
exact outputs of periodpoly must stay byte-identical after it.
"""

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    blank = {"digests": {}, "floats": {}}
    digests, floats = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        inputs = workloads.generate_inputs("eigen-sweep", 0, workdir, blank)
        jobs = (workloads.index_sweep_jobs(blank) + workloads.hecke_space_jobs(blank)
                + [j for j in inputs["jobs"] if j.command != "eigenvalue"])
        for job in jobs:
            code, text = job.execute()
            if code != 0:
                sys.stderr.write("%s: exit code %d\n" % (job.id, code))
                return 1
            if job.command in ("petersson", "lvalue", "gamma02-relations", "gamma06-demo"):
                floats[job.id] = json.loads(text)
            else:
                digests[job.id] = hashlib.sha256(text.encode()).hexdigest()
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump({"digests": digests, "floats": floats}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
