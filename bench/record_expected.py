"""Record the invariants that have no closed form into expected.json.

Run from the repository root at the commit whose outputs are trusted:

    python3 bench/record_expected.py

It runs every job once on seed 0 and stores the seed-independent form of
each output that the checks in workloads.py compare against.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main():
    expected = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for workload in workloads.WORKLOADS:
            inputs = workloads.make_inputs(workload, 0, workdir)
            jobs = workloads.make_jobs(workload, inputs, {workload: {}})
            out = {job.name: job.run() for job in jobs}
            if workload == "davis-realization":
                expected[workload] = {
                    name: workloads.cross_check_record(out[name]["report"])
                    for name in ("fano_x_a1", "thin_a3")
                }
            elif workload == "thick-decomposition":
                building = workloads.cli_payload(out["verify_building"])
                witness = workloads.cli_payload(out["verify_decomposition"])
                expected[workload] = {
                    "residue_checks": len(building["residue_checks"]),
                    "part_ranks": workloads.part_ranks(witness),
                }
            else:
                expected[workload] = {
                    "hc": {
                        name: workloads.hc_canonical(workloads.cli_payload(out[f"hc_{name}"]))
                        for name in workloads.HC_INPUTS
                    }
                }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
