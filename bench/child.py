"""One set-up, pass or traced pass of a workload, in a fresh process.

    python3 bench/child.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (import coxtop and generate the inputs only), ``pass``
(then run every job once) or ``trace`` (the same with the tracer
installed).  The process prints one JSON line with its measurements.
Job failures are reported, not raised; any other error exits non-zero.
"""

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter, process_time


def output_digest(out):
    """Digest of a job output, to compare traced and untraced passes."""
    text = json.dumps(
        out, sort_keys=True, default=lambda o: o.to_json() if hasattr(o, "to_json") else repr(o)
    )
    return hashlib.sha256(text.encode()).hexdigest()


class JobError:
    def __init__(self, message):
        self.message = message


def run_pass(jobs, tracer=None):
    """Run every job once; returns (outputs, wall seconds, cpu seconds).

    A job that raises yields a JobError instead of an output.
    """
    outputs = []
    t0, c0 = perf_counter(), process_time()
    for job in jobs:
        try:
            outputs.append(tracer.run_job(job.name, job.run) if tracer else job.run())
        except Exception as exc:  # a failed job counts and the pass goes on
            outputs.append(JobError(f"{type(exc).__name__}: {exc}"))
    return outputs, perf_counter() - t0, process_time() - c0


def check_outputs(jobs, outputs):
    """Per job: name, list of problems (empty when correct) and digest."""
    results = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, JobError):
            problems, digest = [out.message], None
        else:
            try:
                problems = list(job.check(out))
            except Exception as exc:  # a check that cannot read the output fails
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            digest = output_digest(out)
        results.append({"job": job.name, "problems": problems, "digest": digest})
    return results


def main():
    root, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    here = os.path.join(root, "bench")
    src = os.path.join(root, "src")
    sys.path[:0] = [src, here]
    with open(os.path.join(here, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        t0 = perf_counter()
        import coxtop

        if not os.path.abspath(coxtop.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"coxtop imported from {coxtop.__file__}, not from {src}")
        import workloads

        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            inputs = tracer.run_job("setup", lambda: workloads.make_inputs(workload, seed, workdir))
        else:
            inputs = workloads.make_inputs(workload, seed, workdir)
        jobs = workloads.make_jobs(workload, inputs, expected)
        report = {"setup_s": perf_counter() - t0}
        if mode != "setup":
            first_span = len(tracer.spans) if tracer else 0
            outputs, wall, cpu = run_pass(jobs, tracer)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_mb)
            report["jobs"] = check_outputs(jobs, outputs)
            if tracer:
                layers = tracer.layer_metrics(wall, first_span)
                layers["cli.stdout_bytes"] = sum(
                    len(out["stdout"].encode())
                    for out in outputs
                    if isinstance(out, dict) and "stdout" in out
                )
                report["layers"] = layers
                tracer.dump_spans(os.path.join(scratch, f"spans-{workload}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
