"""Run one isomin CLI job in a fresh process, as a user would, and time it.

    python3 bench/job.py SRC TIMING_OUT TRACE_OUT JOB_ID -- ARGV...

SRC is the directory holding the isomin package.  The job's stdout is
whatever the caller connected; timings go to TIMING_OUT as JSON:

    t_imported   perf_counter after `import isomin.cli`
    t_main0/1    around isomin.cli.main(argv)
    rc           its return value (or the SystemExit code)
    rss_kb       peak resident set of this process

perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes, so
the caller subtracts its own spawn time from t_imported to get the
set-up time.  TRACE_OUT is "-" for an untraced job; otherwise wrappers
from tracing.py record spans during main(), their per-layer summary is
written there and the spans, each tagged with JOB_ID, to
TRACE_OUT.spans.tsv.
"""

import time
import sys


def _run() -> int:
    src, timing_out, trace_out, job_id = sys.argv[1:5]
    argv = sys.argv[6:]
    sys.path.insert(0, src)
    import isomin.cli
    t_imported = time.perf_counter()

    import json
    import os
    import resource

    if not os.path.abspath(isomin.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"job: imported isomin from {isomin.cli.__file__}, not {src}\n")
        return 70

    tracer = None
    if trace_out != "-":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t_main0 = time.perf_counter()
    try:
        rc = isomin.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv with exit 2
        rc = exc.code if isinstance(exc.code, int) else 1
    t_main1 = time.perf_counter()
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(t_main0, t_main1), fh)
        tracer.write_spans(trace_out + ".spans.tsv", job_id)
    timing = {
        "t_imported": t_imported,
        "t_main0": t_main0,
        "t_main1": t_main1,
        "rc": rc,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(timing_out, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return rc


if __name__ == "__main__":
    sys.exit(_run())
