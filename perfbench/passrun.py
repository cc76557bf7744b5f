"""One benchmark pass: a fresh interpreter running a workload's invocations.

    python3 perfbench/passrun.py PLAN.json

PLAN.json holds {"invocations": [{"cmd", "prefix", "config_path"}], "out",
"trace", "result"}.  The pass times the import of pseudomode.cli (the
set-up every CLI user pays), then calls cli.main once per invocation, one
after another, as a single closed-loop client.  With "trace" it first
installs the span wrappers.  The result file gets per-invocation exit codes
and times, the import time, peak RSS and CPU time, and the spans.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # the real CLI would exit 1 with a traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import pseudomode.cli as cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if plan["trace"]:
        from tracer import CLI_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    records = []
    for inv in plan["invocations"]:
        argv = [inv["cmd"], "--config", inv["config_path"], "--out", plan["out"]]
        t = time.perf_counter()
        if tracer is None:
            code, out, err = _call(cli.main, argv)
        else:
            code, out, err = tracer.span(CLI_SPAN, _call, cli.main, argv)
        records.append({"cmd": inv["cmd"], "prefix": inv["prefix"],
                        "code": code, "s": time.perf_counter() - t,
                        "stdout": out, "stderr": err})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "invocations": records,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["bytes_written"] = tracer.bytes_written
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
