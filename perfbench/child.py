"""One `muskat run` in a fresh interpreter, timed the way a user pays for it.

    python3 child.py MODE CONFIG RESULT

MODE is ``setup`` (import and load the config only), ``run`` (then run
``cli_io.main(["run", CONFIG])`` untraced) or ``trace`` (the same with the
span tracer installed).  ``setup_s`` is the time to import
``muskat.cli_io`` and load the config in this fresh interpreter, so work
moved to import time shows in it.  The timings, the exit code, the peak
resident memory and, when traced, the spans are written to RESULT as JSON
when the run ends.
"""

import json
import resource
import sys
import time


def main() -> None:
    mode, config, result_path = sys.argv[1:4]
    t_start = time.perf_counter()
    from muskat import cli_io

    cli_io.load_config(config)
    result = {"setup_s": time.perf_counter() - t_start}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        code = cli_io.main(["run", config])
        result["run_wall_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
            result["unmeasured"] = tracer.unmeasured
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
