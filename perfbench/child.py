"""Run one ``sqlab`` command in a fresh interpreter and report how it went.

    python3 perfbench/child.py RESULT_JSON TRACE_DIR|- ARGS...

Times the import of ``semiquantum.cli`` (the set-up every command pays) and
the call ``semiquantum.cli.main(ARGS)`` separately, and writes both, the exit
code, the peak resident set of this process and its reaped workers, and the
library versions to RESULT_JSON.  With a TRACE_DIR the tracer is installed
between the two.
"""

import json
import platform
import resource
import sys
import time


def main() -> int:
    result_path, trace_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import semiquantum.cli
    setup_s = time.perf_counter() - t0
    if trace_dir != "-":
        import tracer
        tracer.install(trace_dir)
    t1 = time.perf_counter()
    try:
        code = semiquantum.cli.main(argv)
    except SystemExit as exc:       # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    wall_s = time.perf_counter() - t1
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    import numpy
    import scipy
    with open(result_path, "w") as fh:
        json.dump({
            "exit": code, "setup_s": setup_s, "wall_s": wall_s, "rss_kb": rss_kb,
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
