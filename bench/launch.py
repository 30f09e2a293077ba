"""Run one `stabgen` CLI command in this process and record its timeline.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/launch.py --timing T.json [--trace S.json] [--setup-only] \
        -- generate --config C

The command goes through ``stabgen.cli.main``, the function behind the
``stabgen`` console script.  The only change to the program is a wrapper
around the first pipeline call (``explore`` for ``generate``,
``read_dataset`` for ``report``) that stamps the moment set-up ends.
With ``--trace`` every layer boundary listed in ``tracer.py`` is wrapped
as well and the per-layer totals are written to S.json; with
``--setup-only`` the process stops at that stamp.

Times are CLOCK_MONOTONIC readings, which are comparable with the parent
process that stamped the spawn time.  CPU times are ``os.times()`` sums of
user and system time over all threads of the process and its reaped
children, read at the same two moments.
"""

import json
import os
import sys
import time
from pathlib import Path

PIPELINE_START = {"generate": "explore", "report": "read_dataset"}


class SetupDone(BaseException):
    """Stops a set-up probe; not an Exception, so the CLI does not catch it."""


def main(argv):
    t_launch = time.monotonic()
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    timing_path = Path(opts[opts.index("--timing") + 1])
    trace_path = Path(opts[opts.index("--trace") + 1]) if "--trace" in opts else None
    setup_only = "--setup-only" in opts

    import stabgen.cli as cli
    t_imported = time.monotonic()

    tracer = None
    if trace_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def cpu_s():
        t = os.times()
        return t.user + t.system + t.children_user + t.children_system

    mark = {}
    name = PIPELINE_START[cli_argv[0]]
    inner = getattr(cli, name)

    def stamped(*args, **kwargs):
        if "pipeline" not in mark:
            mark["pipeline"], mark["cpu_pipeline"] = time.monotonic(), cpu_s()
        if setup_only:
            raise SetupDone
        return inner(*args, **kwargs)

    setattr(cli, name, stamped)
    try:
        rc = cli.main(cli_argv)
        t_end, cpu_end = time.monotonic(), cpu_s()
    except SetupDone:
        rc, t_end, cpu_end = 0, None, None

    timing_path.write_text(json.dumps({
        "launch": t_launch, "imported": t_imported,
        "pipeline": mark.get("pipeline"), "end": t_end,
        "cpu_pipeline": mark.get("cpu_pipeline"), "cpu_end": cpu_end, "rc": rc}))
    if tracer is not None:
        trace_path.write_text(json.dumps(
            tracer.summary(import_ms=(t_imported - t_launch) * 1e3)))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
