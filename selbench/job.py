"""One ``hial select`` job in a fresh interpreter.

    python3 selbench/job.py MODE RECORD_JSON -- <hial select arguments>

MODE is ``job`` (time the outer stages), ``setup`` (stop as soon as the
dataset is loaded) or ``trace`` (also wrap every layer boundary listed in
``tracer.LAYERS``). The job calls ``hial.cli.main(["select", ...])``
unchanged and writes CLOCK_MONOTONIC stamps, which the parent process
shares, to RECORD_JSON:

* ``loaded``: ``dataio.load_dataset`` returned
* ``prepare``/``select``: start and end of ``selector.prepare`` and
  ``selector.select_lazy``
* ``trace``: the tracer's dump, in ``trace`` mode
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class _StopAfterLoad(BaseException):
    """Unwinds out of the CLI once setup is measured (not an error)."""


def _stamp_around(owner, attr, stamps, key, after=None):
    fn = getattr(owner, attr)

    def stamped(*args, **kwargs):
        start = time.monotonic()
        result = fn(*args, **kwargs)
        stamps[key] = [start, time.monotonic()]
        if after is not None:
            after()
        return result

    setattr(owner, attr, stamped)


def main(argv: list[str]) -> int:
    mode, record_path, sep, *select_args = argv
    if sep != "--" or mode not in ("job", "setup", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    import hial
    from hial import cli, dataio, selector

    if not Path(hial.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hial imported from {hial.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    record: dict = {"stamps": {}}
    tracer = None
    if mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer().install()

    def stop():
        raise _StopAfterLoad

    stamps = record["stamps"]
    # outermost wrappers, installed after the tracer's, so the stamps
    # include the tracer's own cost in trace mode
    _stamp_around(dataio, "load_dataset", stamps, "loaded",
                  stop if mode == "setup" else None)
    _stamp_around(selector, "prepare", stamps, "prepare")
    _stamp_around(selector, "select_lazy", stamps, "select")
    try:
        rc = cli.main(["select", *select_args])
    except _StopAfterLoad:
        rc = 0
    from hial import kernels
    record["kernels_backend"] = kernels.BACKEND
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.dump()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
