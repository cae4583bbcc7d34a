"""One ecomath CLI call split into the phases of ``cli.dispatch``.

    python -X importtime perfbench/cli_phases.py calc diff "x^2" --format json

Runs import, ``build_parser().parse_args``, ``args.handler`` and ``render``
in that order, timing each, with the library's public functions wrapped by
the span recorder.  Prints one JSON object: the phase times in ms, the
rendered output and the spans.  The import breakdown comes from the
interpreter's ``-X importtime`` report on standard error.
"""

import json
import sys
import time

t0 = time.perf_counter()
from ecomath import cli  # noqa: E402

t1 = time.perf_counter()

import spans  # noqa: E402  (this file's directory is first on sys.path)


def main(argv):
    rec = spans.Recorder()
    with rec:
        t2 = time.perf_counter()
        args = cli.build_parser().parse_args(argv)
        t3 = time.perf_counter()
        try:
            payload = args.handler(args)
        except Exception as exc:  # reported to the benchmark, which counts it
            print(json.dumps({"error": repr(exc)}))
            return
        t4 = time.perf_counter()
        text = cli.render(payload, getattr(args, "format", "table"))
        t5 = time.perf_counter()
    phases = {"import": (t1 - t0) * 1e3, "argparse": (t3 - t2) * 1e3,
              "handler": (t4 - t3) * 1e3, "render": (t5 - t4) * 1e3}
    print(json.dumps({"phases": phases, "output": text, "spans": rec.spans}))


if __name__ == "__main__":
    main(sys.argv[1:])
