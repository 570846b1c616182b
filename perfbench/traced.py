"""Run one ebpolicy CLI command in-process under the span tracer.

Usage: traced.py --record PATH --run-id ID -- <cli args...>

ebpolicy is imported from PYTHONPATH, as the untraced runs import it.

Writes the spans, counts, absent hooks and observer errors to PATH as
JSON, after restoring every wrapped function. Exits with the CLI's code.
"""

import argparse
import json
import sys

import layers
from tracer import Tracer


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.run_id)
    layers.add_observers(tracer)
    modules = tracer.install()
    if "cli" not in modules:
        print("traced: ebpolicy.cli cannot be imported", file=sys.stderr)
        return 3
    try:
        rc = modules["cli"].main(cli_args)
    finally:
        tracer.restore()
    record = {"spans": tracer.spans, "observations": tracer.observations,
              "absent": tracer.absent, "observer_errors": tracer.observer_errors}
    with open(args.record, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record))  # dumps uses the C encoder, dump does not
    return rc


if __name__ == "__main__":
    sys.exit(main())
