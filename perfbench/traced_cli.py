"""Run `tilq.cli` under the tracer and write the spans to a JSON file.

  traced_cli.py SPANS.json CLI-ARGS...

Exits with the CLI's own exit code.
"""
import json
import sys

import tilq.cli

from tracer import Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tilq.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
