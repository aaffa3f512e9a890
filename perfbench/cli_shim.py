"""``rankdate`` with the benchmark's layer wrappers installed.

The traced cli-date run starts this file in place of ``python3 -m rankdate``.
It runs the same ``rankdate.cli.run`` on the same arguments, leaves stdout to
the CLI, and writes its span totals to stderr as one line starting with
``perfbench-trace``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rankdate.cli  # noqa: E402
import spans  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer()
    spans.install(tracer)
    code = rankdate.cli.run(sys.argv[1:])
    sys.stdout.flush()
    print(spans.TRACE_PREFIX + json.dumps(tracer.snapshot()), file=sys.stderr)
    sys.exit(code)
