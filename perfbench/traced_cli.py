"""``python -m k3mirror.cli`` with the library's public functions traced.

The span report goes to the last line of stderr, so stdout stays exactly
what the CLI prints.  Run with ``PYTHONPATH=src`` from the repository root:

    python3 perfbench/traced_cli.py fm-partners 12 --timing
"""

import sys

import spans

tracer = spans.Tracer()
tracer.install()
from k3mirror import cli  # noqa: E402

sys.argv = ["k3mirror", *sys.argv[1:]]
try:
    cli.main()
finally:
    tracer.uninstall()
    print(tracer.child_report(), file=sys.stderr)
