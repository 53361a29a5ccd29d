"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve.py --trace-out spans.json -- --port 0 ...

Everything after ``--`` goes to the CLI ``serve`` subcommand unchanged.
``SIGUSR1`` clears the span aggregates and answers ``trace-reset`` on
stdout (the load generator sends it when its timed window opens); on
exit - the CLI returns after ``SIGINT`` - the aggregates are written to
``--trace-out`` as JSON.  Campaign executions (``CampaignScheduler._execute``
on the slot thread) are recorded as the ``service.execute`` span, the
whole against which ``unattributed_s`` is taken.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import WHOLE_SPAN, Tracer, install  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out" or "--" not in argv:
        print("usage: serve.py --trace-out PATH -- <serve args>",
              file=sys.stderr)
        return 2
    out = Path(argv[1])
    serve_args = argv[argv.index("--") + 1:]

    from repro.cli import main as cli_main
    from repro.service.scheduler import CampaignScheduler

    tracer = Tracer()
    install(tracer)
    # The whole that the layers' self times are attributed against: the
    # scheduler slot's campaign executions.
    CampaignScheduler._execute = tracer.wrap(
        WHOLE_SPAN, CampaignScheduler._execute)

    def reset(signum: int, frame: object) -> None:
        tracer.reset()
        print("trace-reset", flush=True)

    signal.signal(signal.SIGUSR1, reset)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
