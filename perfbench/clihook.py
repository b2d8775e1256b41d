"""One traced cold-cli study: ``repro.cli.main`` under the ledger.

Usage::

    python -X importtime perfbench/clihook.py --ledger OUT.json run --cohort ...

Installs the layer wrappers, runs the CLI with the given arguments as
one study root, and writes the ledger snapshot to ``OUT.json``.  The
interpreter's ``-X importtime`` report (on standard error) gives the
``startup.*`` metrics.
"""

from __future__ import annotations

import json
import sys
from typing import List

import harness


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--ledger":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_argv = argv[1], argv[2:]
    harness.bootstrap()
    import repro.cli as cli
    from ledger import Ledger

    ledger = Ledger()
    with ledger.installed():
        # The CLI's --json output carries no round counts; take them
        # from the StudyResult on its way back to the CLI.
        ledger.patch(
            cli,
            "run_study",
            lambda fn: ledger.counted(
                fn, lambda args, result: ledger.record_rounds(result.ocall_rounds)
            ),
        )
        with ledger.study():
            code = cli.main(cli_argv)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(ledger.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
