"""Run one ``wittpoint`` CLI command from the checkout's ``src``, as the
installed console script would, optionally under the span tracer.

    python3 perfbench/cli_shim.py [--trace-out FILE] -- <wittpoint arguments>

With ``--trace-out`` the spans of the call and the time ``import
wittpoint.cli`` took are written to FILE as JSON before the process exits.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    sys.path.insert(0, str(ROOT / "src"))
    if not opts:
        from wittpoint.cli import main as cli_main

        return cli_main(argv)
    if opts[0] != "--trace-out" or len(opts) != 2:
        raise SystemExit(f"unknown shim options {opts}")
    import json

    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    import_s = tracer.install()
    tracer.item = 0
    import wittpoint.cli

    try:
        code = wittpoint.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        Path(opts[1]).write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
