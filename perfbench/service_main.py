"""Start ``repro serve-http`` for the ``live_fleet`` workload.

    python3 perfbench/service_main.py [--trace-dir DIR] -- serve-http ...

Runs the production entry point (``repro.cli.main``) unchanged.  With
``--trace-dir`` it first installs the gateway and shard-side layer
wrappers, before the gateway forks its shard processes, so the shards
inherit them; each shard writes its spans to ``DIR/shard-<pid>.json``
when it stops, and the service writes ``DIR/service.json`` after its
graceful SIGTERM drain.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else (
        args.cli_args
    )

    from repro.cli import main as cli_main

    if args.trace_dir is None:
        return cli_main(cli_args)

    from layers import install_gateway, install_pipeline
    from spans import Tracer

    from repro.serve import worker

    tracer = Tracer(args.trace_dir)
    install_gateway(tracer)
    install_pipeline(tracer)
    shard_main = worker._shard_worker_main

    def traced_shard_main(conn):
        tracer.reset()
        try:
            shard_main(conn)
        finally:
            tracer.dump(args.trace_dir / f"shard-{os.getpid()}.json")

    worker._shard_worker_main = traced_shard_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(args.trace_dir / "service.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
