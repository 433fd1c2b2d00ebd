"""Traced launcher: run a program entry point with layer spans recorded.

    python perfbench/launch.py SPANS.json serve ARGS...   # python -m repro serve ARGS
    python perfbench/launch.py SPANS.json train ARGS...   # perfbench/train_job.py ARGS

Installs the wrappers from :mod:`tracing` in this process, runs the entry
point, and writes the spans to ``SPANS.json`` when it returns (the server
returns after SIGINT, once it has drained and closed its shard pool).
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    spans_path, command, rest = argv[0], argv[1], argv[2:]
    recorder = tracing.Recorder()
    try:
        if command == "serve":
            tracing.install_serve(recorder)
            from repro.cli import main as repro_main

            return repro_main(["serve", *rest])
        if command == "train":
            tracing.install_train(recorder)
            import train_job

            return train_job.main(rest)
        raise SystemExit(f"unknown command {command!r}")
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
