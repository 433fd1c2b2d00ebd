"""Training job for the ``train-arts`` workload, run as its own process.

    python perfbench/train_job.py --seed N [--setup-only]

Runs the experiment runners the paper's tables use: ``prepare_experiment
("arts", "bench", seed=N)``, then ``train_model`` for WhitenRec and
WhitenRec+ at the preset's settings (per-epoch validation, final test).
Prints one JSON line: the monotonic time of the first training step, the
duration of every optimiser step, and per model the epoch losses,
``Trainer.fit`` wall time and test metrics.  It then waits for
stdin to close, so the parent can read this process's ``/proc`` memory
while it is still alive.

With ``--setup-only`` it stops at the first training step and prints only
that step's time: set-up can then be measured several times in one run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

MODELS = ("whitenrec", "whitenrec_plus")


class SetupReached(Exception):
    """Raised at the first training step under ``--setup-only``."""


class StepClock:
    """Times each optimiser step of ``Trainer.train_one_epoch`` from outside
    the trainer, and counts the examples it trains on.

    A step is one pass of the epoch's batch loop: loading the batch,
    forward, backward and the optimiser update.  It is timed from the end
    of the previous update (or the start of the epoch) to the end of its
    own, so validation between epochs is excluded."""

    def __init__(self, stop_at_first: bool) -> None:
        self.stop_at_first = stop_at_first
        self.first_step = None
        self.step_ms = []
        self.examples = 0

    def install(self) -> None:
        from repro.training.trainer import Trainer

        original = Trainer.train_one_epoch
        clock = self

        def timed_epoch(trainer):
            mark = time.monotonic()
            if clock.first_step is None:
                clock.first_step = mark
                if clock.stop_at_first:
                    raise SetupReached()
            optimizer = trainer.optimizer
            update = optimizer.step

            def timed_step(*args, **kwargs):
                nonlocal mark
                result = update(*args, **kwargs)
                now = time.monotonic()
                clock.step_ms.append((now - mark) * 1000.0)
                mark = now
                return result

            optimizer.step = timed_step
            try:
                loss = original(trainer)
            finally:
                del optimizer.step
            clock.examples += len(trainer.loader.examples)
            return loss

        Trainer.train_one_epoch = timed_epoch


def run(seed: int, setup_only: bool) -> dict:
    clock = StepClock(stop_at_first=setup_only)
    clock.install()
    from repro.experiments.presets import prepare_experiment
    from repro.experiments.runners import train_model

    try:
        setup = prepare_experiment("arts", "bench", seed=seed)
        models = {}
        for name in MODELS:
            record = train_model(setup, name, keep_result=True)
            result = record.result
            models[name] = {
                "losses": [float(epoch.train_loss) for epoch in result.history],
                "fit_s": float(result.total_seconds),
                "test": {key: float(value)
                         for key, value in record.test_metrics.items()},
            }
    except SetupReached:
        return {"first_step": clock.first_step}
    return {"first_step": clock.first_step, "step_ms": clock.step_ms,
            "examples": clock.examples, "models": models}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.seed, args.setup_only)), flush=True)
    sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
