"""Set-up probe, run in a fresh process: prints the seconds from before
``import repro`` until a ``Session`` exists -- and, with
``--serve-line LINE``, until a one-worker service has accepted LINE --
and then, after a space, the median of a few calibration samples taken
afterwards (see ``perfbench.common.ScaledTimes``), which give the host
speed the probe ran at.

Run as ``python3 -m perfbench.probe [--serve-line LINE]`` with ``src``
and the checkout root on ``PYTHONPATH``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--serve-line")
    args = parser.parse_args()

    import repro  # noqa: F401
    from repro.api import Session

    Session()
    if args.serve_line is None:
        report(time.perf_counter() - START)
        return
    from repro.serve.shard import ShardOptions
    from repro.serve.supervisor import Supervisor

    supervisor = Supervisor(ShardOptions(analyses=("c11-races",)), workers=1)
    supervisor.start()
    try:
        supervisor.ingest_event("probe", args.serve_line)
        elapsed = time.perf_counter() - START
        supervisor.end_tenant("probe")
        supervisor.drain(timeout=30.0)
    finally:
        supervisor.stop()
    report(elapsed)


def report(elapsed: float) -> None:
    from perfbench.common import calibration_sample, median

    calibration = median([calibration_sample() for _ in range(5)])
    print(elapsed, calibration)


if __name__ == "__main__":
    main()
