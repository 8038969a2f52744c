"""Command-line entry point: regenerate every table and figure.

Usage::

    python -m repro.bench                 # everything, default scale
    python -m repro.bench --scale 0.5     # smaller traces
    python -m repro.bench --tables table1,table7 --skip-figures
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.perf import run_figure11
from repro.bench.tables import TABLE_SUITES, format_figure10
from repro.errors import ReproError, exit_code_for
from repro.runner.corpus import get_suite
from repro.runner.executor import run_suite


def main(argv=None) -> int:
    """Run the selected tables/figures, mapping errors to the stable exit
    codes of :mod:`repro.errors` like the main CLI does."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe; mirror
        # repro.cli: nothing to report, 128+SIGPIPE.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="Scale factor on per-thread event counts (default 1.0).")
    parser.add_argument("--tables", type=str, default="all",
                        help="Comma-separated table ids (table1..table7) or 'all'.")
    parser.add_argument("--skip-figures", action="store_true",
                        help="Skip Figures 10 and 11.")
    parser.add_argument("--memory", action="store_true",
                        help="Also print the per-table memory columns.")
    args = parser.parse_args(argv)

    if args.tables == "all":
        selected = list(TABLE_SUITES)
    else:
        selected = [name.strip() for name in args.tables.split(",") if name.strip()]
        unknown = [name for name in selected if name not in TABLE_SUITES]
        if unknown:
            parser.error(f"unknown tables: {', '.join(unknown)}")

    # Figure 10 needs every table and each job's peak; a peak costs an
    # extra, traced run per job, so only a printed peak pays for it.
    figure10 = not args.skip_figures and set(selected) == set(TABLE_SUITES)
    results = {}
    for name in selected:
        result = results[name] = run_suite(
            name, scale=args.scale, memory=args.memory or figure10)
        title = get_suite(name).description
        print(result.format_pivot(title))
        if args.memory:
            print(result.format_pivot(title, metric="peak_bytes"))
        print()

    if figure10:
        print(format_figure10(results))
        print()
    if not args.skip_figures:
        print(run_figure11().format())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
