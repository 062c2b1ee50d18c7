"""Command-line surface: every check group as a subcommand, JSON reports on
stdout, optional golden-file persistence.

Exit codes: 0 all checks passed, 1 at least one failed (or golden mismatch),
2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checks
from .config import load_config
from .errors import ConfigParse, GoldenMismatch, InvalidProgression, OrderTooLarge, QcftError
from .regularization import ArithmeticProgressionSet
from .reports import compare_golden, reports_to_bytes, write_golden

SUBCOMMANDS = list(checks.GROUPS) + ["all"]


def _parse_progressions(text: str) -> tuple[tuple[int, int], ...]:
    """'5:1,4' -> ((5, 1), (5, 4)); semicolons separate different periods."""
    progs = []
    for chunk in text.split(";"):
        period, _, residues = chunk.partition(":")
        if not residues:
            raise ValueError(f"bad progression spec {chunk!r}, want 'p:r1,r2'")
        for r in residues.split(","):
            progs.append((int(period), int(r)))
    return tuple(progs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcft",
        description="Exact and numeric cross-checks for q-series, Virasoro "
                    "minimal models, the compact boson, and the K3 mock-modular series.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--order", type=int, default=None,
                        help="series truncation order (default 201)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="tolerance for numeric golden comparisons (default 1e-8)")
    parser.add_argument("--config", type=str, default=None,
                        help="path to a 'key = value' configuration file")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report array to this path")
    parser.add_argument("--golden", type=str, default=None,
                        help="golden file: written if absent, compared if present")
    parser.add_argument("--exact-only", action="store_true", default=None,
                        help="skip floating-point checks")
    parser.add_argument("--progressions", type=str, default=None,
                        help="casimir subcommand: progressions like '5:1,4'")
    parser.add_argument("--terms", type=int, default=None,
                        help="mock subcommand: number of coefficients to extract (default 5)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, order=args.order, tolerance=args.tolerance,
                          exact_only=args.exact_only, output=args.output)
        # a flag that feeds one group's keyword: any other subcommand, `all` too, exits 2
        if (args.terms is not None and args.subcommand != "mock"
                or args.progressions is not None and args.subcommand != "casimir"):
            raise ValueError("--terms applies only to mock, --progressions only to casimir")
        kwargs = {} if args.terms is None else {"n_terms": args.terms}
        if args.progressions:
            # validated before any group runs: an invalid set exits 2, as malformed text does
            kwargs["progressions"] = ArithmeticProgressionSet(
                _parse_progressions(args.progressions)).progressions
    except (ConfigParse, OrderTooLarge, InvalidProgression, ValueError, OSError) as e:
        print(f"qcft: configuration error: {e}", file=sys.stderr)
        return 2

    try:
        if args.subcommand == "all":
            reports = checks.run_all(cfg)
        else:
            reports = checks.run_group(args.subcommand, cfg, **kwargs)
    except ValueError as e:
        print(f"qcft: {e}", file=sys.stderr)
        return 2
    except QcftError as e:
        print(f"qcft: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    payload = reports_to_bytes(reports)
    sys.stdout.write(payload.decode())
    try:
        if cfg.output_path:
            Path(cfg.output_path).write_bytes(payload)
        if args.golden:
            golden = Path(args.golden)
            if golden.exists():
                compare_golden(reports, golden, cfg.float_tolerance)
            else:
                write_golden(reports, golden)
    except OSError as e:
        print(f"qcft: {e}", file=sys.stderr)
        return 2
    except GoldenMismatch as e:
        print(f"qcft: golden mismatch: {e}", file=sys.stderr)
        return 1
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
