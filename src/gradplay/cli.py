"""Command-line front end: run experiments, audit invariants, print certificates.

Exit status: 0 when every enabled check passed, 1 when a check failed
(lemma-slack violation, divergence, audit failure), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds
from .auditing import audit
from .errors import GradplayError
from .harness import (
    OUT_DIR_ENV,
    PRESETS,
    TOPOLOGIES,
    ExperimentConfig,
    _json_text,
    run_experiment,
)


def _default_out(subdir: str) -> str:
    base = os.environ.get(OUT_DIR_ENV, "gradplay-out")
    return os.path.join(base, subdir)


def _parse_alpha(text: str):
    return text if text == "auto" else float(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradplay",
        description=(
            "Distributed Nash-equilibrium seeking via gradient play: "
            "simulation, step-size certificates, invariant audits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configured experiment")
    run_p.add_argument("--config", help="JSON config file (see README for the schema)")
    run_p.add_argument(
        "--preset", choices=sorted(PRESETS), help="named preset; config file keys override it"
    )
    run_p.add_argument(
        "--alpha", type=_parse_alpha, help='step size, a number or "auto" (overrides config)'
    )
    run_p.add_argument("--out", help=f"output directory (default: ${OUT_DIR_ENV} or ./gradplay-out)")

    audit_p = sub.add_parser("audit", help="batch-verify every invariant over a config matrix")
    audit_p.add_argument("--sizes", default="2,5,10,20", help="comma-separated player counts")
    audit_p.add_argument(
        "--topologies", default=",".join(TOPOLOGIES), help="comma-separated topologies"
    )
    audit_p.add_argument("--seeds", type=int, default=5, help="seeds per cell")
    audit_p.add_argument("--coupling-scale", type=float, default=0.2)
    audit_p.add_argument("--iters", type=int, default=200, help="iterations per audited run")
    audit_p.add_argument(
        "--alpha-override",
        type=float,
        help="force this step size in every cell (negative-path testing)",
    )
    audit_p.add_argument("--out", help="directory for audit.json / audit.txt")

    bounds_p = sub.add_parser("bounds", help="print the step-size plan for given constants")
    bounds_p.add_argument("--mu", type=float, required=True)
    bounds_p.add_argument("--L", type=float, required=True, dest="l")
    bounds_p.add_argument("--sigma", type=float, required=True)
    bounds_p.add_argument("--n", type=int, required=True)
    bounds_p.add_argument("--alpha", type=float, help="default: 0.9 * alpha_max")
    bounds_p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    cmp_p = sub.add_parser(
        "compare-grane", help="asymptotic rate-gap comparison against the GRANE"
    )
    cmp_p.add_argument("--mu", type=float, required=True)
    cmp_p.add_argument("--L", type=float, required=True, dest="l")
    cmp_p.add_argument("--n", type=int, required=True)
    cmp_p.add_argument("--sigma", type=float)
    cmp_p.add_argument("--lap-sigma-max", type=float, help="largest singular value of I - W")
    cmp_p.add_argument(
        "--lap-lambda-min", type=float, help="smallest nonzero eigenvalue of I - W"
    )
    cmp_p.add_argument("--json", action="store_true")

    return parser


def _cmd_run(args) -> int:
    config_doc = {}
    if args.preset:
        config_doc = PRESETS[args.preset]().to_dict()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            file_doc = json.load(f)
        if not isinstance(file_doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(file_doc).__name__}")
        config_doc.update(file_doc)
    if args.alpha is not None:
        config_doc["alpha"] = args.alpha
    config = ExperimentConfig.from_dict(config_doc)
    out_dir = args.out or _default_out("run")
    report = run_experiment(config, out_dir=out_dir)
    sys.stdout.write(report.to_text())
    sys.stdout.write(f"artifacts written to {out_dir}\n")
    if report.first_violation is not None:
        name, t, slack = report.first_violation
        sys.stderr.write(
            f"check failed: {name} violated at iteration {t} (normalized slack {slack:.3e})\n"
        )
    if report.diverged:
        sys.stderr.write("check failed: divergence guard tripped\n")
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    topologies = tuple(t.strip() for t in args.topologies.split(",") if t.strip())
    if not sizes or not topologies:
        raise ValueError("audit needs at least one size and one topology")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    out_dir = args.out or _default_out("audit")
    report = audit(
        sizes=sizes,
        topologies=topologies,
        seeds=args.seeds,
        coupling_scale=args.coupling_scale,
        iters=args.iters,
        alpha_override=args.alpha_override,
        out_dir=out_dir,
    )
    sys.stdout.write(report.to_text())
    sys.stdout.write(f"audit records written to {out_dir}\n")
    return 0 if report.ok else 1


def _cmd_bounds(args) -> int:
    plan = bounds.step_size_plan(args.mu, args.l, args.sigma, args.n, alpha=args.alpha)
    sys.stdout.write(_json_text(plan.to_dict()) if args.json else plan.to_text())
    return 0


def _cmd_compare(args) -> int:
    comparison = bounds.grane_rate_comparison(
        args.mu,
        args.l,
        args.n,
        sigma=args.sigma,
        lap_sigma_max=args.lap_sigma_max,
        lap_lambda_min_nonzero=args.lap_lambda_min,
    )
    sys.stdout.write(_json_text(comparison.to_dict()) if args.json else comparison.to_text())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "audit": _cmd_audit,
        "bounds": _cmd_bounds,
        "compare-grane": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (GradplayError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
