"""Command-line surface: generate, evolve, verify, analyze, export.

Exit codes are a stable contract: 0 pass, 1 verification fail, 2 input
error, 3 evolution breakdown. Structured JSON diagnostics go to stderr on
nonzero exit. Every command is deterministic given identical flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import continuum, evolution, fixtures, io, lax, model, spectral
from .errors import DnahmError, FormatError

_LAX_ETAS = (0.7 + 0.3j, 1.3 - 0.4j)
_LAX_ZETAS = (0.2 + 0.1j, -1.1 + 0.6j)


def _fail(code: int, **diagnostic) -> int:
    print(json.dumps(diagnostic), file=sys.stderr)
    return code


class _UsageError(Exception):
    """A usage error, reported as an exit-2 JSON diagnostic, not usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _load_dn_chain(path):
    chain, metric = io.document_to_chain(io.load_json(path))
    if isinstance(chain, model.BAChain):
        return model.from_braam_austin(chain), metric, chain
    return chain, metric, None


def cmd_example(args) -> int:
    chain, metric = fixtures.trig_solution(args.p)
    ranks = fixtures.boundary_rank_check(chain)
    params = fixtures.trig_params(args.p)
    doc = io.chain_to_document(
        chain,
        metric=metric,
        metadata={
            "p": args.p,
            "phi": params.phi,
            "boundary_ranks": [ranks.left, ranks.right],
        },
    )
    io.save_json(args.out, doc)
    print(f"wrote trigonometric chain for p={args.p}: {len(chain.A)} sites -> {args.out}")
    return 0


def _evolve_seed(args):
    if args.infile is not None:
        chain, _ = io.document_to_chain(io.load_json(args.infile))
        if isinstance(chain, model.DNChain):
            chain = model.to_braam_austin(chain)
        if not len(chain.gammas):
            raise FormatError("seed document needs at least one link (gamma)")
        if args.backward:
            return chain.gammas[-1], chain.betas[-1]
        return chain.gammas[0], chain.betas[0]
    gamma0, beta0 = fixtures.random_reality_seed(args.random_k, args.seed, args.spread)
    return gamma0, beta0


def cmd_evolve(args) -> int:
    if (args.infile is None) == (args.random_k is None):
        return _fail(2, error="UsageError", message="give exactly one of --in or --random-k")
    chain, breakdown_at = evolution.evolve(
        _evolve_seed(args), args.steps, tol=args.tol, backward=args.backward
    )
    io.save_json(args.out, io.chain_to_document(chain))
    if breakdown_at is not None:
        return _fail(
            3,
            error="Breakdown",
            breakdown_at=breakdown_at,
            links=len(chain.gammas),
            message="evolution stopped at a non-positive step matrix; partial chain written",
        )
    print(f"evolved {len(chain.gammas)} links ({len(chain.betas)} sites) -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    chain, metric, ba = _load_dn_chain(args.infile)
    if args.metric is not None:
        metric = io.metric_from_document(io.load_json(args.metric))

    tol = args.tol
    checks: dict = {}
    failures: list[str] = []

    records = model.dn_residuals(chain)
    dn_max = max((rec.max for rec in records), default=0.0)
    checks["dn_residuals"] = {
        "max": dn_max,
        "per_link": [
            {
                "link": rec.r,
                "comm_a": rec.comm_a,
                "comm_d": rec.comm_d,
                "b_left": rec.b_left,
                "b_right": rec.b_right,
            }
            for rec in records
        ],
    }
    if dn_max > tol:
        failures.append("dn_residuals")

    if ba is not None:
        res = model.ba_residuals(ba)
        checks["ba_residuals"] = {
            "max": res.max,
            "evolution": list(res.evolution),
            "metric": list(res.metric),
        }
        if res.max > tol:
            failures.append("ba_residuals")

    if metric is not None:
        reality = model.reality_residual(chain, metric)
        checks["reality_residual"] = reality
        if reality > tol:
            failures.append("reality_residual")

    ranks = fixtures.boundary_rank_check(chain)
    checks["boundary_ranks"] = {"left": ranks.left, "right": ranks.right}

    if len(chain.A) >= 3:
        comm = [
            lax.commutator_residual(chain, eta, _LAX_ZETAS[0]) for eta in _LAX_ETAS
        ]
        spread = max(
            abs(
                lax.commutator_residual(chain, _LAX_ETAS[0], zeta)
                - comm[0]
            )
            for zeta in _LAX_ZETAS[1:]
        )
        checks["lax_commutator"] = {
            "etas": [[e.real, e.imag] for e in _LAX_ETAS],
            "max": max(comm),
            "zeta_spread": spread,
        }
        if max(comm) > tol:
            failures.append("lax_commutator")
        fact = float(lax.m_factorization_residual(chain, _LAX_ETAS[0], _LAX_ZETAS[0]).max())
        checks["m_factorization"] = {"max": fact}
        if fact > tol:
            failures.append("m_factorization")
    else:
        checks["lax_commutator"] = "skipped (needs at least 3 sites)"

    report = {
        "format_version": io.FORMAT_VERSION,
        "tolerance": tol,
        "passed": not failures,
        "failures": failures,
        "checks": checks,
    }
    io.save_json(args.report, report)
    if failures:
        return _fail(1, error="VerificationFailed", failures=failures, report=str(args.report))
    print(f"verification passed (tol={tol:g}) -> {args.report}")
    return 0


def cmd_spectral(args) -> int:
    chain, _, _ = _load_dn_chain(args.infile)
    surfaces, drift = spectral.site_surfaces(chain)
    base = surfaces[0]
    sites = list(range(chain.r0, chain.r1 + 1))
    series = [[r, d] for r, d in zip(sites, drift.tolist())]
    doc: dict = {
        "format_version": io.FORMAT_VERSION,
        "k": chain.k,
        "sites": sites,
        "surfaces": io.matrix_to_pairs([surf.c for surf in surfaces]),
        "drift": {"max": float(drift.max()), "per_site": series},
    }
    if args.samples:
        points = spectral.curve_samples(base, args.samples)
        report = spectral.smoothness_report(base, points)
        doc["samples"] = [
            {"eta": [p.eta.real, p.eta.imag], "zeta": [p.zeta.real, p.zeta.imag]}
            for p in points
        ]
        doc["smoothness"] = {
            "min_gradient": report.min_gradient,
            "flagged": len(report.flagged),
        }
    if args.antidiagonal:
        doc["antidiagonal_clearance"] = spectral.antidiagonal_clearance(
            base, args.antidiagonal
        )
    io.save_json(args.out, doc)
    if args.drift is not None:
        io.write_csv(args.drift, ["site", "max_abs_drift"], series)
    print(f"wrote {len(surfaces)} surfaces (drift max {doc['drift']['max']:.3e}) -> {args.out}")
    return 0


def cmd_continuum(args) -> int:
    try:
        h_list = sorted({float(tok) for tok in args.h.split(",") if tok}, reverse=True)
        if not h_list:
            raise ValueError("empty h list")
        if not all(0 < h < np.inf for h in h_list):
            raise ValueError("spacings must be finite and positive")
    except ValueError as exc:
        return _fail(2, error="UsageError", message=f"bad --h list: {exc}")
    triple = fixtures.random_skew_triple(args.k, args.seed)
    try:
        rows = continuum.residual_scaling(triple, h_list, rk_steps=args.steps)
    except ValueError as exc:
        return _fail(2, error=type(exc).__name__, message=str(exc))

    def ratio(cur, prev):
        return cur / prev if prev > 0 else ""

    table = []
    for i, row in enumerate(rows):
        prev = rows[i - 1] if i else None
        table.append([
            row.h,
            row.r_evolution,
            row.r_metric,
            ratio(row.r_evolution, prev.r_evolution) if prev else "",
            ratio(row.r_metric, prev.r_metric) if prev else "",
        ])
    io.write_csv(args.out, ["h", "R11", "R12", "ratio11", "ratio12"], table)
    print(f"wrote scaling table for h={h_list} -> {args.out}")
    if len(rows) >= 2:
        out_of_band = []
        for name, cur, prev in (
            ("ratio11", rows[-1].r_evolution, rows[-2].r_evolution),
            ("ratio12", rows[-1].r_metric, rows[-2].r_metric),
        ):
            if cur <= 1e-14 and prev <= 1e-14:
                continue  # residuals at rounding scale: no scaling to judge
            if prev == 0.0 or not (0.4 <= cur / prev <= 0.6):
                out_of_band.append(name)
        if out_of_band:
            return _fail(
                1,
                error="ScalingOutOfBand",
                families=out_of_band,
                message="smallest-pair residual ratios outside [0.4, 0.6]",
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dnahm",
        description="Discrete Nahm system: evolve chains, verify the equations, "
        "compute conserved spectral surfaces, and check the continuum limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="write the trigonometric charge-2 chain")
    p.add_argument("--p", type=float, required=True, help="half-integer mass (2p a positive integer)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("evolve", help="run the discrete-time evolution from a seed")
    p.add_argument("--in", dest="infile", default=None, help="chain/seed document (ba or dn form)")
    p.add_argument("--random-k", type=_positive_int, default=None, help="generate a random seed of this charge")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="rng seed for --random-k")
    p.add_argument("--spread", type=float, default=0.3, help="amplitude for --random-k")
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--backward", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=evolution.BREAKDOWN_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="measure all equation residuals and report pass/fail")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--metric", default=None, help="metric document for the reality check")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectral", help="per-site spectral surfaces, drift, curve diagnostics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--drift", default=None, help="write per-site drift CSV here")
    p.add_argument("--samples", type=_nonnegative_int, default=0, help="sample the curve at this many eta values (0: skip)")
    p.add_argument("--antidiagonal", type=_nonnegative_int, default=0, help="anti-diagonal clearance sample count (0: skip)")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("continuum", help="first-order scaling table of the embedding residuals")
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--h", required=True, help="comma-separated decreasing spacings")
    p.add_argument("--steps", type=_positive_int, default=2000, help="integrator steps")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_continuum)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail(2, error="UsageError", message=str(exc))
    try:
        return args.func(args)
    except DnahmError as exc:  # input the library refused: typed, exit 2
        return _fail(2, error=type(exc).__name__, message=str(exc))
    except OSError as exc:
        return _fail(2, error="OSError", message=str(exc))


if __name__ == "__main__":
    sys.exit(main())
