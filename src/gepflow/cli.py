"""Command-line entry point.

Subcommands
-----------
generate      draw a synthetic problem instance and write its JSON bundle
solve         run one solver (with restarts) on an instance file
sweep         run an m-sweep and write the results CSV plus a summary
verify        measure empirical perturbation magnitudes against the truth
theory-check  print step-size/condition diagnostics and run the
              randomized inequality suites

Conventions
-----------
* Exit codes: 0 success, 1 validation/usage failure, 2 computation failure
  (solver errors, failed inequality suites).
* Every output file carries provenance: CSV files start with a
  "# provenance:" comment line; JSON files carry a "provenance" object.
  The config hash covers every content-determining option, so any
  semantic flag change shows up in it; --jobs and output paths are
  excluded (parallelism must not change output bytes).
* Option precedence: command-line flag > --config JSON file > GEP_SEED
  environment variable (seed only) > built-in default.
* Step sizes accept exact fractions ("7/32") as well as decimals.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import GepflowError
from .generative import model_from_json
from .harness import (
    GENERATORS,
    SweepSpec,
    cosine_similarity,
    rows_to_csv,
    run_sweep,
    signed_distance,
    summarize,
    summary_to_json,
    summary_to_text,
)
from .linalg import generalized_eig
from .priors import PRIOR_NAMES, projector_from_spec
from .problems import instance_from_json, instance_to_json, verify_perturbation
from .rng import NormalStream
from .solvers import DENOMINATOR_FLOOR, SOLVER_NAMES, SolverConfig, run_with_restarts, trace_to_json
from .theory import compute_conditions, run_lemma_suites


class _CliParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class CliError(Exception):
    """Validation failure (maps to exit code 1)."""


def _parse_step(text) -> float:
    """Parse a step size; 'a/b' is computed from exact integers."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        try:
            return int(num) / int(den)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"step size {s!r}: {exc}") from exc
    return float(s)


def _parse_stop_tol(text):
    if text is None:
        return None
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip().lower()
    if s in ("none", "off"):
        return None
    return float(s)


def _parse_int_list(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return tuple(int(part) for part in str(value).split(",") if part.strip())


def _parse_str_list(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(part.strip() for part in str(value).split(",") if part.strip())


class _Resolver:
    """flag > config file > default, with shared coercion."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, dest: str, default=None, coerce=None):
        value = getattr(self.args, dest, None)
        if value is None:
            value = self.config.get(dest, default)
        if value is not None and coerce is not None:
            return coerce(value)
        return value

    def require(self, dest: str, coerce=None):
        value = self.get(dest, None, coerce)
        if value is None:
            raise CliError(f"missing required option --{dest.replace('_', '-')}")
        return value

    def seed(self) -> int:
        value = self.get("seed", None)
        if value is None:
            env = os.environ.get("GEP_SEED")
            if env is not None:
                try:
                    return int(env)
                except ValueError as exc:
                    raise CliError(f"GEP_SEED must be an integer, got {env!r}") from exc
            return 0
        return int(value)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError("config file must contain a JSON object")
    return obj


def _provenance(seed: int, opts: dict) -> dict:
    blob = json.dumps(opts, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return {"version": __version__, "seed": seed, "config": digest}


def _provenance_line(prov: dict) -> str:
    return (
        f"# provenance: version={prov['version']} "
        f"seed={prov['seed']} config={prov['config']}"
    )


def _json_safe(obj):
    """Replace NaN/inf with None so output stays strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict, prov: dict) -> None:
    body = {"provenance": prov}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: str, text: str, prov: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_provenance_line(prov) + "\n")
        fh.write(text)


def _load(path: str, from_json, what: str):
    """Read a JSON file and decode it with `from_json`; failures exit 1."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, KeyError, GepflowError) as exc:
        raise CliError(f"invalid {what} file {path}: {exc}") from exc


def _prior_spec(r: _Resolver) -> dict:
    """The `projector_from_spec` dict described by the prior flags."""
    name = r.get("prior", "sphere")
    spec: dict = {"prior": name}
    if name == "sparse":
        spec["s"] = r.get("s", None, int)
        if spec["s"] is None:
            raise CliError("sparse prior requires --s")
    elif name == "subspace":
        k, model = r.get("k", None, int), r.get("model")
        if (k is None) == (model is None):
            raise CliError("subspace prior requires one of --k or --model")
        spec.update({"k": k} if model is None else {"model_path": model})
    elif name == "range":
        spec["model_path"] = r.get("model")
        if spec["model_path"] is None:
            raise CliError("range prior requires --model")
        spec["projection"] = {
            "steps": r.get("proj_steps", 100, int),
            "learning_rate": r.get("proj_lr", 0.1, float),
            "restarts": r.get("proj_restarts", 3, int),
            "seed": r.get("proj_seed", 0, int),
        }
    return spec


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_generate(args) -> int:
    r = _Resolver(args, _load_config_file(args.config))
    kind = r.require("kind")
    if kind not in GENERATORS:
        raise CliError(f"unknown kind {kind!r}")
    n = r.require("n", int)
    m = r.require("m", int)
    vstar = r.get("vstar", "nonneg")
    if vstar not in ("nonneg", "raw"):
        raise CliError('--vstar must be "nonneg" or "raw"')
    out = r.require("out")
    seed = r.seed()
    opts = {"cmd": "generate", "kind": kind, "n": n, "m": m, "seed": seed, "vstar": vstar}
    prov = _provenance(seed, opts)

    raw = NormalStream(seed + 1, stream=0).unit_vector(n)
    v = np.abs(raw) if vstar == "nonneg" else raw
    v = v / float(np.linalg.norm(v))
    try:
        instance = GENERATORS[kind](v, m, seed=seed)
    except (ValueError, GepflowError) as exc:
        raise CliError(str(exc)) from exc
    _write_json(out, instance_to_json(instance), prov)
    print(f"wrote {kind} instance n={n} m={m} to {out} [{prov['config']}]")
    return 0


def _cmd_solve(args) -> int:
    r = _Resolver(args, _load_config_file(args.config))
    solver = r.require("solver")
    if solver not in SOLVER_NAMES:
        raise CliError(f"unknown solver {solver!r}")
    in_path = r.require("in_path")
    out = r.require("out")
    seed = r.seed()
    eta = r.get("eta", 7.0 / 32.0, _parse_step)
    eta_prime = r.get("eta_prime", 35.0 / 32.0, _parse_step)
    max_iters = r.get("max_iters", 300, int)
    stop_tol = _parse_stop_tol(r.get("stop_tol", "1e-9"))
    floor = r.get("denominator_floor", DENOMINATOR_FLOOR, float)
    restarts = r.get("restarts", 10, int)
    s = r.get("s", None, int)
    prior = _prior_spec(r)

    opts = {
        "cmd": "solve", "solver": solver, "in": in_path, "seed": seed,
        "prior": r.get("prior", "sphere"), "model": r.get("model"),
        "k": r.get("k", None, int), "s": s, "eta": eta, "eta_prime": eta_prime,
        "max_iters": max_iters, "stop_tol": stop_tol,
        "denominator_floor": floor, "restarts": restarts,
        "proj_steps": r.get("proj_steps", 100, int),
        "proj_lr": r.get("proj_lr", 0.1, float),
        "proj_restarts": r.get("proj_restarts", 3, int),
        "proj_seed": r.get("proj_seed", 0, int),
    }
    prov = _provenance(seed, opts)

    instance = _load(in_path, instance_from_json, "instance")
    # Reference = population GEP optimum (equals the planted vector for B = I).
    truth_v = instance.truth.v_lead if instance.truth is not None else None
    try:
        p = projector_from_spec(prior, truth=truth_v, seed=seed)
    except (OSError, ValueError, KeyError, GepflowError) as exc:
        raise CliError(f"cannot build the {prior['prior']} prior: {exc}") from exc
    if solver == "rifle" and s is None:
        raise CliError("rifle requires --s")
    try:
        cfg = SolverConfig(
            step_size=eta, max_iters=max_iters, stop_tol=stop_tol,
            denominator_floor=floor,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    try:
        result = run_with_restarts(
            solver, instance.a_hat, instance.b_hat, cfg, restarts, seed,
            p=p, s=s, eta_prime=eta_prime, v_star=truth_v,
        )
    except GepflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2

    payload = trace_to_json(solver, cfg, result.trace, "ok")
    payload["restart_index"] = result.restart_index
    payload["objective"] = result.objective
    payload["estimate"] = [float(x) for x in result.estimate]
    payload["restart_failures"] = list(result.failures)
    if truth_v is not None:
        cos = cosine_similarity(truth_v, result.estimate)
        payload["metrics"] = {
            "cos_sim": cos,
            "abs_cos_sim": abs(cos),
            "signed_dist_min": signed_distance(result.estimate, truth_v),
        }
        print(
            f"{solver}: restart {result.restart_index} objective "
            f"{result.objective:.6g} |cos| {abs(cos):.4f}"
        )
    else:
        print(
            f"{solver}: restart {result.restart_index} objective "
            f"{result.objective:.6g}"
        )
    _write_json(out, payload, prov)
    return 0


def _cmd_sweep(args) -> int:
    r = _Resolver(args, _load_config_file(args.config))
    seed = r.seed()
    prior_spec = _prior_spec(r)
    timing = r.get("timing", "real")
    jobs = r.get("jobs", 1, int)
    out = r.require("out")
    try:
        spec = SweepSpec(
            kind=r.require("kind"),
            m_values=r.require("m_values", _parse_int_list),
            n=r.require("n", int),
            solvers=r.get("solvers", ("prfm",), _parse_str_list),
            trials=r.get("trials", 20, int),
            prior=prior_spec,
            restarts=r.get("restarts", 10, int),
            eta=r.get("eta", 7.0 / 32.0, _parse_step),
            eta_prime=r.get("eta_prime", 35.0 / 32.0, _parse_step),
            s=r.get("s", None, int),
            max_iters=r.get("max_iters", 300, int),
            stop_tol=_parse_stop_tol(r.get("stop_tol", "1e-9")),
            base_seed=seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    # every spec field is hashed, base_seed under its flag's name
    fields = dataclasses.asdict(spec)
    del fields["base_seed"]
    prov = _provenance(seed, {"cmd": "sweep", **fields, "seed": seed, "timing": timing})

    try:
        rows = run_sweep(spec, jobs=jobs, timing=timing)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_text(out, rows_to_csv(rows), prov)
    cells = summarize(rows)
    sys.stdout.write(summary_to_text(cells))
    summary_out = r.get("summary_out")
    if summary_out is not None:
        _write_json(summary_out, {"cells": summary_to_json(cells)}, prov)
    failed = sum(1 for row in rows if row.status != "ok")
    if failed:
        print(f"note: {failed}/{len(rows)} runs failed; see status column")
    return 0


def _cmd_verify(args) -> int:
    r = _Resolver(args, _load_config_file(args.config))
    in_path = r.require("in_path")
    set_size = r.get("set_size", 50, int)
    seed = r.seed()
    model = r.get("model")
    opts = {
        "cmd": "verify", "in": in_path, "set_size": set_size,
        "seed": seed, "model": model,
    }
    prov = _provenance(seed, opts)

    instance = _load(in_path, instance_from_json, "instance")
    generator = _load(model, model_from_json, "model") if model is not None else None
    try:
        report = verify_perturbation(instance, set_size, seed, generator=generator)
    except GepflowError as exc:
        raise CliError(str(exc)) from exc
    print(
        f"max|s1'Es2| {report.max_e_bilinear:.6g} (c_hat {report.c_hat_e:.4g})  "
        f"max|s1'Fs2| {report.max_f_bilinear:.6g} (c_hat {report.c_hat_f:.4g})  "
        f"n/m {report.n_over_m:.4g}"
    )
    out = r.get("out")
    if out is not None:
        _write_json(out, dataclasses.asdict(report), prov)
    return 0


def _cmd_theory_check(args) -> int:
    r = _Resolver(args, _load_config_file(args.config))
    in_path = r.require("in_path")
    eta = r.get("eta", 7.0 / 32.0, _parse_step)
    draws = r.get("draws", 10_000, int)
    seed = r.seed()
    opts = {
        "cmd": "theory-check", "in": in_path, "eta": eta,
        "draws": draws, "seed": seed,
    }
    prov = _provenance(seed, opts)

    instance = _load(in_path, instance_from_json, "instance")
    if instance.truth is None:
        raise CliError("theory-check needs an instance with recorded truth")
    pair = instance.truth.pair
    n = pair.a.shape[0]
    u0 = np.ones(n) / math.sqrt(n)
    try:
        spectrum = generalized_eig(pair)
        cond = compute_conditions(spectrum, pair.b, eta, u0)
    except GepflowError as exc:
        print(f"condition computation failed: {exc}", file=sys.stderr)
        return 2

    def flag(ok: bool) -> str:
        return "satisfied" if ok else "NOT satisfied"

    print(f"eta          {eta:.10g}")
    for field in dataclasses.fields(cond):
        value = getattr(cond, field.name)
        if not isinstance(value, bool):
            print(f"{field.name:<13}{value:.10g}")
    print(f"step sum     gamma1+gamma2 = {cond.gamma1 + cond.gamma2:.10g} < 2: "
          f"{flag(cond.step_sum_ok)}")
    print(f"contraction  < 1: {flag(cond.contraction_ok)}")
    print(f"step floor   3*gamma1+gamma2 = {3 * cond.gamma1 + cond.gamma2:.10g} > 3: "
          f"{flag(cond.step_floor_ok)}")
    print(f"nu0 > 0:     {flag(cond.nu0_positive)}")

    suites = run_lemma_suites(draws=draws, seed=seed)
    failed = False
    for suite in suites:
        status = "ok" if suite.failures == 0 else "FAILED"
        failed = failed or suite.failures > 0
        print(
            f"suite {suite.name:<12} draws {suite.draws:>6} "
            f"failures {suite.failures} worst_slack {suite.worst_slack:.3e} {status}"
        )
    out = r.get("out")
    if out is not None:
        payload = {
            "conditions": dataclasses.asdict(cond),
            "suites": [dataclasses.asdict(s) for s in suites],
        }
        _write_json(out, payload, prov)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option defaults (flags win)")
    p.add_argument("--seed", type=int, help="integer seed (GEP_SEED is the fallback)")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """Prior, step and restart options shared by solve and sweep."""
    p.add_argument("--prior", choices=PRIOR_NAMES)
    p.add_argument("--model", help="generator model JSON (subspace/range priors)")
    p.add_argument("--k", type=int, help="latent dim for a truth-containing subspace prior")
    p.add_argument("--s", type=int, help="sparsity level (rifle / sparse prior)")
    p.add_argument("--eta", help='step size, e.g. "0.21875" or "7/32"')
    p.add_argument("--eta-prime", dest="eta_prime", help="rifle step scale")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--stop-tol", dest="stop_tol", help='tolerance or "none"')
    p.add_argument("--restarts", type=int)
    p.add_argument("--proj-steps", dest="proj_steps", type=int)
    p.add_argument("--proj-lr", dest="proj_lr", type=float)
    p.add_argument("--proj-restarts", dest="proj_restarts", type=int)
    p.add_argument("--proj-seed", dest="proj_seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="gepflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gepflow {__version__}")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_CliParser)

    g = sub.add_parser("generate", help="write a synthetic instance bundle")
    _add_common(g)
    g.add_argument("--kind", choices=sorted(GENERATORS))
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--vstar", choices=("nonneg", "raw"))
    g.add_argument("--out")
    g.set_defaults(handler=_cmd_generate)

    s = sub.add_parser("solve", help="run one solver on an instance file")
    _add_common(s)
    s.add_argument("--in", dest="in_path")
    s.add_argument("--solver", choices=SOLVER_NAMES)
    _add_run_options(s)
    s.add_argument("--denominator-floor", dest="denominator_floor", type=float)
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_solve)

    w = sub.add_parser("sweep", help="run an m-sweep, write CSV + summary")
    _add_common(w)
    w.add_argument("--kind", choices=sorted(GENERATORS))
    w.add_argument("--n", type=int)
    w.add_argument("--m-values", dest="m_values", help="comma list, e.g. 250,500,1000")
    w.add_argument("--solvers", help=f"comma list from {','.join(SOLVER_NAMES)}")
    w.add_argument("--trials", type=int)
    _add_run_options(w)
    w.add_argument("--jobs", type=int, help="worker threads; never changes output "
                   "(cells hold the interpreter lock, so more than 1 runs slower)")
    w.add_argument("--timing", choices=("real", "zero"))
    w.add_argument("--summary-out", dest="summary_out")
    w.add_argument("--out")
    w.set_defaults(handler=_cmd_sweep)

    v = sub.add_parser("verify", help="empirical perturbation magnitudes")
    _add_common(v)
    v.add_argument("--in", dest="in_path")
    v.add_argument("--set-size", dest="set_size", type=int)
    v.add_argument("--model", help="probe with range points of this generator")
    v.add_argument("--out")
    v.set_defaults(handler=_cmd_verify)

    t = sub.add_parser("theory-check", help="condition table + inequality suites")
    _add_common(t)
    t.add_argument("--in", dest="in_path")
    t.add_argument("--eta", help='step size, e.g. "7/32"')
    t.add_argument("--draws", type=int, help="randomized draws per suite")
    t.add_argument("--out")
    t.set_defaults(handler=_cmd_theory_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
