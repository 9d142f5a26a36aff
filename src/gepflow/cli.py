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
  environment variable (seed only) > built-in default. A --config file is
  read as the flags it stands for, placed before the command line.
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
from .generative import LatentProjectionConfig, model_from_json
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
from .priors import PRIOR_NAMES, projector_from_spec
from .problems import instance_from_json, instance_to_json, verify_perturbation
from .rng import NormalStream
from .solvers import (
    DENOMINATOR_FLOOR,
    SOLVER_NAMES,
    SolverConfig,
    default_init,
    run_with_restarts,
    trace_to_json,
)
from .theory import compute_conditions, run_lemma_suites

#: parsed options that never change an output's content, and argparse plumbing
_UNHASHED = frozenset(
    {"config", "out", "summary_out", "jobs", "handler", "subcommand", "flags"}
)


class _CliParser(argparse.ArgumentParser):
    """Exits 1 on usage errors (argparse's own code is 2).

    `flags` maps each valued option's dest to its flag, the form in which
    a --config key is read.
    """

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, str] = {}  # first: the base __init__ adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs != 0:
            self.flags[action.dest] = action.option_strings[0]
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class CliError(Exception):
    """Validation failure (maps to exit code 1)."""


def _parse_step(text: str) -> float:
    """Parse a step size; 'a/b' is computed from exact integers."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        try:
            return int(num) / int(den)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"step size {s!r}: {exc}") from exc
    return float(s)


def _parse_stop_tol(text: str) -> float | None:
    s = text.strip().lower()
    return None if s in ("none", "off") else float(s)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _config_flags(path: str, command: _CliParser) -> list[str]:
    """The flags a --config JSON object stands for in `command`.

    Each key is an option's dest (`m_values`, `in_path`). A list value is
    comma-joined and any other value is str(value), so a config value
    means exactly what the same flag text means.
    """
    obj = _load(path, lambda obj: obj, "config")
    if not isinstance(obj, dict):
        raise CliError("config file must contain a JSON object")
    argv = []
    for key, value in obj.items():
        if key == "config" or key not in command.flags:
            raise CliError(f"config key {key!r} names no option of {command.prog}")
        if value is None:
            raise CliError(f"config key {key!r} is null")
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv.append(f"{command.flags[key]}={text}")
    return argv


def _resolve_seed(seed: int | None) -> int:
    """--seed, else the GEP_SEED environment variable, else 0."""
    if seed is not None:
        return seed
    env = os.environ.get("GEP_SEED", "0")
    try:
        return int(env)
    except ValueError as exc:
        raise CliError(f"GEP_SEED must be an integer, got {env!r}") from exc


def _require(args: argparse.Namespace, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            raise CliError(f"missing required option {args.flags[dest]}")


def _options(args: argparse.Namespace) -> dict:
    """Every parsed option that can change an output, in_path under "in"."""
    opts = {"cmd": args.subcommand}
    for dest, value in vars(args).items():
        if dest not in _UNHASHED:
            opts["in" if dest == "in_path" else dest] = value
    return opts


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


def _prior_spec(args: argparse.Namespace) -> dict:
    """The `projector_from_spec` dict described by the prior flags."""
    spec: dict = {"prior": args.prior}
    if args.prior == "sparse":
        if args.s is None:
            raise CliError("sparse prior requires --s")
        spec["s"] = args.s
    elif args.prior == "subspace":
        if (args.k is None) == (args.model is None):
            raise CliError("subspace prior requires one of --k or --model")
        spec.update({"k": args.k} if args.model is None else {"model_path": args.model})
    elif args.prior == "range":
        if args.model is None:
            raise CliError("range prior requires --model")
        spec["model_path"] = args.model
        spec["projection"] = {
            "steps": args.proj_steps,
            "learning_rate": args.proj_lr,
            "restarts": args.proj_restarts,
            "seed": args.proj_seed,
        }
    return spec


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_generate(args) -> int:
    _require(args, "kind", "n", "m", "out")
    prov = _provenance(args.seed, _options(args))

    raw = NormalStream(args.seed + 1, stream=0).unit_vector(args.n)
    v = np.abs(raw) if args.vstar == "nonneg" else raw
    v = v / float(np.linalg.norm(v))
    try:
        instance = GENERATORS[args.kind](v, args.m, seed=args.seed)
    except GepflowError as exc:
        raise CliError(str(exc)) from exc
    _write_json(args.out, instance_to_json(instance), prov)
    print(f"wrote {args.kind} instance n={args.n} m={args.m} to {args.out} [{prov['config']}]")
    return 0


def _cmd_solve(args) -> int:
    _require(args, "solver", "in_path", "out")
    args.eta, args.eta_prime = _parse_step(args.eta), _parse_step(args.eta_prime)
    args.stop_tol = _parse_stop_tol(args.stop_tol)
    prior = _prior_spec(args)
    prov = _provenance(args.seed, _options(args))

    instance = _load(args.in_path, instance_from_json, "instance")
    # Reference = population GEP optimum (equals the planted vector for B = I).
    truth_v = instance.truth.v_lead if instance.truth is not None else None
    try:
        p = projector_from_spec(prior, truth=truth_v, seed=args.seed)
    except (OSError, ValueError, KeyError, GepflowError) as exc:
        raise CliError(f"cannot build the {args.prior} prior: {exc}") from exc
    if args.solver == "rifle" and args.s is None:
        raise CliError("rifle requires --s")
    cfg = SolverConfig(
        step_size=args.eta, max_iters=args.max_iters, stop_tol=args.stop_tol,
        denominator_floor=args.denominator_floor,
    )

    try:
        result = run_with_restarts(
            args.solver, instance.a_hat, instance.b_hat, cfg, args.restarts, args.seed,
            p=p, s=args.s, eta_prime=args.eta_prime, v_star=truth_v,
        )
    except GepflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2

    payload = trace_to_json(args.solver, cfg, result.trace)
    payload["restart_index"] = result.restart_index
    payload["objective"] = result.objective
    payload["estimate"] = [float(x) for x in result.estimate]
    payload["restart_failures"] = list(result.failures)
    suffix = ""
    if truth_v is not None:
        cos = cosine_similarity(truth_v, result.estimate)
        payload["metrics"] = {
            "cos_sim": cos,
            "abs_cos_sim": abs(cos),
            "signed_dist_min": signed_distance(result.estimate, truth_v),
        }
        suffix = f" |cos| {abs(cos):.4f}"
    print(
        f"{args.solver}: restart {result.restart_index} objective {result.objective:.6g}{suffix}"
    )
    _write_json(args.out, payload, prov)
    return 0


def _cmd_sweep(args) -> int:
    prior = _prior_spec(args)
    _require(args, "out", "kind", "m_values", "n")
    spec = SweepSpec(
        kind=args.kind,
        m_values=_parse_int_list(args.m_values),
        n=args.n,
        solvers=_parse_str_list(args.solvers),
        trials=args.trials,
        prior=prior,
        restarts=args.restarts,
        eta=_parse_step(args.eta),
        eta_prime=_parse_step(args.eta_prime),
        s=args.s,
        max_iters=args.max_iters,
        stop_tol=_parse_stop_tol(args.stop_tol),
        base_seed=args.seed,
    )

    # every spec field is hashed, base_seed under its flag's name
    fields = dataclasses.asdict(spec)
    del fields["base_seed"]
    prov = _provenance(args.seed, {"cmd": "sweep", **fields, "seed": args.seed,
                                   "timing": args.timing})

    rows = run_sweep(spec, jobs=args.jobs, timing=args.timing)
    _write_text(args.out, rows_to_csv(rows), prov)
    cells = summarize(rows)
    sys.stdout.write(summary_to_text(cells))
    if args.summary_out is not None:
        _write_json(args.summary_out, {"cells": summary_to_json(cells)}, prov)
    failed = sum(1 for row in rows if row.status != "ok")
    if failed:
        print(f"note: {failed}/{len(rows)} runs failed; see status column")
    return 0


def _cmd_verify(args) -> int:
    _require(args, "in_path")
    prov = _provenance(args.seed, _options(args))

    instance = _load(args.in_path, instance_from_json, "instance")
    generator = None if args.model is None else _load(args.model, model_from_json, "model")
    try:
        report = verify_perturbation(instance, args.set_size, args.seed, generator=generator)
    except GepflowError as exc:
        raise CliError(str(exc)) from exc
    print(
        f"max|s1'Es2| {report.max_e_bilinear:.6g} (c_hat {report.c_hat_e:.4g})  "
        f"max|s1'Fs2| {report.max_f_bilinear:.6g} (c_hat {report.c_hat_f:.4g})  "
        f"n/m {report.n_over_m:.4g}"
    )
    if args.out is not None:
        _write_json(args.out, dataclasses.asdict(report), prov)
    return 0


def _cmd_theory_check(args) -> int:
    _require(args, "in_path")
    args.eta = _parse_step(args.eta)
    prov = _provenance(args.seed, _options(args))

    instance = _load(args.in_path, instance_from_json, "instance")
    if instance.truth is None:
        raise CliError("theory-check needs an instance with recorded truth")
    pair = instance.truth.pair
    try:
        cond = compute_conditions(pair, args.eta, default_init(pair.a.shape[0]))
    except GepflowError as exc:
        print(f"condition computation failed: {exc}", file=sys.stderr)
        return 2

    # run first: a bad --draws is refused before any output
    suites = run_lemma_suites(draws=args.draws, seed=args.seed)

    def flag(ok: bool) -> str:
        return "satisfied" if ok else "NOT satisfied"

    print(f"eta          {args.eta:.10g}")
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

    failed = False
    for suite in suites:
        status = "ok" if suite.failures == 0 else "FAILED"
        failed = failed or suite.failures > 0
        print(
            f"suite {suite.name:<12} draws {suite.draws:>6} "
            f"failures {suite.failures} worst_slack {suite.worst_slack:.3e} {status}"
        )
    if args.out is not None:
        payload = {
            "conditions": dataclasses.asdict(cond),
            "suites": [dataclasses.asdict(s) for s in suites],
        }
        _write_json(args.out, payload, prov)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON object of options, read as flags before the others")
    p.add_argument("--seed", type=int, help="integer seed (GEP_SEED is the fallback)")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """Prior, step and restart options shared by solve and sweep."""
    proj = LatentProjectionConfig
    p.add_argument("--prior", choices=PRIOR_NAMES, default="sphere")
    p.add_argument("--model", help="generator model JSON (subspace/range priors)")
    p.add_argument("--k", type=int, help="latent dim for a truth-containing subspace prior")
    p.add_argument("--s", type=int, help="sparsity level (rifle / sparse prior)")
    p.add_argument("--eta", default=str(SweepSpec.eta),
                   help='step size, e.g. "0.21875" or "7/32"')
    p.add_argument("--eta-prime", default=str(SweepSpec.eta_prime), help="rifle step scale")
    p.add_argument("--max-iters", type=int, default=SweepSpec.max_iters)
    p.add_argument("--stop-tol", default=str(SweepSpec.stop_tol), help='tolerance or "none"')
    p.add_argument("--restarts", type=int, default=SweepSpec.restarts)
    p.add_argument("--proj-steps", type=int, default=proj.steps)
    p.add_argument("--proj-lr", type=float, default=proj.learning_rate)
    p.add_argument("--proj-restarts", type=int, default=proj.restarts,
                   help="seeded Adam starts of a run's first range projection; each "
                   "later one descends from the previous projection's latent alone")
    p.add_argument("--proj-seed", type=int, default=proj.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="gepflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gepflow {__version__}")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_CliParser)
    #: name -> subcommand parser, whose flags read a --config file
    parser.commands = sub.choices

    g = sub.add_parser("generate", help="write a synthetic instance bundle")
    _add_common(g)
    g.add_argument("--kind", choices=sorted(GENERATORS))
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--vstar", choices=("nonneg", "raw"), default="nonneg")
    g.add_argument("--out")
    g.set_defaults(handler=_cmd_generate)

    s = sub.add_parser("solve", help="run one solver on an instance file")
    _add_common(s)
    s.add_argument("--in", dest="in_path")
    s.add_argument("--solver", choices=SOLVER_NAMES)
    _add_run_options(s)
    s.add_argument("--denominator-floor", type=float, default=DENOMINATOR_FLOOR)
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_solve)

    w = sub.add_parser("sweep", help="run an m-sweep, write CSV + summary")
    _add_common(w)
    w.add_argument("--kind", choices=sorted(GENERATORS))
    w.add_argument("--n", type=int)
    w.add_argument("--m-values", help="comma list, e.g. 250,500,1000")
    w.add_argument("--solvers", default="prfm",
                   help=f"comma list from {','.join(SOLVER_NAMES)}")
    w.add_argument("--trials", type=int, default=20)
    _add_run_options(w)
    w.add_argument("--jobs", type=int, default=1, help="worker threads; never changes "
                   "output (faster where instance generation dominates, slower where solves do)")
    w.add_argument("--timing", choices=("real", "zero"), default="real")
    w.add_argument("--summary-out")
    w.add_argument("--out")
    w.set_defaults(handler=_cmd_sweep)

    v = sub.add_parser("verify", help="empirical perturbation magnitudes")
    _add_common(v)
    v.add_argument("--in", dest="in_path")
    v.add_argument("--set-size", type=int, default=50)
    v.add_argument("--model", help="probe with range points of this generator")
    v.add_argument("--out")
    v.set_defaults(handler=_cmd_verify)

    t = sub.add_parser("theory-check", help="condition table + inequality suites")
    _add_common(t)
    t.add_argument("--in", dest="in_path")
    t.add_argument("--eta", default=str(SweepSpec.eta), help='step size, e.g. "7/32"')
    t.add_argument("--draws", type=int, default=10_000, help="randomized draws per suite")
    t.add_argument("--out")
    t.set_defaults(handler=_cmd_theory_check)

    for command in sub.choices.values():
        command.set_defaults(flags=command.flags)  # dest -> flag, for messages
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        if args.config is not None:
            # the config's flags go first, so a command-line flag wins
            cut = argv.index(args.subcommand) + 1
            flags = _config_flags(args.config, parser.commands[args.subcommand])
            args = parser.parse_args([*argv[:cut], *flags, *argv[cut:]])
        args.seed = _resolve_seed(args.seed)
        return args.handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
