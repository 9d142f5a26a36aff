"""A table of named one-line mutants of `src/gepflow`, and a runner that
measures which of them the tests kill.

Run from any directory:

    python tests/mutants.py [--only NAME] [--file NAME]

`--file generative.py` runs the mutants of that one module of
`src/gepflow`, so a change to a module re-runs its mutants in one command.

For each mutant the runner copies `src/` into a temporary directory,
replaces the mutant's source text in the copy, and runs the mutant's tests
against that copy: `-o pythonpath=<copy>/src` overrides `pyproject.toml`'s
`pythonpath = ["src"]`, which would otherwise put the repository's own
`src/` first. It prints `killed` (some test failed, with the failing tests
named), `survived` (every test passed) or `error` (pytest could not
run the tests, or they ran past the time limit), with the seconds taken.
It exits 1 when any mutant it ran survived, so a CI step can gate on it.
The `import_breaks` mutant makes the package fail to import, so it reads
`error` exactly when the copy is what runs.

The runner never writes to the repository: pytest runs in the temporary
directory with its cache plugin off, so neither `.pytest_cache` nor
Hypothesis's example database is left here.

pytest does not collect this file (it has no `test_` prefix).
`tests/test_mutants.py` checks that every mutant's source text occurs
exactly once in `src/`, so a change to the code cannot leave a mutant
applying nowhere.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 900


class Mutant(NamedTuple):
    name: str
    #: file under src/gepflow
    file: str
    #: source text, with enough context to occur exactly once in src/
    text: str
    #: the text with one of its lines changed
    replacement: str
    #: pytest node ids, relative to the repository root
    tests: tuple[str, ...]


MUTANTS = (
    # One rule, one owner: the subspace unit map, the range projection's
    # running best, and the lemma checkers' shared setup. The unit map's
    # guard and division are `linalg._unit`'s, so its mutants drop them
    # from the call.
    Mutant(
        "unit_coordinates_guard",
        "generative.py",
        '        return _unit(c, DegenerateProjection, "target is orthogonal to the subspace")\n',
        "        return c / _norm(c)\n",
        ("tests/test_solvers.py", "tests/test_generative.py", "tests/test_priors.py"),
    ),
    Mutant(
        "unit_coordinates_division",
        "generative.py",
        '        return _unit(c, DegenerateProjection, "target is orthogonal to the subspace")\n',
        '        return _unit(c, DegenerateProjection, "target is orthogonal to the subspace")'
        " * _norm(c)\n",
        ("tests/test_solvers.py", "tests/test_flow_properties.py"),
    ),
    Mutant(
        "running_best_tie",
        "generative.py",
        "            if not distance >= best[0]:\n",
        "            if not distance > best[0]:\n",
        ("tests/test_generative.py", "tests/test_range_properties.py"),
    ),
    Mutant(
        "dead_restart_skip",
        "generative.py",
        "            except DegenerateOutput:\n                break\n",
        "            except DegenerateOutput:\n                continue\n",
        ("tests/test_generative.py", "tests/test_range_properties.py"),
    ),
    Mutant(
        "prepare_f1",
        "theory.py",
        "    f1 = float(spectrum.eigenvectors[:, 0].dot(bx))",
        "    f1 = float(spectrum.eigenvectors[:, -1].dot(bx))",
        ("tests/test_theory.py",),
    ),
    # Mutants reported one at a time in earlier changes.
    Mutant(
        "prfm_drops_b",
        "solvers.py",
        "        return proj(u + cfg.step_size * (au - rho * bu))",
        "        return proj(u + cfg.step_size * (au - rho * u))",
        ("tests/test_flow_properties.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "rifle_eta_times_rho",
        "solvers.py",
        "(eta_prime / rho)",
        "(eta_prime * rho)",
        ("tests/test_flow_properties.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "ppower_adds_u",
        "solvers.py",
        "        return proj(au)\n",
        "        return proj(au + u)\n",
        ("tests/test_flow_properties.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "gamma1_without_b_min",
        "theory.py",
        "    gamma1 = eta * float(lam[0] - lam[1]) * b_min\n",
        "    gamma1 = eta * float(lam[0] - lam[1])\n",
        ("tests/test_theory.py",),
    ),
    Mutant(
        "gamma2_absolute_eigenvalues",
        "theory.py",
        "    gamma2 = eta * float(lam[0] - lam[-1]) * b_max\n",
        "    gamma2 = eta * float(abs(lam[0]) + abs(lam[-1])) * b_max\n",
        ("tests/test_theory.py",),
    ),
    # The copy under test is the one mutated.
    Mutant(
        "import_breaks",
        "__init__.py",
        '__version__ = "0.1.0"\n',
        "__version__ = 1 // 0\n",
        ("tests/test_layering.py",),
    ),
    # What the metamorphic relations catch.
    Mutant(
        "sandwich_lower_without_b_min",
        "theory.py",
        "    lower = (rho - lam[1]) * b_min * nsq",
        "    lower = (rho - lam[1]) * nsq",
        ("tests/test_theory.py",),
    ),
    Mutant(
        "inner_tau1_without_lambda2",
        "theory.py",
        "    tau1 = eta * (rho - lam[1]) * b_min\n",
        "    tau1 = eta * rho * b_min\n",
        ("tests/test_theory.py",),
    ),
    Mutant(
        "sphere_l1_norm",
        "priors.py",
        '        return _unit(xv, ZeroVector, "cannot normalize a (near-)zero vector")\n',
        '        return (u := _unit(xv, ZeroVector, "cannot normalize a (near-)zero vector"))'
        " / np.abs(u).sum()\n",
        ("tests/test_flow_properties.py", "tests/test_priors.py"),
    ),
    Mutant(
        "sparse_keeps_leading_entries",
        "priors.py",
        '    keep = (-np.abs(xv)).argsort(kind="stable")[:s]',
        '    keep = (-np.abs(xv[:s])).argsort(kind="stable")',
        ("tests/test_flow_properties.py", "tests/test_priors.py"),
    ),
    # The paper's arithmetic, module by module.
    Mutant(
        "cycle_hold_one",
        "solvers.py",
        "                if held == _CYCLE_HOLD:",
        "                if held == 1:",
        ("tests/test_flow_properties.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "restart_tie_exact",
        "solvers.py",
        "    floor = top - _RESTART_RTOL * max(abs(top), 1.0)",
        "    floor = top",
        ("tests/test_flow_properties.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "adam_no_bias_correction",
        "generative.py",
        "lr * (mi / c1) / ",
        "lr * mi / ",
        ("tests/test_generative.py", "tests/test_range_properties.py"),
    ),
    Mutant(
        "adam_no_second_moment_correction",
        "generative.py",
        "(math.sqrt(vi / c2) + eps)",
        "(math.sqrt(vi) + eps)",
        ("tests/test_generative.py", "tests/test_range_properties.py"),
    ),
    Mutant(
        "adam_clip_skipped",
        "generative.py",
        "            if norm > radius:\n",
        "            if False:\n",
        ("tests/test_generative.py", "tests/test_range_properties.py"),
    ),
    Mutant(
        "decode_unnormalized",
        "generative.py",
        "    decoded = h / norm, norm, cache",
        "    decoded = h, norm, cache",
        ("tests/test_generative.py",),
    ),
    Mutant(
        "vjp_skips_tangent_projection",
        "generative.py",
        "    grad = (cot - float(out.dot(cot)) * out) / norm",
        "    grad = cot / norm",
        ("tests/test_generative.py",),
    ),
    Mutant(
        "contraction_drops_root",
        "theory.py",
        "        contraction = (b0 + math.sqrt((1.0 - c0) * c0)) / (1.0 - c0)",
        "        contraction = b0 / (1.0 - c0)",
        ("tests/test_theory.py",),
    ),
    Mutant(
        "box_muller_sine_for_cosine",
        "rng.py",
        "        np.multiply(radius, np.cos(angle), out[..., lo:hi:2])",
        "        np.multiply(radius, np.sin(angle), out[..., lo:hi:2])",
        ("tests/test_rng.py",),
    ),
    Mutant(
        "gram_block_offset",
        "problems.py",
        "            fill(block, lo)\n",
        "            fill(block, 0)\n",
        ("tests/test_problems.py",),
    ),
    # A range-prior run's warm latent.
    Mutant(
        "warm_latent_not_carried",
        "priors.py",
        '        found = project_to_range(p.model, xv, p.config, _start=run.get("latent"))\n',
        "        found = project_to_range(p.model, xv, p.config, _start=None)\n",
        ("tests/test_range_properties.py", "tests/test_solvers.py", "tests/test_priors.py"),
    ),
    Mutant(
        "warm_latent_frozen",
        "priors.py",
        '        run["latent"] = found.latent\n',
        '        run.setdefault("latent", found.latent)\n',
        ("tests/test_range_properties.py", "tests/test_solvers.py", "tests/test_priors.py"),
    ),
    Mutant(
        "run_state_dropped",
        "priors.py",
        "        run = {} if _run is None else _run\n",
        "        run = _run or {}\n",
        ("tests/test_range_properties.py", "tests/test_solvers.py", "tests/test_priors.py"),
    ),
    Mutant(
        "subspace_target_strided",
        "generative.py",
        "    xv = np.asarray(x, dtype=np.float64).ravel()  # as `priors.project` reads it\n",
        "    xv = np.asarray(x, dtype=np.float64).reshape(-1)\n",
        ("tests/test_priors.py",),
    ),
    Mutant(
        "run_state_not_passed",
        "solvers.py",
        "    proj = partial(project, p, _run={})",
        "    proj = partial(project, p)",
        ("tests/test_range_properties.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "scale_d_inverted",
        "linalg.py",
        "    scale_d = 1.0 / _norm(v1)\n",
        "    scale_d = _norm(v1)\n",
        ("tests/test_linalg.py", "tests/test_theory.py"),
    ),
    # Seeds, signs, summaries and output: one or two per remaining module.
    Mutant(
        "cell_roles_overlap",
        "harness.py",
        "    return (spec.base_seed << 32) + (idx << 4)\n",
        "    return (spec.base_seed << 32) + idx\n",
        ("tests/test_harness.py", "tests/test_flow_properties.py"),
    ),
    Mutant(
        "summary_counts_failed_rows",
        "harness.py",
        '        ok = [r for r in group if r.status == "ok"]\n',
        "        ok = list(group)\n",
        ("tests/test_harness.py", "tests/test_harness_properties.py"),
    ),
    Mutant(
        "out_path_hashed",
        "cli.py",
        '_UNHASHED = frozenset({"config", "out", "handler", "subcommand", "flags"})\n',
        '_UNHASHED = frozenset({"config", "handler", "subcommand", "flags"})\n',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "json_keeps_non_finite",
        "cli.py",
        "        return obj if math.isfinite(obj) else None\n",
        "        return obj\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "sign_fix_negative_peaks",
        "linalg.py",
        "    vectors *= np.where(peaks < 0.0, -1.0, 1.0)\n",
        "    vectors *= np.where(peaks > 0.0, -1.0, 1.0)\n",
        ("tests/test_linalg.py", "tests/test_problems.py"),
    ),
    Mutant(
        "philox_key_swapped",
        "rng.py",
        "        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=_U64)\n",
        "        key = np.array([self.stream % 2**64, self.seed % 2**64], dtype=_U64)\n",
        ("tests/test_rng.py",),
    ),
    Mutant(
        "diag_b_w0_variance_four",
        "problems.py",
        "    a_hat, b_hat = _spiked_draws(v, m, seed, math.sqrt(2.0))\n",
        "    a_hat, b_hat = _spiked_draws(v, m, seed, 2.0)\n",
        ("tests/test_problems.py",),
    ),
    # The one owner of vector norms and of the zero floor.
    Mutant(
        "unit_floor_strict",
        "linalg.py",
        "    if norm <= _ZERO_NORM:\n        raise error(message)\n",
        "    if norm < _ZERO_NORM:\n        raise error(message)\n",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "norm_without_ravel",
        "linalg.py",
        "    flat = x.ravel()\n",
        "    flat = x\n",
        ("tests/test_linalg_properties.py",),
    ),
    # The open arithmetic: the whitening, the flow's quotient, the sparse tie.
    Mutant(
        "cholesky_whitening_transposed",
        "linalg.py",
        "    x = np.linalg.solve(low, pair.a)\n",
        "    x = np.linalg.solve(low.T, pair.a)\n",
        ("tests/test_linalg.py", "tests/test_linalg_properties.py"),
    ),
    Mutant(
        "quotient_ignores_b",
        "solvers.py",
        "    return float(u.dot(au)) / den\n",
        "    return float(u.dot(au)) / float(u.dot(u))\n",
        ("tests/test_flow_properties.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "sparse_tie_to_highest_index",
        "priors.py",
        '    keep = (-np.abs(xv)).argsort(kind="stable")[:s]\n',
        '    keep = (xv.shape[0] - 1 - (-np.abs(xv[::-1])).argsort(kind="stable"))[:s]\n',
        ("tests/test_flow_properties.py", "tests/test_priors.py"),
    ),
)


def run(mutant: Mutant) -> tuple[str, str, float]:
    """Apply `mutant` to a copy of src/ and run its tests against the copy:
    (outcome, detail, seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "gepflow" / mutant.file
        source = path.read_text()
        if source.count(mutant.text) != 1:
            return "error", "source text does not occur exactly once", 0.0
        path.write_text(source.replace(mutant.text, mutant.replacement))
        command = [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
            "-o", f"pythonpath={src}",
            *(str(ROOT / test) for test in mutant.tests),
        ]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                command, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S
            )
        except subprocess.TimeoutExpired:
            return "error", f"over {TIME_LIMIT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", "", seconds
    if done.returncode == 1:
        failed = re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
        names = ", ".join(node.split("::", 1)[-1] for node in failed)
        return "killed", f"{len(failed)} failed: {names}", seconds
    return "error", f"pytest exit code {done.returncode}", seconds


def select(argv=None) -> list[Mutant]:
    """The mutants a command line names: every one, `--only NAME`'s, or
    those of one module of src/gepflow (`--file generative.py`)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=[m.name for m in MUTANTS], help="run one mutant")
    parser.add_argument(
        "--file", choices=sorted({m.file for m in MUTANTS}), help="run one module's mutants"
    )
    args = parser.parse_args(argv)
    return [m for m in MUTANTS if args.only in (None, m.name) and args.file in (None, m.file)]


def main(argv=None) -> int:
    chosen = select(argv)
    if not chosen:
        print("no mutant matches both --only and --file", file=sys.stderr)
        return 2
    width = max(len(m.name) for m in chosen)
    survived = False
    for mutant in chosen:
        outcome, detail, seconds = run(mutant)
        survived |= outcome == "survived"
        print(f"{mutant.name:<{width}}  {outcome:<8}  {seconds:6.1f} s  {detail}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
