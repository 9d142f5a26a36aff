"""End-to-end command-line tests: exit codes, provenance, determinism.

Everything drives main(argv) in-process against tmp_path files; nothing
here shells out.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import shutil

import numpy as np
import pytest

from gepflow.cli import _prior_spec, build_parser, main
from gepflow.harness import CSV_HEADER, SweepSpec, rows_to_csv, run_sweep
from gepflow.generative import (
    LatentProjectionConfig,
    model_to_json,
    random_mlp,
    random_subspace,
)
from gepflow.priors import projector_from_spec
from gepflow.problems import ProblemInstance, instance_from_json, instance_to_json
from gepflow.solvers import DENOMINATOR_FLOOR, SolverConfig, run_with_restarts
from gepflow.theory import run_lemma_suites


def _generate(tmp_path, name="inst.json", **overrides):
    argv = [
        "generate", "--kind", "spiked", "--n", "16", "--m", "300",
        "--seed", "7", "--out", str(tmp_path / name),
    ]
    for key, value in overrides.items():
        argv.extend([f"--{key}", str(value)])
    assert main(argv) == 0
    return tmp_path / name


class TestGenerate:
    def test_writes_valid_bundle_with_provenance(self, tmp_path):
        path = _generate(tmp_path)
        obj = json.loads(path.read_text())
        prov = obj["provenance"]
        assert prov["version"] == "0.1.0"
        assert prov["seed"] == 7
        assert len(prov["config"]) == 16
        inst = instance_from_json(obj)
        assert inst.dim == 16 and inst.m == 300 and inst.kind == "spiked"
        assert inst.truth is not None
        assert np.all(inst.truth.v_star >= 0)  # nonneg default policy

    def test_byte_identical_reruns(self, tmp_path):
        a = _generate(tmp_path, name="a.json")
        b = _generate(tmp_path, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_hash_and_content(self, tmp_path):
        a = _generate(tmp_path, name="a.json")
        argv = [
            "generate", "--kind", "spiked", "--n", "16", "--m", "300",
            "--seed", "8", "--out", str(tmp_path / "b.json"),
        ]
        assert main(argv) == 0
        obj_a = json.loads(a.read_text())
        obj_b = json.loads((tmp_path / "b.json").read_text())
        assert obj_a["provenance"]["config"] != obj_b["provenance"]["config"]
        assert obj_a["a_hat"] != obj_b["a_hat"]

    def test_raw_vstar_policy(self, tmp_path):
        path = _generate(tmp_path, vstar="raw")
        inst = instance_from_json(json.loads(path.read_text()))
        assert np.any(inst.truth.v_star < 0)

    def test_missing_required_flag(self, tmp_path, capsys):
        code = main(["generate", "--kind", "spiked", "--n", "16", "--m", "300"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_choice_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--kind", "mystery", "--n", "8", "--m", "10",
                  "--out", str(tmp_path / "x.json")])
        assert info.value.code == 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_empty_dimension_refused(self, tmp_path, capsys, n):
        # This used to hang: an empty draw has norm 0 and was redrawn forever.
        out = tmp_path / "x.json"
        assert main(["generate", "--kind", "spiked", "--n", n, "--m", "10",
                     "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error:") and "dimension" in line
        assert not out.exists()

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage: gepflow" in capsys.readouterr().err


class TestSolve:
    def test_trace_schema_and_metrics(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        out = tmp_path / "trace.json"
        code = main([
            "solve", "--solver", "prfm", "--prior", "subspace", "--k", "4",
            "--eta", "7/32", "--in", str(inst), "--out", str(out),
            "--seed", "3", "--restarts", "3", "--max-iters", "60",
        ])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["solver"] == "prfm"
        assert obj["config"]["step_size"] == 0.21875  # 7/32 parsed exactly
        fields = {f.name for f in dataclasses.fields(SolverConfig)} - {"init"}
        assert set(obj["config"]) == fields
        assert obj["status"] == "ok"
        assert obj["stop_reason"] in ("converged", "max_iters")
        assert len(obj["rows"]) >= 2
        assert {"t", "rho", "cos_sim", "dist"} <= set(obj["rows"][0])
        assert len(obj["estimate"]) == 16
        assert obj["metrics"]["abs_cos_sim"] > 0.9
        assert "|cos|" in capsys.readouterr().out

    def test_sphere_prior_and_decimal_eta_agree_with_fraction(self, tmp_path):
        inst = _generate(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["solve", "--solver", "prfm", "--in", str(inst), "--seed", "1",
                "--max-iters", "40"]
        assert main(base + ["--eta", "7/32", "--out", str(out_a)]) == 0
        assert main(base + ["--eta", "0.21875", "--out", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["rows"] == b["rows"]

    def test_model_backed_subspace_prior(self, tmp_path):
        inst = _generate(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_json(random_subspace(16, 5, seed=2))))
        out = tmp_path / "trace.json"
        code = main([
            "solve", "--solver", "prfm", "--prior", "subspace",
            "--model", str(model), "--in", str(inst), "--out", str(out),
            "--max-iters", "30", "--restarts", "2",
        ])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "ok"

    def test_rifle_requires_s(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        code = main([
            "solve", "--solver", "rifle", "--in", str(inst),
            "--out", str(tmp_path / "t.json"),
        ])
        assert code == 1
        assert "requires --s" in capsys.readouterr().err

    def test_solver_failure_exits_two(self, tmp_path, capsys):
        # Indefinite B_hat: every restart hits a nonpositive denominator.
        bad = ProblemInstance(
            a_hat=np.eye(4), b_hat=-np.eye(4), truth=None, m=5,
            kind="custom", seed=0,
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(instance_to_json(bad)))
        code = main([
            "solve", "--solver", "prfm", "--in", str(path),
            "--out", str(tmp_path / "t.json"), "--restarts", "2",
        ])
        assert code == 2
        assert "solver error" in capsys.readouterr().err

    def test_cycled_run_reports_its_stop_reason(self, tmp_path):
        # From the all-ones start, power iteration on diag(1, -1) alternates
        # between (1, 1) and (1, -1), normalized.
        orbit = ProblemInstance(
            a_hat=np.diag([1.0, -1.0]), b_hat=np.eye(2), truth=None, m=5,
            kind="custom", seed=0,
        )
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(instance_to_json(orbit)))
        out = tmp_path / "t.json"
        code = main([
            "solve", "--solver", "ppower", "--in", str(path), "--out", str(out),
            "--restarts", "1",
        ])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["stop_reason"] == "cycled"
        assert len(obj["rows"]) == 4
        assert obj["final"] == [2**-0.5, 2**-0.5]

    @pytest.mark.parametrize(
        "path, value",
        [(("truth",), 5), (("m",), None), (("m",), [1]), (("a_hat", "dim"), None),
         (("m",), 12.9), (("seed",), "7"), (("kind",), None), (("truth", "lambda1"), math.nan),
         (("a_hat", "dim"), 16.5),
         (("a_hat", "rows"), [[str(int(i == j)) for j in range(16)] for i in range(16)])],
        ids=["truth-int", "m-null", "m-list", "a_hat-dim-null", "m-float", "seed-digits",
             "kind-null", "lambda1-nan", "a_hat-dim-float", "a_hat-rows-digits"],
    )
    def test_malformed_instance_file(self, tmp_path, capsys, path, value):
        obj = json.loads(_generate(tmp_path).read_text())
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "t.json"
        assert main(["solve", "--solver", "prfm", "--in", str(bad), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: invalid instance file {bad}: ")
        assert f"'{path[-1]}' must be" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("key", ["v_star", "v_lead"])
    def test_null_truth_vector_refused(self, tmp_path, capsys, command, key):
        # solve used to die on a matmul error, and verify exited 0.
        obj = json.loads(_generate(tmp_path).read_text())
        obj["truth"][key] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "t.json"
        argv = ["solve", "--solver", "prfm"] if command == "solve" else ["verify"]
        assert main([*argv, "--in", str(bad), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: invalid instance file {bad}: ")
        assert f"'{key}' must be" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("scale", [0.0, 2.0], ids=["zero", "doubled"])
    def test_non_unit_v_lead_refused_at_load(self, tmp_path, capsys, scale):
        # solve used to run to the end and then die on a ZeroVector traceback,
        # or exit 1 with an error naming v_star, a key the file does not have.
        obj = json.loads(_generate(tmp_path).read_text())
        obj["truth"]["v_lead"] = [scale * x for x in obj["truth"]["v_lead"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "t.json"
        assert main(["solve", "--solver", "prfm", "--in", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: invalid instance file {bad}: v_lead must be a finite unit vector within 1e-12"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_truth_of_another_dimension_refused(self, tmp_path, capsys, command):
        # verify used to exit 0 with the 1 x 1 truth broadcast against the
        # 16 x 16 sample, and solve died on a matmul error.
        obj = json.loads(_generate(tmp_path).read_text())
        obj["truth"].update(
            a={"dim": 1, "rows": [[2.0]]}, b={"dim": 1, "rows": [[1.0]]},
            v_star=[1.0], v_lead=[1.0],
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "t.json"
        argv = ["solve", "--solver", "prfm"] if command == "solve" else ["verify"]
        assert main([*argv, "--in", str(bad), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"error: invalid instance file {bad}: "
            "truth pair has dimension 1, a_hat has dimension 16"
        ]
        assert not out.exists()

    def test_missing_instance_file(self, tmp_path, capsys):
        code = main([
            "solve", "--solver", "prfm", "--in", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "t.json"),
        ])
        assert code == 1


class TestSweep:
    def _argv(self, tmp_path, out_name, extra=()):
        return [
            "sweep", "--kind", "spiked", "--n", "8", "--m-values", "40,80",
            "--solvers", "prfm", "--trials", "2", "--restarts", "1",
            "--max-iters", "20", "--seed", "5", "--timing", "zero",
            "--out", str(tmp_path / out_name), *extra,
        ]

    def test_csv_with_provenance_header(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "out.csv")) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0].startswith("# provenance: version=0.1.0 seed=5 config=")
        assert lines[1] == CSV_HEADER
        assert len(lines) == 2 + 4  # 2 m-values x 2 trials
        assert "solver" in capsys.readouterr().out  # summary table printed

    def test_jobs_do_not_change_bytes(self, tmp_path):
        assert main(self._argv(tmp_path, "a.csv", ("--jobs", "1"))) == 0
        assert main(self._argv(tmp_path, "b.csv", ("--jobs", "4"))) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_summary_json(self, tmp_path):
        assert main(
            self._argv(tmp_path, "out.csv", ("--summary-out", str(tmp_path / "sum.json")))
        ) == 0
        obj = json.loads((tmp_path / "sum.json").read_text())
        assert "provenance" in obj
        cells = obj["cells"]
        assert {c["m"] for c in cells} == {40, 80}
        assert all(c["count"] == 2 for c in cells)

    def test_flag_change_alters_hash(self, tmp_path):
        assert main(self._argv(tmp_path, "a.csv")) == 0
        argv = self._argv(tmp_path, "b.csv")
        argv[argv.index("--trials") + 1] = "3"
        assert main(argv) == 0
        head_a = (tmp_path / "a.csv").read_text().splitlines()[0]
        head_b = (tmp_path / "b.csv").read_text().splitlines()[0]
        assert head_a != head_b

    def test_invalid_spec(self, tmp_path, capsys):
        argv = self._argv(tmp_path, "x.csv")
        argv[argv.index("--m-values") + 1] = "80,40"
        assert main(argv) == 1
        assert "ascending" in capsys.readouterr().err


#: one flag change per SweepSpec field; base_seed is set by --seed
SPEC_FIELD_CHANGES = {
    "kind": ("--kind", "diag_b"),
    "m_values": ("--m-values", "40,50"),
    "n": ("--n", "9"),
    "solvers": ("--solvers", "prfm"),
    "trials": ("--trials", "2"),
    "prior": ("--prior", "sparse"),
    "restarts": ("--restarts", "2"),
    "eta": ("--eta", "1/4"),
    "eta_prime": ("--eta-prime", "3/2"),
    "s": ("--s", "4"),
    "max_iters": ("--max-iters", "6"),
    "stop_tol": ("--stop-tol", "none"),
    "base_seed": ("--seed", "6"),
}


class TestSweepHash:
    BASE = {
        "--kind": "spiked", "--n": "8", "--m-values": "40", "--solvers": "prfm,rifle",
        "--s": "3", "--trials": "1", "--restarts": "1", "--max-iters": "5",
        "--seed": "5", "--timing": "zero", "--prior": "sphere",
    }

    def _hash_line(self, tmp_path, name, flag=None, value=None):
        flags = {**self.BASE, **({flag: value} if flag else {})}
        out = tmp_path / name
        argv = ["sweep", "--out", str(out)]
        for key, val in flags.items():
            argv.extend([key, val])
        assert main(argv) == 0
        return out.read_text().splitlines()[0]

    def test_every_spec_field_has_a_change(self):
        assert set(SPEC_FIELD_CHANGES) == {f.name for f in dataclasses.fields(SweepSpec)}

    @pytest.mark.parametrize("field", sorted(SPEC_FIELD_CHANGES))
    def test_changing_one_field_changes_the_hash(self, tmp_path, field):
        flag, value = SPEC_FIELD_CHANGES[field]
        assert self._hash_line(tmp_path, "changed.csv", flag, value) != self._hash_line(
            tmp_path, "base.csv"
        )


class TestStepValidation:
    """Step sizes that divide by zero or are not finite end in one error line."""

    def _argv(self, tmp_path, command):
        inst = str(_generate(tmp_path))
        out = str(tmp_path / "out")
        return {
            "solve": ["solve", "--solver", "rifle", "--s", "4", "--in", inst,
                      "--restarts", "1", "--max-iters", "5", "--out", out],
            "sweep": ["sweep", "--kind", "spiked", "--n", "8", "--m-values", "40",
                      "--solvers", "prfm,rifle", "--s", "3", "--trials", "1",
                      "--restarts", "1", "--max-iters", "5", "--out", out],
            "theory-check": ["theory-check", "--in", inst, "--draws", "20"],
        }[command]

    def _assert_one_error_line(self, capsys):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "command, flag",
        [("solve", "--eta"), ("solve", "--eta-prime"), ("sweep", "--eta"),
         ("sweep", "--eta-prime"), ("theory-check", "--eta")],
    )
    @pytest.mark.parametrize("value", ["7/0", "1/0"])
    def test_zero_denominator(self, tmp_path, capsys, command, flag, value):
        argv = self._argv(tmp_path, command)
        capsys.readouterr()
        assert main(argv + [flag, value]) == 1
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "command, flag",
        [("solve", "--eta"), ("solve", "--eta-prime"), ("sweep", "--eta"),
         ("sweep", "--eta-prime")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_step(self, tmp_path, capsys, command, flag, value):
        argv = self._argv(tmp_path, command)
        capsys.readouterr()
        assert main(argv + [flag, value]) == 1
        self._assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_theory_check_rejects_invalid_eta(self, tmp_path, capsys, value):
        argv = self._argv(tmp_path, "theory-check")
        capsys.readouterr()
        assert main(argv + ["--eta", value]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error:") and "eta must be finite" in line

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_stop_tol(self, tmp_path, capsys, command, value):
        # nan and -1 used to run every iteration and inf to stop after one
        argv = self._argv(tmp_path, command)
        capsys.readouterr()
        assert main(argv + ["--stop-tol", value]) == 1
        self._assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()


class TestRequiredOptions:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify"], "--in"),
            (["solve", "--solver", "prfm", "--out", "x.json"], "--in"),
            (["theory-check"], "--in"),
            (["sweep", "--kind", "spiked", "--n", "8", "--out", "x.csv"], "--m-values"),
            (["generate", "--kind", "spiked", "--n", "8", "--m", "20"], "--out"),
        ],
    )
    def test_message_names_the_flag(self, capsys, argv, flag):
        # `--in` used to be reported by its dest, as --in-path
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"error: missing required option {flag}"


def _prior_case(name, tmp_path):
    """(CLI flags, the projector_from_spec dict they describe) for n = 16."""
    if name == "sphere":
        return [], {"prior": "sphere"}
    if name == "sparse":
        return ["--prior", "sparse", "--s", "5"], {"prior": "sparse", "s": 5}
    if name == "subspace-k":
        return ["--prior", "subspace", "--k", "4"], {"prior": "subspace", "k": 4}
    if name == "subspace-model":
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(model_to_json(random_subspace(16, 5, seed=2))))
        flags = ["--prior", "subspace", "--model", str(path)]
        return flags, {"prior": "subspace", "model_path": str(path)}
    path = tmp_path / "mlp.json"
    path.write_text(json.dumps(model_to_json(random_mlp(16, 4, hidden=(8,), seed=3))))
    flags = ["--prior", "range", "--model", str(path), "--proj-steps", "5",
             "--proj-restarts", "1"]
    spec = {"prior": "range", "model_path": str(path),
            "projection": {"steps": 5, "restarts": 1}}
    return flags, spec


PRIOR_CASES = ["sphere", "sparse", "subspace-k", "subspace-model", "range"]


class TestPriorFlags:
    """solve and sweep turn the prior flags into the library's prior spec."""

    @pytest.mark.parametrize("name", PRIOR_CASES)
    def test_sweep_matches_library(self, tmp_path, name):
        flags, prior = _prior_case(name, tmp_path)
        out = tmp_path / "out.csv"
        assert main([
            "sweep", "--kind", "spiked", "--n", "16", "--m-values", "40,80",
            "--solvers", "prfm,ppower", "--trials", "2", "--restarts", "2",
            "--max-iters", "20", "--seed", "5", "--timing", "zero",
            "--out", str(out), *flags,
        ]) == 0
        spec = SweepSpec(
            kind="spiked", m_values=(40, 80), n=16, solvers=("prfm", "ppower"),
            trials=2, prior=prior, restarts=2, s=prior.get("s"), max_iters=20,
            base_seed=5,
        )
        body = out.read_text().split("\n", 1)[1]
        assert body == rows_to_csv(run_sweep(spec, timing="zero"))

    @pytest.mark.parametrize("name", PRIOR_CASES)
    def test_solve_matches_library(self, tmp_path, name):
        inst_path = _generate(tmp_path)
        flags, prior = _prior_case(name, tmp_path)
        out = tmp_path / "trace.json"
        assert main([
            "solve", "--solver", "prfm", "--in", str(inst_path), "--seed", "3",
            "--restarts", "2", "--max-iters", "30", "--out", str(out), *flags,
        ]) == 0
        inst = instance_from_json(json.loads(inst_path.read_text()))
        truth = inst.truth.v_lead
        result = run_with_restarts(
            "prfm", inst.a_hat, inst.b_hat,
            SolverConfig(step_size=7 / 32, max_iters=30), 2, 3,
            p=projector_from_spec(prior, truth=truth, seed=3),
            s=prior.get("s"), eta_prime=35 / 32, v_star=truth,
        )
        assert json.loads(out.read_text())["estimate"] == result.estimate.tolist()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--prior", "sparse"], "sparse prior requires --s"),
            (["--prior", "range"], "range prior requires --model"),
            (["--prior", "subspace"], "subspace prior requires one of --k or --model"),
            # Both: solve used to prefer the model and sweep the k.
            (["--prior", "subspace", "--k", "4", "--model", "sub.json"],
             "subspace prior requires one of --k or --model"),
        ],
        ids=["sparse-no-s", "range-no-model", "subspace-neither", "subspace-both"],
    )
    def test_missing_or_conflicting_options(self, tmp_path, capsys, command, flags, message):
        out = str(tmp_path / "out")
        if command == "solve":
            argv = ["solve", "--solver", "prfm", "--in", str(_generate(tmp_path))]
        else:
            argv = ["sweep", "--kind", "spiked", "--n", "16", "--m-values", "40",
                    "--trials", "1"]
        assert main([*argv, "--out", out, *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("key", ["latent_dim", "output_dim"])
    def test_model_missing_dimension(self, tmp_path, capsys, command, key):
        model = model_to_json(random_mlp(16, 4, hidden=(8,), seed=3))
        del model[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        if command == "solve":
            argv = ["solve", "--solver", "prfm", "--in", str(_generate(tmp_path))]
        else:
            argv = ["sweep", "--kind", "spiked", "--n", "16", "--m-values", "40",
                    "--trials", "1"]
        out = tmp_path / "out"
        assert main([*argv, "--prior", "range", "--model", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"model JSON is missing {key!r}" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    @pytest.mark.parametrize("layers", [5, [5]])
    def test_model_with_malformed_layers(self, tmp_path, capsys, command, layers):
        model = {**model_to_json(random_mlp(16, 4, hidden=(8,), seed=3)), "layers": layers}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "out"
        if command == "verify":
            argv = ["verify", "--in", str(_generate(tmp_path)), "--model", str(path)]
        else:
            if command == "solve":
                argv = ["solve", "--solver", "prfm", "--in", str(_generate(tmp_path))]
            else:
                argv = ["sweep", "--kind", "spiked", "--n", "16", "--m-values", "40",
                        "--trials", "1"]
            argv += ["--prior", "range", "--model", str(path)]
        assert main([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "model JSON 'layers' must be a list of objects" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("entry", ["weight", "bias", "latent_radius", "basis"])
    def test_model_with_nan_rejected(self, tmp_path, capsys, command, entry):
        # json.load accepts NaN; such a model used to load, and its
        # projections returned NaN points.
        nan = float("nan")
        if entry == "basis":
            model = model_to_json(random_subspace(16, 4, seed=3))
            model["basis"][2][1] = nan
        else:
            model = model_to_json(random_mlp(16, 4, hidden=(8,), seed=3))
            if entry == "weight":
                model["layers"][0]["weight"][0][1] = nan
            elif entry == "bias":
                model["layers"][0]["bias"][0] = nan
            else:
                model["latent_radius"] = nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(model))
        assert "NaN" in path.read_text()
        if command == "solve":
            argv = ["solve", "--solver", "prfm", "--in", str(_generate(tmp_path))]
        else:
            argv = ["sweep", "--kind", "spiked", "--n", "16", "--m-values", "40",
                    "--trials", "1"]
        out = tmp_path / "out"
        assert main([*argv, "--prior", "range", "--model", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        # The model is refused when it loads, not when a NaN iterate appears.
        if entry == "latent_radius":
            assert "model JSON 'latent_radius' must be a finite number, got nan" in lines[0]
        else:
            assert "must be finite" in lines[0]
        assert not out.exists()

    def test_relative_model_path_is_read_from_the_working_directory(self, tmp_path, monkeypatch):
        inst_path = _generate(tmp_path)
        (tmp_path / "models").mkdir()
        flags, _ = _prior_case("range", tmp_path / "models")
        base = ["solve", "--solver", "prfm", "--in", str(inst_path), "--seed", "3",
                "--restarts", "2", "--max-iters", "30"]
        assert main([*base, *flags, "--out", str(tmp_path / "abs.json")]) == 0
        flags[flags.index("--model") + 1] = "models/mlp.json"
        monkeypatch.chdir(tmp_path)
        assert main([*base, *flags, "--out", str(tmp_path / "rel.json")]) == 0
        rel = json.loads((tmp_path / "rel.json").read_text())
        assert rel["estimate"] == json.loads((tmp_path / "abs.json").read_text())["estimate"]

    @pytest.mark.parametrize("key, value", [("latent_dim", 4.0), ("latent_radius", "6")])
    def test_coercible_model_number_refused(self, tmp_path, capsys, key, value):
        flags, _ = _prior_case("range", tmp_path)
        path = tmp_path / "mlp.json"
        model = {**json.loads(path.read_text()), key: value}
        path.write_text(json.dumps(model))
        out = tmp_path / "t.json"
        argv = ["solve", "--solver", "prfm", "--in", str(_generate(tmp_path)), "--out", str(out)]
        assert main([*argv, *flags]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot build the range prior: ")
        assert f"model JSON '{key}' must be" in line
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_projection_learning_rate(self, tmp_path, capsys, command, value):
        # --proj-lr nan used to give NaN range points (and an "ok" solve).
        flags, _ = _prior_case("range", tmp_path)
        if command == "solve":
            argv = ["solve", "--solver", "prfm", "--in", str(_generate(tmp_path)),
                    "--max-iters", "1"]
        else:
            argv = ["sweep", "--kind", "spiked", "--n", "16", "--m-values", "40",
                    "--trials", "1", "--max-iters", "1"]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, *flags, "--proj-lr", value, "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error:") and "learning_rate must be finite and positive" in line
        if command == "solve":
            assert "cannot build the range prior" in line
        assert not out.exists()

    def test_k_prior_needs_truth(self, tmp_path, capsys):
        # Sweep instances always carry their truth; a bundle may not.
        bare = ProblemInstance(
            a_hat=np.eye(4), b_hat=np.eye(4), truth=None, m=5, kind="custom", seed=0,
        )
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(instance_to_json(bare)))
        code = main([
            "solve", "--solver", "prfm", "--prior", "subspace", "--k", "2",
            "--in", str(path), "--out", str(tmp_path / "t.json"),
        ])
        assert code == 1
        assert "truth" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()


class TestConfigLayer:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spiked", "n": 8, "m": 50}))
        out = tmp_path / "inst.json"
        code = main(["generate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        inst = instance_from_json(json.loads(out.read_text()))
        assert inst.dim == 8 and inst.m == 50

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spiked", "n": 8, "m": 50}))
        out = tmp_path / "inst.json"
        code = main(["generate", "--config", str(cfg), "--m", "75",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert instance_from_json(json.loads(out.read_text())).m == 75

    def test_config_file_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["generate", "--config", str(cfg), "--out", "x"]) == 1

    @pytest.mark.parametrize(
        "command, config",
        [
            ("generate", {"kind": "spiked", "n": 8, "m": 40, "max_iters": 2}),
            ("sweep", {"kind": "spiked", "n": 8, "m_values": [40], "max-iters": 2}),
            ("sweep", {"kind": "spiked", "n": 8, "m_values": [40], "config": "x.json"}),
        ],
        ids=["not-an-option-of-generate", "misspelled", "nested-config"],
    )
    def test_unknown_key_refused(self, tmp_path, capsys, command, config):
        # Such keys used to be dropped without a word.
        (key,) = set(config) - {"kind", "n", "m", "m_values"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error:") and repr(key) in line
        assert not out.exists()

    def test_null_value_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spiked", "n": 8, "m": 40, "vstar": None}))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error:") and "'vstar'" in line and "null" in line
        assert not out.exists()

    @pytest.mark.parametrize("config", [{"n": 8.5}, {"kind": "bogus"}],
                             ids=["non-integer", "bad-choice"])
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, config):
        # "n": 8.5 was truncated to 8; both now fail as the same flag text does.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spiked", "n": 8, "m": 40, **config}))
        with pytest.raises(SystemExit) as info:
            main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert info.value.code == 1
        assert f"argument --{next(iter(config))}:" in capsys.readouterr().err

    def test_sweep_from_config_equals_the_same_flags(self, tmp_path, capsys):
        model = tmp_path / "mlp.json"
        model.write_text(json.dumps(model_to_json(random_mlp(16, 4, hidden=(8,), seed=3))))
        options = {
            "kind": "spiked", "n": 16, "m_values": [40, 80], "solvers": ["prfm", "rifle"],
            "trials": 1, "prior": "range", "model": str(model), "k": 4, "s": 3,
            "eta": "7/32", "eta_prime": 1.5, "max_iters": 4, "stop_tol": "none",
            "restarts": 1, "proj_steps": 3, "proj_lr": 0.05, "proj_restarts": 1,
            "proj_seed": 2, "jobs": 2, "timing": "zero", "seed": 3,
        }
        unread = {"config", "out", "summary_out"}
        assert set(options) == set(build_parser().commands["sweep"].flags) - unread
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options))
        flags = [
            "--kind", "spiked", "--n", "16", "--m-values", "40,80", "--solvers", "prfm,rifle",
            "--trials", "1", "--prior", "range", "--model", str(model), "--k", "4",
            "--s", "3", "--eta", "7/32", "--eta-prime", "1.5", "--max-iters", "4",
            "--stop-tol", "none", "--restarts", "1", "--proj-steps", "3", "--proj-lr", "0.05",
            "--proj-restarts", "1", "--proj-seed", "2", "--jobs", "2", "--timing", "zero",
            "--seed", "3",
        ]
        outputs = []
        for name, argv in [("config", ["--config", str(cfg)]), ("flags", flags)]:
            csv, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert main(["sweep", *argv, "--out", str(csv), "--summary-out", str(summary)]) == 0
            outputs.append((csv.read_bytes(), summary.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]

    def test_gep_seed_fallback_and_flag_priority(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEP_SEED", "9")
        out = tmp_path / "a.json"
        assert main(["generate", "--kind", "spiked", "--n", "8", "--m", "40",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["seed"] == 9
        out2 = tmp_path / "b.json"
        assert main(["generate", "--kind", "spiked", "--n", "8", "--m", "40",
                     "--seed", "4", "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["provenance"]["seed"] == 4

    def test_bad_gep_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GEP_SEED", "pi")
        code = main(["generate", "--kind", "spiked", "--n", "8", "--m", "40",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "GEP_SEED" in capsys.readouterr().err


class TestVerify:
    def test_report_roundtrip(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        out = tmp_path / "report.json"
        code = main(["verify", "--in", str(inst), "--set-size", "10",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        assert "max|s1'Es2|" in capsys.readouterr().out
        obj = json.loads(out.read_text())
        assert obj["set_size"] == 10
        assert obj["max_e_bilinear"] > 0

    def test_generator_probes(self, tmp_path):
        inst = _generate(tmp_path)
        model = tmp_path / "gen.json"
        model.write_text(
            json.dumps(model_to_json(random_mlp(16, 4, hidden=(8,), seed=3)))
        )
        code = main(["verify", "--in", str(inst), "--set-size", "6",
                     "--seed", "2", "--model", str(model)])
        assert code == 0

    def test_generator_of_wrong_output_dim_rejected(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        model = tmp_path / "gen.json"
        model.write_text(json.dumps(model_to_json(random_mlp(12, 4, seed=3))))
        code = main(["verify", "--in", str(inst), "--model", str(model)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: generator output_dim 12 does not match instance dim 16\n"
        )

    def test_boolean_in_a_model_array_refused(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        obj = model_to_json(random_mlp(16, 4, hidden=(8,), seed=3))
        obj["layers"][1]["bias"][0] = True
        model = tmp_path / "gen.json"
        model.write_text(json.dumps(obj))
        assert main(["verify", "--in", str(inst), "--model", str(model)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: invalid model file {model}: ")
        assert "model JSON layer 'bias' must be an array of numbers" in line

    def test_truthless_instance_rejected(self, tmp_path, capsys):
        bare = ProblemInstance(
            a_hat=np.eye(4), b_hat=np.eye(4), truth=None, m=5,
            kind="custom", seed=0,
        )
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(instance_to_json(bare)))
        assert main(["verify", "--in", str(path)]) == 1


class TestTheoryCheck:
    def test_prints_gammas_and_conditions(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        out = tmp_path / "report.json"
        code = main(["theory-check", "--in", str(inst), "--eta", "0.21875",
                     "--draws", "120", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "gamma1       0.875" in text
        assert "gamma2       0.875" in text
        assert "satisfied" in text
        assert "suite sandwich" in text
        obj = json.loads(out.read_text())
        assert obj["conditions"]["gamma1"] == pytest.approx(0.875, abs=1e-9)
        assert len(obj["suites"]) == 3
        assert all(s["failures"] == 0 for s in obj["suites"])

    def test_condition_table_golden_lines(self, tmp_path, capsys):
        inst = tmp_path / "diag.json"
        assert main(["generate", "--kind", "diag_b", "--n", "12", "--m", "150",
                     "--seed", "4", "--out", str(inst)]) == 0
        capsys.readouterr()
        assert main(["theory-check", "--in", str(inst), "--eta", "0.3",
                     "--draws", "20", "--seed", "2"]) == 0
        table = capsys.readouterr().out.splitlines()[:12]
        assert table == [
            "eta          0.3",
            "gamma1       1.175721141",
            "gamma2       2.646506623",
            "nu0          0.7685118596",
            "kappa_b      2",
            "b0           11.60585346",
            "c0           0.7353927408",
            "contraction  45.52776579",
            "step sum     gamma1+gamma2 = 3.822227765 < 2: NOT satisfied",
            "contraction  < 1: NOT satisfied",
            "step floor   3*gamma1+gamma2 = 6.173670047 > 3: satisfied",
            "nu0 > 0:     satisfied",
        ]

    def test_fraction_eta_accepted(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        code = main(["theory-check", "--in", str(inst), "--eta", "7/32",
                     "--draws", "60"])
        assert code == 0
        assert "0.875" in capsys.readouterr().out

    def test_truthless_instance_rejected(self, tmp_path):
        bare = ProblemInstance(
            a_hat=np.eye(4), b_hat=np.eye(4), truth=None, m=5,
            kind="custom", seed=0,
        )
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(instance_to_json(bare)))
        assert main(["theory-check", "--in", str(path), "--draws", "40"]) == 1

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_bad_draws_refused_before_any_output(self, tmp_path, capsys, draws):
        # the whole condition table used to be printed before the refusal
        inst = _generate(tmp_path)
        capsys.readouterr()
        assert main(["theory-check", "--in", str(inst), "--draws", draws]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("error:") and "draws" in line


class TestFlagDefaults:
    """Where the library owns a default, the flag's default is that value."""

    def _defaults(self, command):
        return vars(build_parser().parse_args([command]))

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_run_options(self, command):
        d = self._defaults(command)
        assert float(d["eta"]) == SweepSpec.eta
        assert float(d["eta_prime"]) == SweepSpec.eta_prime
        assert float(d["stop_tol"]) == SweepSpec.stop_tol
        assert d["max_iters"] == SweepSpec.max_iters
        assert d["restarts"] == SweepSpec.restarts
        cfg = LatentProjectionConfig()
        assert (d["proj_steps"], d["proj_lr"], d["proj_restarts"], d["proj_seed"]) == (
            cfg.steps, cfg.learning_rate, cfg.restarts, cfg.seed,
        )

    def test_projection_keys_are_the_config_fields(self):
        # every LatentProjectionConfig setting has its --proj-* flag, and no more
        args = build_parser().parse_args(["solve", "--prior", "range", "--model", "gen.json"])
        fields = {f.name for f in dataclasses.fields(LatentProjectionConfig)}
        assert set(_prior_spec(args)["projection"]) == fields

    def test_solver_and_theory_options(self):
        assert self._defaults("solve")["denominator_floor"] == DENOMINATOR_FLOOR
        assert float(self._defaults("theory-check")["eta"]) == SweepSpec.eta
        draws = inspect.signature(run_lemma_suites).parameters["draws"].default
        assert self._defaults("theory-check")["draws"] == draws


#: the provenance hash of one fixed argv per subcommand, as recorded before the
#: options were declared in the parser alone; a change here changes every hash
GOLDEN_HASHES = {
    "generate": (["generate", "--kind", "spiked", "--n", "16", "--m", "300",
                  "--seed", "7"], "1ac5c68719b620d3"),
    "solve": (["solve", "--solver", "rifle", "--in", "inst.json", "--s", "5", "--seed", "3",
               "--restarts", "2", "--max-iters", "20", "--eta", "1/4", "--stop-tol", "none"],
              "91ad18fd9e322124"),
    "sweep": (["sweep", "--kind", "spiked", "--n", "8", "--m-values", "40,80", "--solvers",
               "prfm", "--trials", "2", "--restarts", "1", "--max-iters", "20", "--seed", "5",
               "--timing", "zero"], "c8f8302bc20f4a4d"),
    "verify": (["verify", "--in", "inst.json", "--set-size", "10", "--seed", "2"],
               "4fb81a6deaec88d8"),
    "theory-check": (["theory-check", "--in", "inst.json", "--eta", "7/32", "--draws", "20",
                      "--seed", "1"], "4f65c6a0b5b3430e"),
}

#: one flag change per hashed option of each subcommand (the sweep's are above)
HASHED_OPTION_CHANGES = {
    "generate": {
        "kind": ("--kind", "diag_b"), "n": ("--n", "9"), "m": ("--m", "41"),
        "seed": ("--seed", "6"), "vstar": ("--vstar", "raw"),
    },
    "solve": {
        "solver": ("--solver", "ppower"), "in_path": ("--in", "copy.json"),
        "seed": ("--seed", "6"), "prior": ("--prior", "sparse"),
        "model": ("--model", "mlp.json"), "k": ("--k", "2"), "s": ("--s", "4"),
        "eta": ("--eta", "1/4"), "eta_prime": ("--eta-prime", "3/2"),
        "max_iters": ("--max-iters", "6"), "stop_tol": ("--stop-tol", "none"),
        "restarts": ("--restarts", "2"), "denominator_floor": ("--denominator-floor", "1e-8"),
        "proj_steps": ("--proj-steps", "7"), "proj_lr": ("--proj-lr", "0.2"),
        "proj_restarts": ("--proj-restarts", "2"), "proj_seed": ("--proj-seed", "1"),
    },
    "verify": {
        "in_path": ("--in", "copy.json"), "set_size": ("--set-size", "5"),
        "seed": ("--seed", "6"), "model": ("--model", "mlp.json"),
    },
    "theory-check": {
        "in_path": ("--in", "copy.json"), "eta": ("--eta", "1/4"),
        "draws": ("--draws", "21"), "seed": ("--seed", "6"),
    },
}

HASH_BASES = {
    "generate": ["generate", "--kind", "spiked", "--n", "8", "--m", "40", "--seed", "5"],
    "solve": ["solve", "--solver", "prfm", "--in", "inst.json", "--s", "3", "--seed", "5",
              "--restarts", "1", "--max-iters", "5"],
    "verify": ["verify", "--in", "inst.json", "--set-size", "4", "--seed", "5"],
    "theory-check": ["theory-check", "--in", "inst.json", "--draws", "20", "--seed", "5"],
}


class TestProvenanceHash:
    """Each subcommand's hash covers every parsed option but paths and --jobs."""

    @pytest.fixture(autouse=True)
    def _workdir(self, tmp_path, monkeypatch):
        # Instance paths are hashed as given, so the runs use relative ones.
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--kind", "spiked", "--n", "16", "--m", "300",
                     "--seed", "7", "--out", "inst.json"]) == 0
        shutil.copy("inst.json", "copy.json")
        model = model_to_json(random_mlp(16, 4, hidden=(8,), seed=3))
        (tmp_path / "mlp.json").write_text(json.dumps(model))

    def _hash(self, argv):
        out = "out.csv" if argv[0] == "sweep" else "out.json"
        assert main([*argv, "--out", out]) == 0
        with open(out) as fh:
            if argv[0] == "sweep":
                return fh.readline().split("config=")[1].strip()
            return json.load(fh)["provenance"]["config"]

    @pytest.mark.parametrize("command", sorted(GOLDEN_HASHES))
    def test_golden_hash(self, command):
        argv, digest = GOLDEN_HASHES[command]
        assert self._hash(argv) == digest

    @pytest.mark.parametrize("command", sorted(HASHED_OPTION_CHANGES))
    def test_every_hashed_option_has_a_change(self, command):
        unhashed = {"config", "out", "summary_out", "jobs", "handler", "subcommand", "flags"}
        parsed = set(vars(build_parser().parse_args([command])))
        assert set(HASHED_OPTION_CHANGES[command]) == parsed - unhashed

    @pytest.mark.parametrize(
        "command, dest",
        [(c, d) for c in sorted(HASHED_OPTION_CHANGES) for d in sorted(HASHED_OPTION_CHANGES[c])],
    )
    def test_changing_one_option_changes_the_hash(self, command, dest):
        base = HASH_BASES[command]
        assert self._hash([*base, *HASHED_OPTION_CHANGES[command][dest]]) != self._hash(base)


def _zero_gap_theory_check(tmp_path):
    obj = json.loads(_generate(tmp_path).read_text())
    obj["truth"]["a"] = obj["truth"]["b"]  # the identity pair: every eigenvalue is 1
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(obj))
    return ["theory-check", "--in", str(path), "--draws", "20"]


def _all_failed_sweep(tmp_path):
    model = model_to_json(random_mlp(8, 2, hidden=(4,), seed=0))
    for layer in model["layers"]:  # an all-zero decoder: every output is degenerate
        layer["weight"] = [[0.0] * len(row) for row in layer["weight"]]
        layer["bias"] = [0.0] * len(layer["bias"])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(model))
    return [
        "sweep", "--kind", "spiked", "--n", "8", "--m-values", "40", "--solvers", "prfm",
        "--trials", "2", "--restarts", "1", "--max-iters", "5", "--prior", "range",
        "--model", str(path), "--timing", "zero", "--out", str(tmp_path / "out.csv"),
    ]


@pytest.mark.parametrize(
    "argv, code, stream, line",
    [
        (_zero_gap_theory_check, 2, "err",
         "condition computation failed: leading gap 0.000e+00 <= 1e-10"),
        (_all_failed_sweep, 0, "out", "note: 2/2 runs failed; see status column"),
    ],
    ids=["theory-check-zero-gap", "sweep-all-runs-failed"],
)
def test_failures_are_reported(tmp_path, capsys, argv, code, stream, line):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == code
    assert line in getattr(capsys.readouterr(), stream).splitlines()
