"""End-to-end CLI tests: output equality with the library, formats, exit codes.

Every command is invoked in-process through main(argv). Two smoke tests run
the console script: the entry point declared in pyproject.toml always, and
the installed `tailbound` executable where it is on PATH. JSON floats use repr, so parsing CLI output
and comparing with == against library results checks bit-level agreement.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tailbound.cgf import rate_bound_T
from tailbound.chaining import build_deflation, class_wr, optimize_deflation, theorem_main_bound
from tailbound.cli import main
from tailbound.gaussian import gaussian_instance_bound
from tailbound.jsonio import dump_csv, load_distribution, load_family, load_json
from tailbound.orlicz import make_generator, orlicz_norm
from tailbound.verify import TrialPlan, run_trials

SUB_GAUSSIAN = '{"kind": "sub-gaussian"}'


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


class TestComputeCommands:
    def test_trf_matches_library(self, fixtures_dir, rademacher):
        payload = run_json(
            ["trf", "--dist", fixtures_dir / "rademacher.json", "--f", "f", "--r", 0.05]
        )
        dist, functions = load_distribution(rademacher)
        direct = rate_bound_T(dist, functions["f"], 0.05)[0]
        assert payload["op"] == "trf"
        assert payload["function"] == "f"
        assert payload["value"] == direct

    def test_trf_zero_rate(self, fixtures_dir):
        payload = run_json(
            ["trf", "--dist", fixtures_dir / "rademacher.json", "--f", "f", "--r", 0.0]
        )
        assert payload["value"] == 0.0

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_wr_exp_sub_gaussian_closed_form(self, r):
        payload = run_json(["wr-exp", "--gen", SUB_GAUSSIAN, "--r", r])
        assert payload["M"] == pytest.approx(0.25, rel=1e-9)
        assert payload["value"] == pytest.approx(math.sqrt(12.0 * r), rel=1e-9)

    def test_wr_exp_explicit_M(self):
        payload = run_json(["wr-exp", "--gen", SUB_GAUSSIAN, "--r", 1.0, "--M", 0.125])
        gen = make_generator("sub-gaussian")
        from tailbound.orlicz import wr_exponential_type

        assert payload["value"] == wr_exponential_type(gen, 0.125, 1.0)

    def test_wr_quad_matches_library(self):
        payload = run_json(["wr-quad", "--gen", SUB_GAUSSIAN, "--r", 1.0])
        from tailbound.orlicz import wr_quadrature_bound

        assert payload["value"] == wr_quadrature_bound(make_generator("sub-gaussian"), 1.0)
        assert payload["value"] <= math.sqrt(12.0) + 1e-9

    def test_wr_exp_bernstein_large_L_above_wr_quad(self):
        # at L = 10 the moment integral is ~120 with its mass far left of
        # the truncation point; M must be the closed form (1/4)/I(L)
        gen = '{"kind": "bernstein", "L": 10}'
        exp = run_json(["wr-exp", "--gen", gen, "--r", 1.0])
        quad = run_json(["wr-quad", "--gen", gen, "--r", 1.0])
        assert exp["M"] == pytest.approx(1.0 / (404.0 + 30.0 * math.sqrt(2.0 * math.pi)), rel=1e-6)
        assert exp["value"] >= quad["value"]

    def test_orlicz_norm_rademacher(self, fixtures_dir, rademacher):
        payload = run_json(
            [
                "orlicz-norm", "--dist", fixtures_dir / "rademacher.json",
                "--f", "f", "--gen", SUB_GAUSSIAN,
            ]
        )
        dist, functions = load_distribution(rademacher)
        direct = orlicz_norm(dist, functions["f"], make_generator("sub-gaussian"))
        assert payload["value"] == direct
        assert payload["value"] == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-9)

    def test_class_wr_cgf_context(self, fixtures_dir, family12):
        payload = run_json(
            ["class-wr", "--family", fixtures_dir / "family12.json", "--r", 0.05]
        )
        assert payload["value"] == class_wr(family12, 0.05)

    def test_class_wr_orlicz_context(self, fixtures_dir):
        payload = run_json(
            [
                "class-wr", "--family", fixtures_dir / "family12.json",
                "--r", 0.05, "--norm", SUB_GAUSSIAN,
            ]
        )
        fam = load_family(
            load_json(fixtures_dir / "family12.json"), make_generator("sub-gaussian")
        )
        assert payload["value"] == class_wr(fam, 0.05)

    def test_gaussian_bound_basis(self, fixtures_dir, poly2_model):
        payload = run_json(
            [
                "gaussian-bound", "--model", fixtures_dir / "gaussian-poly2.json",
                "--basis", 0, "--k", 2, "--n", 100, "--r", 0.02,
            ]
        )
        u = np.zeros(poly2_model.dim)
        u[0] = 1.0
        direct = gaussian_instance_bound(poly2_model, u, 2, 100, 0.02)
        for key, val in direct.as_dict().items():
            assert payload[key] == val

    def test_gaussian_bound_inline_vector(self, fixtures_dir, poly2_model):
        u = [1.0] + [0.0] * (poly2_model.dim - 1)
        payload = run_json(
            [
                "gaussian-bound", "--model", fixtures_dir / "gaussian-poly2.json",
                "--u", json.dumps(u), "--k", 2, "--n", 100, "--r", 0.02,
            ]
        )
        basis = run_json(
            [
                "gaussian-bound", "--model", fixtures_dir / "gaussian-poly2.json",
                "--basis", 0, "--k", 2, "--n", 100, "--r", 0.02,
            ]
        )
        assert payload["total"] == basis["total"]

    def test_chain_bound_matches_library(self, fixtures_dir, family12):
        payload = run_json(
            [
                "chain-bound", "--family", fixtures_dir / "family12.json",
                "--k", 2, "--n", 200, "--r", 0.05,
            ]
        )
        direct = theorem_main_bound(family12, build_deflation(family12, 2), 200, 0.05)
        assert payload["total_rhs"] == direct.total_rhs
        assert payload["gamma_value"] == direct.gamma_value
        assert payload["guarantee"] == direct.guarantee
        assert payload["per_member"] == {k: v for k, v in direct.per_member.items()}
        assert payload["certificate"]["assignment"] == list(direct.certificate["assignment"])

    def test_chain_bound_csv_threshold_columns(self, fixtures_dir, family12):
        code, out, err = run_cli(
            [
                "chain-bound", "--family", fixtures_dir / "family12.json",
                "--k", 0, "--n", 200, "--r", 0.05, "--format", "csv",
            ]
        )
        assert code == 0, err
        header, row = out.strip().split("\n")
        cols = header.split(",")
        for name in family12.names:
            assert f"threshold_{name}" in cols
        assert len(row.split(",")) == len(cols)

    def test_chain_bound_csv_quotes_member_names(self, fixtures_dir, tmp_path):
        # member names that hold a comma, a double quote or a line break are
        # quoted cells: header and row read back to equal lengths, and each
        # threshold cell is its JSON value
        data = load_json(fixtures_dir / "family12.json")
        renames = {"l1": "a,b", "l2": 'q"x', "l3": "two\nlines"}
        data["functions"] = {renames.get(k, k): v for k, v in data["functions"].items()}
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(data))
        argv = ["chain-bound", "--family", path, "--k", 0, "--n", 200, "--r", 0.05]
        payload = run_json(argv)
        code, out, err = run_cli(argv + ["--format", "csv"])
        assert code == 0, err
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row)
        cells = dict(zip(header, row))
        for name in renames.values():
            assert f"threshold_{name}" in cells
        for name, value in payload["per_member"].items():
            assert float(cells[f"threshold_{name}"]) == value

    def test_optimize_selects_best_k(self, fixtures_dir, family12):
        payload = run_json(
            [
                "optimize", "--family", fixtures_dir / "family12.json",
                "--n", 200, "--r", 0.05, "--k-candidates", "0,1,2,3",
            ]
        )
        direct = optimize_deflation(family12, 200, 0.05, [0, 1, 2, 3])
        assert payload["best_k"] == direct.plan.k == 3
        assert payload["objective"] == direct.objective
        assert [e["k"] for e in payload["evaluations"]] == [0, 1, 2, 3]
        assert payload["report"]["total_rhs"] == direct.report.total_rhs


class TestVerifyCommands:
    def test_verify_chernoff_matches_library(self, fixtures_dir, rademacher):
        payload = run_json(
            [
                "verify", "--target", "chernoff",
                "--dist", fixtures_dir / "rademacher.json", "--f", "f",
                "--n", 50, "--r", 0.05, "--trials", 2000, "--seed", 20250819,
            ]
        )
        dist, functions = load_distribution(rademacher)
        plan = TrialPlan(
            target="chernoff", n=50, r=0.05, trials=2000, root_seed=20250819,
            distribution=dist, function_values=functions["f"],
        )
        assert payload == json.loads(json.dumps(run_trials(plan).as_dict()))

    def test_sweep_grid_csv(self, fixtures_dir):
        code, out, err = run_cli(
            [
                "sweep", "--target", "chernoff",
                "--dist", fixtures_dir / "rademacher.json", "--f", "f",
                "--n", 50, "--r", 0.05, "--trials", 200, "--seed", 1,
                "--r-grid", "0.05,0.1", "--format", "csv",
            ]
        )
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[0] == "target,n,r,k,trials,violations,rate,guarantee,stderr,pass"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "0.05"
        assert lines[2].split(",")[2] == "0.1"

    def test_sweep_json_is_list(self, fixtures_dir):
        payload = run_json(
            [
                "sweep", "--target", "chernoff",
                "--dist", fixtures_dir / "rademacher.json", "--f", "f",
                "--n", 50, "--r", 0.05, "--trials", 200, "--seed", 1,
                "--n-grid", "20,40,60",
            ]
        )
        assert isinstance(payload, list)
        assert [row["n"] for row in payload] == [20, 40, 60]

    def test_verify_theorem_main(self, fixtures_dir, family12):
        payload = run_json(
            [
                "verify", "--target", "theorem-main",
                "--family", fixtures_dir / "family12.json",
                "--n", 200, "--r", 0.05, "--k", 2, "--trials", 1000, "--seed", 7,
            ]
        )
        assert payload["violations"] == 0
        assert payload["pass"] is True


class TestOutputHandling:
    def test_output_file_and_rerun_identical(self, fixtures_dir, tmp_path):
        target = tmp_path / "out.json"
        argv = [
            "verify", "--target", "chernoff",
            "--dist", fixtures_dir / "rademacher.json", "--f", "f",
            "--n", 50, "--r", 0.05, "--trials", 1000, "--seed", 4,
            "--output", target,
        ]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out == ""
        first = target.read_bytes()
        run_cli(argv)
        assert target.read_bytes() == first

    def test_json_csv_numeric_identity(self, fixtures_dir):
        args = ["trf", "--dist", fixtures_dir / "rademacher.json", "--f", "f", "--r", 0.3]
        payload = run_json(args)
        code, out, _ = run_cli(args + ["--format", "csv"])
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        # repr round-trip: the CSV cell parses back to the identical float
        assert float(cells["value"]) == payload["value"]

    @pytest.mark.skipif(
        shutil.which("tailbound") is None, reason="tailbound console script is not on PATH"
    )
    def test_console_script_installed(self, fixtures_dir):
        exe = shutil.which("tailbound")
        assert exe is not None
        proc = subprocess.run(
            [exe, "trf", "--dist", str(fixtures_dir / "rademacher.json"), "--f", "f", "--r", "0.05"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        inproc = run_json(["trf", "--dist", fixtures_dir / "rademacher.json", "--f", "f", "--r", 0.05])
        assert json.loads(proc.stdout) == inproc

    def test_console_script_entry_point(self, fixtures_dir):
        # the module:function that pyproject.toml declares, run as a script
        tomllib = pytest.importorskip("tomllib")
        repo = fixtures_dir.parent
        with open(repo / "pyproject.toml", "rb") as fh:
            module, func = tomllib.load(fh)["project"]["scripts"]["tailbound"].split(":")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        path = [str(repo / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        argv = ["trf", "--dist", str(fixtures_dir / "rademacher.json"), "--f", "f", "--r", "0.05"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == run_json(argv)

    def test_cli_imports_only_the_standard_library_and_numpy(self, fixtures_dir):
        # importing the CLI is the start-up cost of every command
        code = ("import json, sys; before = {m.split('.')[0] for m in sys.modules}; import tailbound.cli; "
                "added = {m.split('.')[0] for m in sys.modules} - before; "
                "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))")
        path = [str(fixtures_dir.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)) <= {"numpy", "tailbound"}


class TestExitCodes:
    def test_missing_file_exits_2(self):
        code, out, err = run_cli(["trf", "--dist", "/nonexistent/d.json", "--f", "f", "--r", 0.1])
        assert code == 2
        assert "invalid input" in err

    def test_unknown_function_exits_2(self, fixtures_dir):
        code, _, err = run_cli(
            ["trf", "--dist", fixtures_dir / "rademacher.json", "--f", "g", "--r", 0.1]
        )
        assert code == 2
        assert "not found" in err

    def test_unknown_generator_kind_exits_2(self):
        code, _, err = run_cli(["wr-quad", "--gen", '{"kind": "cauchy"}', "--r", 1.0])
        assert code == 2

    def test_power_generator_rejected_exits_2(self):
        # polynomial tails admit no exponential-type coefficient
        code, _, err = run_cli(["wr-quad", "--gen", '{"kind": "power", "p": 4}', "--r", 1.0])
        assert code == 2

    def test_malformed_inline_json_exits_2(self):
        code, _, err = run_cli(["wr-quad", "--gen", '{"kind": ', "--r", 1.0])
        assert code == 2

    def test_gaussian_bound_u_and_basis_conflict(self, fixtures_dir):
        base = [
            "gaussian-bound", "--model", fixtures_dir / "gaussian-poly2.json",
            "--k", 2, "--n", 100, "--r", 0.02,
        ]
        assert run_cli(base)[0] == 2  # neither
        assert run_cli(base + ["--u", "[1.0]", "--basis", 0])[0] == 2  # both
        assert run_cli(base + ["--basis", 99])[0] == 2  # out of range

    def test_verify_missing_reference_exits_2(self, fixtures_dir):
        for target, flags in (("chernoff", "--dist and --f"), ("corollary", "--family"), ("gaussian", "--model")):
            code, _, err = run_cli(
                ["verify", "--target", target, "--n", 50, "--r", 0.05, "--trials", 10, "--seed", 1]
            )
            assert code == 2
            assert err == f"invalid input: {target} target requires {flags}\n"

    @pytest.mark.parametrize(
        "argv",
        [["class-wr", "--family", "family12.json", "--r", -0.1], ["wr-exp", "--gen", SUB_GAUSSIAN, "--r", -1, "--M", 1]],
        ids=["class-wr", "wr-exp"],
    )
    def test_negative_rate_exits_2(self, fixtures_dir, argv):
        code, out, err = run_cli([fixtures_dir / a if str(a).endswith(".json") else a for a in argv])
        assert (code, out, err) == (2, "", "invalid input: r must be nonnegative\n")

    @pytest.mark.parametrize(
        "rows,message",
        [([], "no rows to serialize"), ([{"a": 1.0}, {"b": 1.0}], "CSV rows must share one column set")],
        ids=["empty", "mixed-keys"],
    )
    def test_dump_csv_rejects_rows_without_one_column_set(self, rows, message):
        with pytest.raises(ValueError, match=message):
            dump_csv(rows)

    def test_sweep_empty_grid_exits_2(self, fixtures_dir):
        code, _, err = run_cli(
            [
                "sweep", "--target", "chernoff",
                "--dist", fixtures_dir / "rademacher.json", "--f", "f",
                "--n", 50, "--r", 0.05, "--trials", 10, "--seed", 1, "--r-grid", " ",
            ]
        )
        assert code == 2

    def test_numeric_failure_exits_1(self):
        # every point of the lambda grid lies at or above lambda_sup = 1e-13,
        # so every quadrature evaluation is infinite
        gen = '{"kind": "custom", "t": [1.0, 2.0], "phi": [1e-13, 2e-13]}'
        code, out, err = run_cli(["wr-quad", "--gen", gen, "--r", 1.0])
        assert code == 1
        assert "numeric failure" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["wr-exp", "--gen", SUB_GAUSSIAN, "--r", 1.0, "--M", "nan"], "--M"),
            (["wr-exp", "--gen", SUB_GAUSSIAN, "--r", 1.0, "--M", "inf"], "--M"),
            (["wr-exp", "--gen", SUB_GAUSSIAN, "--r", "inf"], "--r"),
            (["wr-quad", "--gen", SUB_GAUSSIAN, "--r", "inf"], "--r"),
            (["trf", "--dist", "d.json", "--f", "f", "--r=-inf"], "--r"),
            (["trf", "--dist", "d.json", "--f", "f", "--r", "abc"], "--r"),
            (["sweep", "--target", "chernoff", "--dist", "d.json", "--f", "f", "--n", 50, "--r", 0.05,
              "--trials", 10, "--seed", 1, "--r-grid", "0.05,nan"], "--r-grid"),
        ],
        ids=["M-nan", "M-inf", "wr-exp-r-inf", "wr-quad-r-inf", "trf-r-minus-inf", "trf-r-abc", "r-grid-nan"],
    )
    def test_non_finite_number_exits_2(self, argv, flag):
        # NaN passed `M <= 0` and inf printed the non-JSON `Infinity`
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith(f"invalid input: tailbound {argv[0]}: argument {flag}: ") and err.count("\n") == 1
        assert "not a finite number" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chain-bound", "--k", 1000, "--n", 10, "--r", 0.1],
            ["optimize", "--k-candidates", "0,1000", "--n", 10, "--r", 0.1],
            ["verify", "--target", "theorem-main", "--k", 1000, "--n", 10, "--r", 0.1, "--trials", 100, "--seed", 1],
        ],
        ids=["chain-bound", "optimize", "verify"],
    )
    def test_deflation_budget_past_float_range_exits_0(self, fixtures_dir, argv):
        # floor(e^k) overflowed from k = 710 on; the budget is then the family
        code, out, err = run_cli(argv + ["--family", fixtures_dir / "family12.json"])
        assert code == 0, err
        json.loads(out)

    def test_argparse_usage_error(self):
        code, out, err = run_cli(["trf", "--f", "f", "--r", "0.1"])
        assert code == 2 and out == ""
        assert err == "invalid input: tailbound trf: the following arguments are required: --dist\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "tailbound: the following arguments are required: command"),
            (["trf", "--dist", "d.json", "--f", "f", "--r", "0.1", "--bogus"],
             "tailbound: unrecognized arguments: --bogus"),
            (["verify", "--target", "bogus", "--n", 1, "--r", 1, "--trials", 1, "--seed", 1],
             "tailbound verify: argument --target: invalid choice: 'bogus' (choose from 'chernoff', 'corollary', "
             "'gaussian', 'theorem-main')"),
            (["chain-bound", "--family", "f.json", "--k", "two", "--n", 10, "--r", 0.1],
             "tailbound chain-bound: argument --k: invalid int value: 'two'"),
        ],
        ids=["no-command", "unknown-flag", "unknown-target", "bad-int"],
    )
    def test_argument_faults_print_one_line(self, argv, message):
        assert run_cli(argv) == (2, "", f"invalid input: {message}\n")

    def test_help_still_exits_0_with_usage(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["trf", "--help"])
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: tailbound trf [-h] --dist DIST --f F --r R")

    def test_wr_exp_zero_conversion_factor_names_the_generator(self):
        code, out, err = run_cli(["wr-exp", "--gen", '{"kind": "sub-exponential"}', "--r", 1.0])
        assert code == 2 and out == ""
        assert "sub-exponential generator's conversion factor M is 0" in err
        assert "must be positive" not in err

    def test_wr_exp_table_flat_below_the_lambda_grid_exits_2(self):
        # phi* vanishes on (0, 1e-13], below the lambda grid's first point
        # 2^-40, so M is 0 and there is no closed-form bound
        gen = '{"kind": "custom", "t": [1, 2], "phi": [1e-13, 1]}'
        code, out, err = run_cli(["wr-exp", "--gen", gen, "--r", 1.0])
        assert code == 2 and out == ""
        assert err == "invalid input: the custom generator's conversion factor M is 0, so wr-exp has no bound for it\n"


RADEMACHER_FIXTURE = {"support": [[-1.0], [1.0]], "probabilities": [0.5, 0.5], "functions": {"f": [-1.0, 1.0]}}

# (subcommand, the flag that takes the malformed input, the input, a word the message must contain)
MALFORMED = [
    ("model", {"spectrum": "poly"}, "'d'"),
    ("model", {"spectrum": "poly", "d": "x"}, "integer"),
    ("model", {"spectrum": "poly", "d": 10**9}, "d must lie"),
    ("model", {"spectrum": "poly", "d": 5, "exponent": None}, "exponent"),
    ("model", {"covariance": [[1.0, "a"], [0.0, 1.0]]}, "covariance"),
    ("model", {"covariance": [[1.0, float("nan")], [float("nan"), 1.0]]}, "finite"),
    ("model", {"covariance": [[1.0], [0.0, 1.0]]}, "covariance"),
    ("model", [1, 2], "covariance"),
    ("gen", {"kind": "bernstein", "L": "x"}, "'L'"),
    ("gen", {"kind": "bennett", "L": float("nan")}, "'L'"),
    ("gen", {"kind": "bernstein", "L": True}, "'L'"),
    ("gen", {"kind": 3}, "kind"),
    ("gen", {"L": 1.0}, "kind"),
    ("gen", {"kind": "custom", "t": "x", "phi": [1.0]}, "'t'"),
    ("gen", {"kind": "custom", "t": [1.0, 2.0], "phi": [1.0, None]}, "'phi'"),
    ("dist", {"support": [[float("nan")], [1.0]], "probabilities": [0.5, 0.5], "functions": {"f": [-1.0, 1.0]}}, "finite"),
    ("dist", {"support": [[-1.0], [1.0]], "probabilities": [0.5, "0.5"], "functions": {"f": [-1.0, 1.0]}}, "probabilities"),
    ("dist", {"support": [[-1.0], [1.0]], "functions": {"f": [-1.0, 1.0]}}, "'probabilities'"),
    ("dist", {"probabilities": [0.5, 0.5], "functions": {"f": [-1.0, 1.0]}}, "'support'"),
    ("dist", {"support": [[-1.0], [1.0]], "probabilities": [0.5, 0.5], "functions": [[-1.0, 1.0]]}, "functions"),
    ("dist", {"support": [[-1.0], [1.0]], "probabilities": [0.5, 0.5], "functions": {"f": [-1.0, float("inf")]}}, "finite"),
    ("dist", {"support": [[-1.0], [1.0]], "probabilities": [0.5, 0.5], "functions": {"f": {"a": 1}}}, "function 'f'"),
    ("dist", "not an object", "support"),
    ("u", {"a": 1.0}, "direction"),
    ("u", [0.5, "x"], "direction"),
    ("family", {**RADEMACHER_FIXTURE, "functions": {}}, "nonempty 'functions'"),
    ("gen", {"kind": "custom"}, "tabulated t and phi"),
]


@pytest.mark.parametrize("flag,obj,word", MALFORMED, ids=[f"{f}-{i}" for i, (f, _o, _w) in enumerate(MALFORMED)])
def test_malformed_input_exits_2_with_one_line(tmp_path, flag, obj, word):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"spectrum": "poly", "d": 2}))
    argv = {
        "model": ["gaussian-bound", "--model", path, "--basis", 0, "--k", 1, "--n", 10, "--r", 0.1],
        "gen": ["wr-exp", "--gen", path, "--r", 1.0],
        "dist": ["trf", "--dist", path, "--f", "f", "--r", 0.1],
        "u": ["gaussian-bound", "--model", model, "--u", path, "--k", 1, "--n", 10, "--r", 0.1],
        "family": ["class-wr", "--family", path, "--r", 0.1],
    }[flag]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert word in err


# a function the rate-function solver rejects: (values, the whole message)
BAD_FUNCTIONS = {
    "long": ([1.0, -0.5, -0.5], "function length does not match support size"),
    "uncentered": ([0.0, 1.0], "function is not centered: mean 0.5 exceeds 1e-10"),
}


@pytest.mark.parametrize("fault", sorted(BAD_FUNCTIONS))
@pytest.mark.parametrize("command", ["trf", "verify-chernoff"])
def test_bad_function_exits_2_with_one_line(tmp_path, command, fault):
    values, message = BAD_FUNCTIONS[fault]
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({**RADEMACHER_FIXTURE, "functions": {"f": values}}))
    argv = {
        "trf": ["trf", "--dist", path, "--f", "f", "--r", 0.1],
        "verify-chernoff": ["verify", "--target", "chernoff", "--dist", path, "--f", "f", "--n", 10, "--r", 0.1,
                            "--trials", 10, "--seed", 1],
    }[command]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == f"invalid input: {message}\n"


# members that each meet the centering rule while their normalized
# differences, in floating point, do not: a cross pair whose difference has
# mean 1.6e-10, and a pair of near duplicates
UNIFORM4_FIXTURE = {"support": [[0.0], [1.0], [2.0], [3.0]], "probabilities": [0.25] * 4}
NEARLY_CENTERED_DIFFERENCES = {
    "cross": {"zero": [0.0] * 4, "a": [1.0, -1.0, 0.5, -0.5 + 3.6e-10], "b": [-0.5, 0.5 - 3.6e-10, 1.0, -1.0]},
    "near-duplicates": {"zero": [0.0] * 4, "a": [1.0, -1.0, 0.5, -0.5], "a2": [1.00000001, -1.0, 0.5, -0.50000001]},
}


@pytest.mark.parametrize("family", sorted(NEARLY_CENTERED_DIFFERENCES))
@pytest.mark.parametrize("command", ["class-wr", "optimize", "chain-bound", "verify"])
def test_member_differences_meet_the_centering_rule(tmp_path, command, family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**UNIFORM4_FIXTURE, "functions": NEARLY_CENTERED_DIFFERENCES[family]}))
    argv = {
        "class-wr": ["class-wr", "--family", path, "--r", 0.5],
        "optimize": ["optimize", "--family", path, "--n", 50, "--r", 0.1, "--k-candidates", "0,1"],
        "chain-bound": ["chain-bound", "--family", path, "--k", 0, "--n", 50, "--r", 0.1],
        "verify": ["verify", "--target", "corollary", "--family", path, "--n", 50, "--r", 0.1,
                   "--trials", 100, "--seed", 1],
    }[command]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    json.loads(out)


def _scaled_family12(fixtures_dir, tmp_path, scale, shift=None):
    """fixtures/family12.json with every member times scale, written to
    tmp_path; shift adds a constant to the members it names."""
    fam = json.loads((fixtures_dir / "family12.json").read_text())
    shift = shift or {}
    fam["functions"] = {name: [scale * v + shift.get(name, 0.0) for v in values]
                        for name, values in fam["functions"].items()}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    return path


@pytest.mark.parametrize("k", [0, 1, 2])
def test_theorem_main_holds_on_a_family_scaled_by_1e_13(fixtures_dir, tmp_path, k):
    # with absolute tolerances of 1e-12 in the chain every threshold of this
    # family read 0, and all 2000 trials violated; a decimal scale, since the
    # exact 2^e rescales are tests/test_contract.py's
    path = _scaled_family12(fixtures_dir, tmp_path, 1e-13)
    payload = run_json(["verify", "--target", "theorem-main", "--family", path, "--k", k, "--n", 200, "--r", 0.05,
                        "--trials", 2000, "--seed", 1])
    assert payload["pass"] is True and payload["violations"] == 0


def test_centering_rule_is_relative_on_a_small_family(fixtures_dir, tmp_path):
    # at scale 2^-45 a mean of 5e-11 is 7e3 times the member's largest value;
    # a rule floored at 1e-10 absolute accepted it, and all 2000 trials violated
    path = _scaled_family12(fixtures_dir, tmp_path, 2.0**-45, {"l1": 5e-11})
    code, out, err = run_cli(["verify", "--target", "theorem-main", "--family", path, "--k", 1, "--n", 200,
                              "--r", 0.05, "--trials", 2000, "--seed", 1])
    assert code == 2 and out == ""
    assert err.startswith("invalid input: member 'l1': function is not centered: mean 5e-11 exceeds ")
    assert err.count("\n") == 1


# members 2e308 apart at each support point: their differences overflow
WIDE_FAMILY = {**RADEMACHER_FIXTURE, "functions": {"zero": [0.0, 0.0], "a": [1e308, -1e308], "b": [-1e308, 1e308]}}


@pytest.mark.parametrize("command", ["class-wr", "chain-bound", "optimize"])
def test_family_whose_differences_overflow_exits_2_with_one_line(tmp_path, command):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(WIDE_FAMILY))
    argv = {
        "class-wr": ["class-wr", "--family", path, "--r", 0.5],
        "chain-bound": ["chain-bound", "--family", path, "--k", 0, "--n", 50, "--r", 0.1],
        "optimize": ["optimize", "--family", path, "--n", 50, "--r", 0.1, "--k-candidates", "0,1"],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ") and err.count("\n") == 1 and "overflow" in err, err
    assert not caught, [str(w.message) for w in caught]


# Generators at extreme parameters: (argv, allowed exit codes, output fields
# or the stderr line). phi and the integrals overflow harmlessly to +inf there;
# Bennett at L = 1e300 and 1e30 leaves the moment integral untruncated.
EXTREME_GENERATORS = {
    "bennett-1e300-wr-exp": (["wr-exp", "--gen", '{"kind": "bennett", "L": 1e300}', "--r", 1], (1,),
                             "numeric failure: moment integral truncation point not found\n"),
    "bennett-1e30-wr-exp": (["wr-exp", "--gen", '{"kind": "bennett", "L": 1e30}', "--r", 1], (1,),
                            "numeric failure: moment integral truncation point not found\n"),
    "bennett-1e-300-wr-exp": (["wr-exp", "--gen", '{"kind": "bennett", "L": 1e-300}', "--r", 1e300], (0,),
                              {"M": 0.24999999999974998, "value": 3.464101615141218e+150}),
    "sub-gaussian-wr-quad": (["wr-quad", "--gen", SUB_GAUSSIAN, "--r", 1e300], (0,), {"value": 7.450580596923829e+291}),
    "custom-wr-exp": (["wr-exp", "--gen", '{"kind": "custom", "t": [1, 2], "phi": [1, 1e308]}', "--r", 1], (2,),
                      "invalid input: the custom generator's conversion factor M is 0, so wr-exp has no bound for it\n"),
    "bennett-1e300-orlicz-norm": (["orlicz-norm", "--dist", "rademacher.json", "--f", "f", "--gen",
                                   '{"kind": "bennett", "L": 1e300}'], (0, 1), None),
}


@pytest.mark.parametrize("case", sorted(EXTREME_GENERATORS))
def test_extreme_generators_exit_cleanly(fixtures_dir, case):
    argv, codes, want = EXTREME_GENERATORS[case]
    argv = [fixtures_dir / a if str(a).endswith(".json") else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in codes, err
    if code == 0:
        assert err == ""
        payload = json.loads(out)
        assert want is None or {k: payload[k] for k in want} == want
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
        assert want is None or err == want


# Commands at the edges of the float range: (argv, exit code). Orlicz norms
# are solved on rows scaled to max 1, Monte Carlo cells whose float products
# or levels overflow are decided exactly, and a T_r lambda past the float
# range is +inf. big.json and tiny.json hold f = +-1e308 and f = +-5e-324.
FLOAT_EDGES = {
    "orlicz-norm-sub-exponential-1e308": (["orlicz-norm", "--dist", "big.json", "--f", "f", "--gen",
                                           '{"kind": "sub-exponential"}'], 0),
    "orlicz-norm-bernstein-L-1e300": (["orlicz-norm", "--dist", "rademacher.json", "--f", "f", "--gen",
                                       '{"kind": "bernstein", "L": 1e300}'], 0),
    "verify-chernoff-1e308": (["verify", "--target", "chernoff", "--dist", "big.json", "--f", "f", "--n", 5,
                               "--r", 0.1, "--trials", 4000, "--seed", 1], 0),
    "trf-5e-324": (["trf", "--dist", "tiny.json", "--f", "f", "--r", 0.1], 0),
    "wr-exp-power-with-M": (["wr-exp", "--gen", '{"kind": "power", "p": 2}', "--r", 1, "--M", 0.5], 2),
    # custom tables whose slopes overflow: about 1e310 then 1e8 (not convex), and 1e600
    "class-wr-custom-slope-1e310": (["class-wr", "--family", "family12.json", "--r", 0.1, "--norm",
                                     '{"kind": "custom", "t": [1e-320, 1], "phi": [1e-10, 1e8]}'], 2),
    "orlicz-norm-custom-slope-1e600": (["orlicz-norm", "--dist", "rademacher.json", "--f", "f", "--gen",
                                        '{"kind": "custom", "t": [1e-300, 1], "phi": [1e300, 1e301]}'], 2),
    # a spectrum whose eigenvalue 3^1000 overflows, and a direction whose norm does
    "gaussian-bound-spectrum-3^1000": (["gaussian-bound", "--model", "poly-1000.json", "--basis", 0, "--k", 1,
                                        "--n", 10, "--r", 0.1], 2),
    "gaussian-bound-u-1e200": (["gaussian-bound", "--model", "gaussian-poly2.json", "--u",
                                json.dumps([1e200] + [0.0] * 49), "--k", 1, "--n", 10, "--r", 0.1], 2),
}


@pytest.mark.parametrize("case", sorted(FLOAT_EDGES))
def test_float_range_edges_exit_cleanly(fixtures_dir, tmp_path, case):
    argv, want = FLOAT_EDGES[case]
    written = {name: {"support": [[-1.0], [1.0]], "probabilities": [0.5, 0.5], "functions": {"f": [-value, value]}}
               for name, value in (("big.json", 1e308), ("tiny.json", 5e-324))}
    written["poly-1000.json"] = {"spectrum": "poly", "d": 3, "exponent": -1000}
    for name, obj in written.items():
        (tmp_path / name).write_text(json.dumps(obj))
    # other .json names are fixtures
    argv = [(tmp_path if a in written else fixtures_dir) / a if str(a).endswith(".json") else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(argv)
    assert code == want, err
    assert err.count("\n") <= 1, err


def _verify_under_address_limit(fixtures_dir, limit, argv):
    """`tailbound verify argv` in a process of its own whose address space is
    at most `limit` bytes (the hard limit if lower)."""
    resource = pytest.importorskip("resource")
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    argv = [str(fixtures_dir / a) if str(a).endswith(".json") else str(a) for a in argv]
    path = [str(fixtures_dir.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "tailbound.cli", "verify", *argv, "--r", "0.05", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


# The mesh's first large allocation is its projector, 8 d mesh bytes (37.3
# GiB at d = 50), far more than the 4 GB address-space limit, so the test
# touches no memory near the limit.
OUT_OF_MEMORY = {
    "gaussian": ["--target", "gaussian", "--model", "gaussian-poly2.json", "--n", 100, "--mesh", 10**8,
                 "--trials", 10],
}


@pytest.mark.parametrize("target", sorted(OUT_OF_MEMORY))
def test_memory_exhaustion_exits_1_with_one_line(fixtures_dir, target):
    proc = _verify_under_address_limit(fixtures_dir, 4 * 1024**3, OUT_OF_MEMORY[target])
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("out of memory: "), proc.stderr


def test_chernoff_memory_does_not_grow_with_n(fixtures_dir):
    # discrete draws are counted tile by tile, so 2 trials of 2e8 draws run
    # in 1 GiB, where one trial's 2e8 int64 keys alone would take 1.5 GiB
    argv = ["--target", "chernoff", "--dist", "rademacher.json", "--f", "f", "--n", 2 * 10**8, "--trials", 2]
    proc = _verify_under_address_limit(fixtures_dir, 1024**3, argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trials"] == 2
