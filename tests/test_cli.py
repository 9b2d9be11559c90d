import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coreflow.cli import main
from coreflow.errors import FormatError
from coreflow.tensor import as_tensor, read_dtf1, read_tensor, write_dtf1

COMPLETION = """
experiment completion
seed 5
model {{
  family tucker
  modes 8,8,8
  ranks 2,2,2
}}
objective {{
  mask_density 0.4
}}
optimizer {{
  kind {kind}
  base adam
  eta 0.01
  rho 0.01
  alpha 0.001
  iters 300
}}
"""


# Each family at a small shape, as the body of a config's model block.
SMALL_MODELS = {
    "cp": "family cp\n  modes 4,3,5\n  ranks 2",
    "tucker": "family tucker\n  modes 4,3,5\n  ranks 2,2,2",
    "tucker2": "family tucker2\n  modes 5,4\n  ranks 2,3",
    "tt": "family tt\n  modes 3,4,3\n  ranks 2,2",
    "tr": "family tr\n  modes 3,4,3\n  ranks 2,2,2",
}


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_completion_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.txt").exists()
        printed = capsys.readouterr().out
        assert "r2" in printed
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,loss,q,cov,core_norm_sq_1")

    @pytest.mark.parametrize("family", sorted(SMALL_MODELS))
    @pytest.mark.parametrize("kind", ["sgd", "adam", "sam", "das"])
    def test_byte_identical_reruns(self, tmp_path, kind, family):
        # summary.txt carries wall-clock timing, so determinism is asserted on
        # the trajectory alone
        text = COMPLETION.format(kind=kind).replace("iters 300", "iters 20")
        text = text.replace("family tucker\n  modes 8,8,8\n  ranks 2,2,2", SMALL_MODELS[family])
        assert SMALL_MODELS[family] in text
        cfg = write_cfg(tmp_path, text)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_seed_override_changes_trajectory(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", cfg, "--out", str(out1), "--seed", "5"]) == 0
        assert main(["run", cfg, "--out", str(out2), "--seed", "6"]) == 0
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()

    def test_das_trajectory_has_lambda_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="das"))
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert "lambda_1" in header and "lambda_4" in header

    def test_broken_config_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment completion\n")
        assert main(["run", cfg]) == 2
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,text",
        [
            ("run", COMPLETION.format(kind="adam")),
            ("gen", COMPLETION.format(kind="adam")),
            ("run", "experiment tucker2-noise\nmodel {\n}\nobjective {\n}\n"),
        ],
        ids=["run-completion", "gen", "run-tucker2-noise"],
    )
    def test_empty_noise_alpha_list_exits_two(self, tmp_path, capsys, command, text):
        cfg = write_cfg(tmp_path, text.replace("objective {", "objective {\n  noise_alpha ,"))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "noise_alpha" in err

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_noise_alpha_list_outside_the_sweep_exits_two(self, tmp_path, capsys, command):
        # a completion runs at one strength: a list would silently run at its first value
        text = COMPLETION.format(kind="adam").replace("objective {", "objective {\n  noise_alpha 0.1,0.3")
        cfg = write_cfg(tmp_path, text.replace("family tucker\n  modes 8,8,8\n  ranks 2,2,2",
                                               "family tucker2\n  modes 6,5\n  ranks 2,2"))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: noise_alpha takes one value in a completion experiment "
            "(a list sweeps only in tucker2-noise), got 2\n"
        )
        assert not (tmp_path / "out").exists()

    NOISE_SWEEP = "experiment tucker2-noise\nmodel {{\n  {model}\n}}\noptimizer {{\n  iters 3\n}}\n"

    def test_noise_sweep_model_without_three_cores_exits_two(self, tmp_path, capsys):
        model = "family tucker\n  modes 4,4,4\n  ranks 2,2,2"
        cfg = write_cfg(tmp_path, self.NOISE_SWEEP.format(model=model))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: tucker2-noise needs a model of 3 cores, got 4\n"

    def test_noise_sweep_with_a_repeated_strength_exits_two(self, tmp_path, capsys):
        # both runs would write trajectory_alpha_0p1.csv
        text = self.NOISE_SWEEP.format(model="family tucker2\n  modes 5,4\n  ranks 2,2")
        cfg = write_cfg(tmp_path, text + "objective {\n  noise_alpha 0.1,0.1\n}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: noise_alpha must be >= 0 and strictly ascending in tucker2-noise, got 0.1,0.1\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, got",
        [
            ("source target.dtf1", "source 'target.dtf1' and mask_density 1.0"),
            ("mask_density 0.5", "source 'synthetic' and mask_density 0.5"),
        ],
        ids=["source", "mask_density"],
    )
    def test_noise_sweep_rejects_the_objective_keys_it_ignores(self, tmp_path, capsys, line, got):
        # the sweep always fits a synthetic target on every entry
        write_dtf1(tmp_path / "target.dtf1", as_tensor(np.ones((5, 4))))
        text = self.NOISE_SWEEP.format(model="family tucker2\n  modes 5,4\n  ranks 2,2")
        cfg = write_cfg(tmp_path, text + f"objective {{\n  {line}\n}}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: tucker2-noise fits a synthetic target on every entry, got {got}\n"
        )
        assert not (tmp_path / "out").exists()

    HUGE_NOISE = COMPLETION.format(kind="adam")
    HUGE_NOISE = HUGE_NOISE.replace("objective {", "objective {\n  noise_alpha 1e308")
    HUGE_NOISE_SWEEP = NOISE_SWEEP.format(model="family tucker2\n  modes 5,4\n  ranks 2,2")
    HUGE_NOISE_SWEEP += "objective {\n  noise_alpha 0.0,1e308\n}\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("run", HUGE_NOISE, "the target at noise_alpha 1e+308 produced a non-finite value"),
            ("gen", HUGE_NOISE, "the target at noise_alpha 1e+308 produced a non-finite value"),
            ("run", HUGE_NOISE_SWEEP,
             "noise_alpha 1e+308: iteration 0: noisy mse produced a non-finite loss inf"),
        ],
        ids=["run-completion", "gen", "run-tucker2-noise"],
    )
    def test_overflowing_noise_is_one_error_line(self, tmp_path, capsys, command, text, message):
        # the noise is scaled with numpy's overflow warnings off, as every step is
        cfg = write_cfg(tmp_path, text)
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_noise_sweep_runs_a_three_core_cp_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.NOISE_SWEEP.format(model="family cp\n  modes 4,4,4\n  ranks 2"))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) in (0, 1)  # 1: sweep unordered
        assert capsys.readouterr().err == ""
        assert len(list((tmp_path / "out").glob("trajectory_alpha_*.csv"))) == 3

    def test_file_sourced_completion(self, tmp_path):
        target = as_tensor(np.random.default_rng(0).standard_normal((6, 6, 6)))
        data = tmp_path / "target.dtf1"
        write_dtf1(data, target)
        text = COMPLETION.format(kind="adam").replace(
            "mask_density 0.4", "mask_density 0.4\n  source target.dtf1"
        ).replace("modes 8,8,8", "modes 6,6,6")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0


class TestOutsideInputErrors:
    """Bad values in a config or a DTF1 source: one error line naming the
    value, exit 2."""

    def assert_error(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(message + "\n"), err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("kind adam", "kind rmsprop", "optimizer kind must be sgd|adam|sam|das, got 'rmsprop'"),
            ("iters 300", "iters 300\n  schedule linear", "schedule must be constant|cosine, got 'linear'"),
            ("eta 0.01", "eta fast", "line 15: eta needs a number, got 'fast'"),
            ("mask_density 0.4", "mask_density 0.4\n  resample maybe",
             "line 11: resample needs true/false, got 'maybe'"),
        ],
        ids=["kind", "schedule", "eta", "resample"],
    )
    def test_bad_value(self, tmp_path, capsys, old, new, message):
        text = COMPLETION.format(kind="adam")
        assert old in text
        self.assert_error(tmp_path, capsys, text.replace(old, new), f"error: {message}")

    @pytest.mark.parametrize(
        "plan, message",
        [
            ("ij,jk", "plan 'ij,jk' lacks '->'"),
            ("i1,jk->ik", "label '1' is not a letter"),
            ("ij,jk->ii", "output 'ii' repeats a label"),
            ("ij,jk->iz", "output label 'z' missing from operands"),
        ],
    )
    def test_bad_custom_plan(self, tmp_path, capsys, plan, message):
        text = COMPLETION.format(kind="adam").replace(
            "family tucker\n  modes 8,8,8\n  ranks 2,2,2", f"family custom\n  plan {plan}\n  shapes 2x3,3x4"
        )
        self.assert_error(tmp_path, capsys, text, f"error: bad model block: {message}")

    def test_source_of_another_shape(self, tmp_path, capsys):
        write_dtf1(tmp_path / "wrong.dtf1", as_tensor(np.ones((4, 3, 3))))
        text = COMPLETION.format(kind="adam").replace("modes 8,8,8", "modes 3,3,3").replace(
            "mask_density 0.4", "mask_density 0.4\n  source wrong.dtf1"
        )
        self.assert_error(tmp_path, capsys, text, "error: source tensor shape (4, 3, 3) vs model (3, 3, 3)")

    def test_source_with_a_zero_extent(self, tmp_path, capsys):
        (tmp_path / "zero.dtf1").write_bytes(b"DTF1" + struct.pack("<I3Q", 3, 3, 0, 3))
        text = COMPLETION.format(kind="adam").replace("modes 8,8,8", "modes 3,3,3").replace(
            "mask_density 0.4", "mask_density 0.4\n  source zero.dtf1"
        )
        self.assert_error(tmp_path, capsys, text, "zero.dtf1: extent 0 < 1")


class TestGenCommand:
    def test_gen_writes_target_mask_and_truth(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        out = tmp_path / "gen"
        assert main(["gen", cfg, "--out", str(out)]) == 0
        target = read_dtf1(out / "target.dtf1")
        assert target.shape == (8, 8, 8)
        mask = read_dtf1(out / "mask.dtf1")
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert (out / "truth_core_1.dtf1").exists()
        assert "target" in capsys.readouterr().out

    def test_gen_is_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        main(["gen", cfg, "--out", str(out1)])
        main(["gen", cfg, "--out", str(out2)])
        assert (out1 / "target.dtf1").read_bytes() == (out2 / "target.dtf1").read_bytes()


class TestSeedChecks:
    def test_suite_needs_a_seed(self, capsys):
        assert main(["suite", "--seeds", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seeds" in err

    def test_run_rejects_negative_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        assert main(["run", cfg, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err


class TestOversizedSeedCount:
    """A seed count above sys.maxsize, more seeds than a list can hold, ends
    in one error line and exit 2 before any work: no output directory."""

    @pytest.mark.parametrize("count", [2**63, 10**20])
    def test_suite(self, count, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["suite", "--seeds", str(count), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --seeds must be <= {sys.maxsize}, got {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", [2**63, 10**20])
    def test_run(self, count, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"experiment theorem-suite\nseeds {count}\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: seeds must be <= {sys.maxsize}, got {count}\n"
        assert not out.exists()


class TestUnusablePaths:
    def assert_one_line_error(self, argv, capsys, *words):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for word in words:
            assert word in err

    def test_missing_config(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.cfg")
        self.assert_one_line_error(["run", missing], capsys, "absent.cfg", "cannot read")

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.assert_one_line_error(["run", str(tmp_path)], capsys, "cannot read")

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("experiment completion # caf\xe9\n".encode("latin-1"))
        self.assert_one_line_error(["run", str(path)], capsys, "cannot read", "utf-8")

    @pytest.mark.parametrize("source", ["a_directory", "latin1.csv"])
    def test_unreadable_source(self, tmp_path, capsys, source):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.csv").write_bytes("# shape: 1\n1.0 # caf\xe9\n".encode("latin-1"))
        text = COMPLETION.format(kind="adam").replace(
            "mask_density 0.4", f"mask_density 0.4\n  source {source}"
        )
        cfg = write_cfg(tmp_path, text)
        self.assert_one_line_error(
            ["run", cfg, "--out", str(tmp_path / "out")], capsys, source, "cannot read"
        )

    def test_source_extent_too_large_for_int64(self, tmp_path, capsys):
        (tmp_path / "huge.csv").write_text("# shape: 9999999999999999999999\n1,2\n")
        text = COMPLETION.format(kind="adam").replace(
            "mask_density 0.4", "mask_density 0.4\n  source huge.csv"
        )
        cfg = write_cfg(tmp_path, text)
        self.assert_one_line_error(
            ["run", cfg, "--out", str(tmp_path / "out")], capsys, "huge.csv", "cannot fill"
        )

    def test_modes_too_large_for_an_array(self, tmp_path, capsys):
        text = COMPLETION.format(kind="adam").replace("modes 8,8,8", "modes 99999999999999999999,20,20")
        cfg = write_cfg(tmp_path, text)
        self.assert_one_line_error(
            ["run", cfg, "--out", str(tmp_path / "out")], capsys, "more entries"
        )

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_output_too_large_to_allocate(self, tmp_path, capsys, command):
        # 10^14 output entries, more than a 64-bit process can map; the cores are 2 x 80 MB
        text = COMPLETION.format(kind="adam").replace("family tucker", "family tucker2")
        text = text.replace("modes 8,8,8", "modes 10000000,10000000").replace("ranks 2,2,2", "ranks 1,1")
        cfg = write_cfg(tmp_path, text)
        self.assert_one_line_error(
            [command, cfg, "--out", str(tmp_path / "out")], capsys, "(10000000, 10000000)"
        )

    def test_run_out_is_a_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        taken = tmp_path / "taken"
        taken.write_text("")
        self.assert_one_line_error(
            ["run", cfg, "--out", str(taken)], capsys, "output directory"
        )

    def test_suite_out_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        self.assert_one_line_error(
            ["suite", "--seeds", "1", "--out", str(taken)], capsys, "output directory"
        )

    def test_gen_out_is_a_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        taken = tmp_path / "taken"
        taken.write_text("")
        self.assert_one_line_error(
            ["gen", cfg, "--out", str(taken)], capsys, "output directory"
        )
        assert taken.read_text() == ""

    def assert_refused_outputs(self, argv_for, squatted, tmp_path, capsys):
        """``argv_for(out)`` with ``out`` a name too long for the OS, then with
        ``out`` a directory holding a directory where the file ``squatted``
        goes: each ends in one ``error:`` line naming the refused path and exit 2."""
        long_name = str(tmp_path / ("x" * 300))
        self.assert_one_line_error(
            argv_for(long_name), capsys, "output directory", "File name too long"
        )
        out = tmp_path / "out"
        (out / squatted).mkdir(parents=True)
        self.assert_one_line_error(
            argv_for(str(out)), capsys, "output directory", squatted, "Is a directory"
        )

    def test_run_outputs_the_os_refuses(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam").replace("iters 300", "iters 3"))
        self.assert_refused_outputs(
            lambda out: ["run", cfg, "--out", out], "trajectory.csv", tmp_path, capsys
        )

    def test_suite_outputs_the_os_refuses(self, tmp_path, capsys):
        self.assert_refused_outputs(
            lambda out: ["suite", "--seeds", "1", "--out", out], "theorem_reports.txt", tmp_path, capsys
        )

    def test_gen_outputs_the_os_refuses(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="adam"))
        self.assert_refused_outputs(
            lambda out: ["gen", cfg, "--out", out], "target.dtf1", tmp_path, capsys
        )

DIVERGING = """
experiment completion
seed {seed}
model {{
  {model}
}}
objective {{
  source synthetic
  {objective}
}}
optimizer {{
  {optimizer}
  eta 50
  iters 3
}}
"""


class TestDivergingRun:
    """A completion run whose cores overflow during its last steps ends in one
    error line and exit 2, without numpy warnings from the post-run work."""

    @pytest.mark.parametrize(
        "seed, model, objective, optimizer",
        [
            (4, "family tucker2\n  modes 5,4\n  ranks 3,2", "mask_density 1e-9",
             "kind sgd\n  base adam"),
            (2, "family tucker\n  modes 1,5,2\n  ranks 3,2,3", "", "kind sam\n  base sgd"),
        ],
        ids=["scoring-overflows", "reconstruction-overflows"],
    )
    def test_one_error_line(self, tmp_path, capsys, seed, model, objective, optimizer):
        text = DIVERGING.format(seed=seed, model=model, objective=objective, optimizer=optimizer)
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["suite", "--seeds", "0"], 2)])
    def test_python_dash_m_exit_code(self, argv, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "coreflow", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == code
        if code == 2:
            assert done.stderr == "error: --seeds must be >= 1, got 0\n"


class TestSuiteCommand:
    def test_small_suite_passes_and_prints_verdicts(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["suite", "--seeds", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "FAIL" not in printed.replace("0 failures", "")
        assert (out / "theorem_reports.txt").exists()
        assert "all_passed True" in (out / "summary.txt").read_text()

    def test_suite_config_runs_the_suite(self, tmp_path, capsys):
        # the theorem-suite kind of `run` gives `coreflow suite --seeds 10`'s reports
        cfg = Path(__file__).resolve().parents[1] / "configs" / "suite.cfg"
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        assert "checks 136\nfailures 0\n" in capsys.readouterr().out
        digest = hashlib.sha256((tmp_path / "theorem_reports.txt").read_bytes()).hexdigest()
        assert digest == "4d14fc9abf067956f6968cc410f167f9db82b0996a358c473a1eeaa6023b8829"


class TestIngest:
    def test_round_trip(self, tmp_path, rng):
        arr = as_tensor(rng.standard_normal((3, 5)))
        path = tmp_path / "x.dtf1"
        write_dtf1(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "x.dtf1"
        write_dtf1(path, as_tensor(rng.standard_normal((4, 4))))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# shape: 2,3\n1,2,3,4,5,6\n")
        arr = read_tensor(path)
        assert arr.shape == (2, 3)
        np.testing.assert_array_equal(arr, [[1, 2, 3], [4, 5, 6]])
