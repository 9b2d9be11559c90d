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

    def test_byte_identical_reruns(self, tmp_path):
        # summary.txt carries wall-clock timing, so determinism is asserted on
        # the trajectory alone
        cfg = write_cfg(tmp_path, COMPLETION.format(kind="das"))
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


class TestSuiteCommand:
    def test_small_suite_passes_and_prints_verdicts(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["suite", "--seeds", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "FAIL" not in printed.replace("0 failures", "")
        assert (out / "theorem_reports.txt").exists()
        assert "all_passed True" in (out / "summary.txt").read_text()


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
