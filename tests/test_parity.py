"""The bit-parity tool in tools/parity.py, on one workload at one seed."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

ARGS = ["--workload", "cli_docs", "--seed", "1"]


def test_the_working_tree_has_parity_with_itself(capsys):
    assert parity.main([str(ROOT), *ARGS]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "456 calls, 0 with differences"
    assert not [line for line in out if line.startswith(("changed:", "largest relative change:"))]


def test_a_seedless_family_runs_once_whatever_the_seeds(capsys):
    # graded: five calls on each of 308 matrices, at two tols, not once per seed
    assert parity.main([str(ROOT), "--workload", "graded", "--seed", "1", "--seed", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3080 calls, 0 with differences"


def test_a_changed_last_bit_is_reported(tmp_path, capsys):
    # s of the Gauss route scaled by 1 + 2^-45: the CLI's decompose output
    # changes, and so does decompose_g_admissible's, which runs on the inputs
    # of factor_small's decompose_gauss
    shutil.copytree(ROOT / "src", tmp_path / "src")
    path = tmp_path / "src" / "supq" / "iwasawa.py"
    step = "return _solve_lower(b.T, x.T).T.copy(), b"
    assert step in path.read_text(encoding="utf-8")
    path.write_text(path.read_text(encoding="utf-8").replace(step, f"return (1 + 2**-45) * ({step[7:-3]}), b"))
    assert parity.main([str(tmp_path), *ARGS, "--workload", "factor_small"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1].endswith("with differences") and not out[-1].endswith(" 0 with differences")
    assert any(line.startswith("changed: cli_docs/1/") for line in out)
    reported = [line for line in out if line.startswith(("changed:", "largest relative change:"))]
    assert any("iwasawa.decompose_g_admissible" in line for line in reported)
