"""``tools/drift.py``'s comparison, fed synthetic records in-process: no tree is run."""
import importlib.util
import math
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "drift.py"
_SPEC = importlib.util.spec_from_file_location("drift", _PATH)
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)


def _record(argv, stdout, code=0):
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": "", "files": {}, "seconds": 0.01}


_DENSITY = ["density", "--class", "gamma", "--gamma", "1", "--n", "50", "--grid", "0:1:2"]
_EXPECT = ["expect", "--class", "gamma", "--gamma", "1", "--n", "50"]


def _density_csv(f: float) -> str:
    return f"x,f,log_M,S1,S2\n0,1,0,0,1\n1,{f:.17g},7.5,25,640.5\n"


def _expect_csv(evaluations: int) -> str:
    return f"n,value,abs_err,evaluations\n50,6.3025391457654467,3.1e-10,{evaluations}\n"


def _compare(capsys, old, new):
    moved = drift.compare(old, new)
    return moved, capsys.readouterr().out.splitlines()


def test_identical_records_move_nothing(capsys):
    runs = [_record(_DENSITY, _density_csv(3.25)), _record(_EXPECT, _expect_csv(345))]
    moved, lines = _compare(capsys, runs, [dict(run) for run in runs])
    assert moved == 0
    assert lines[-1].startswith("0 of 2 invocations moved")


def test_a_density_cell_one_ulp_apart_is_listed(capsys):
    f = 3.25
    old, new = [_record(_DENSITY, _density_csv(f))], [_record(_DENSITY, _density_csv(math.nextafter(f, 4.0)))]
    moved, lines = _compare(capsys, old, new)
    assert moved == 1
    assert lines[0] == f"randroot {' '.join(_DENSITY)}"
    assert "      CSV cells moved: f 1 (<= 1 ulps)" in lines


def test_an_evaluations_cell_is_listed_apart(capsys):
    moved, lines = _compare(capsys, [_record(_EXPECT, _expect_csv(345))], [_record(_EXPECT, _expect_csv(375))])
    assert moved == 1
    assert "      CSV cells moved: evaluations 1 (<= 30 apart)" in lines


def test_an_exit_code_change_is_listed(capsys):
    old, new = _record(_EXPECT, _expect_csv(345), code=0), _record(_EXPECT, _expect_csv(345), code=3)
    moved, lines = _compare(capsys, [old], [new])
    assert moved == 1
    assert lines[:2] == [f"randroot {' '.join(_EXPECT)}", "  exit code 0 -> 3"]
