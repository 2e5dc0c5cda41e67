"""The stream comparison of tools/golden_diff.py, which reports which
printed numbers moved between two revisions."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"
_SPEC = importlib.util.spec_from_file_location("golden_diff", _PATH)
golden_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_diff)


def case(stdout: str, file: str = "") -> dict:
    return {"rc": 0, "stdout": stdout, "file": file}


def test_equal_streams_change_nothing():
    a = case('{"k": 1.5, "h12": 0.0}\n', "u,h12\n0.5,-0.0\n")
    assert golden_diff.compare_case(a, dict(a)) == (
        "exit code equal (0 / 0); non-numeric text equal; "
        "0 of 4 numeric tokens changed")


def test_a_signed_zero_flip_is_a_change():
    # 0.0 == -0.0, but the printed bytes differ
    a = case('{"k": 1.5, "h12": 0.0}\n', "u,h12\n0.5,0.0\n")
    b = case('{"k": 1.5, "h12": -0.0}\n', "u,h12\n0.5,-0.0\n")
    assert golden_diff.compare_case(a, b) == (
        "exit code equal (0 / 0); non-numeric text equal; "
        "2 of 4 numeric tokens changed; "
        "2 of them only in the sign of a zero")


def test_a_moved_value_names_its_field():
    a = case('{"k": 1.5, "h12": 0.0}\n', "u,h12\n0.5,2.0\n")
    b = case('{"k": 1.5, "h12": -0.0}\n', "u,h12\n0.5,2.5\n")
    assert golden_diff.compare_case(a, b) == (
        "exit code equal (0 / 0); non-numeric text equal; "
        "2 of 4 numeric tokens changed; "
        "1 of them only in the sign of a zero; "
        "max abs 5.000e-01 at file:column h12 (line 2); "
        "max rel 2.500e-01 at file:column h12 (line 2)")
