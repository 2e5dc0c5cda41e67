import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_gives_the_same_argv_list(name):
    first = [j["argv"] for j in workloads.build(name, 7)]
    again = [j["argv"] for j in workloads.build(name, 7)]
    assert first == again
    assert first != [j["argv"] for j in workloads.build(name, 8)]


def test_argv_list_survives_a_fresh_interpreter():
    code = ("import sys, json; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(json.dumps([j['argv'] for j in workloads.build('inspect', 3)]))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == [j["argv"] for j in workloads.build("inspect", 3)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_schedule_does_not_depend_on_seed(name):
    def shape(seed):
        return [(j["name"], j["cmd"], j["rc"], tuple(j["outputs"]))
                for j in workloads.build(name, seed)]
    assert shape(1) == shape(2) == shape(99)


def test_mesh_keeps_the_large_modulus_probe():
    probe = workloads.build("mesh", 5)[-1]
    assert probe["argv"] == ["gen", "--F", "exp(15*z)", "--G", "1", "--grid", "4,4"]
    assert probe["rc"] == 0
