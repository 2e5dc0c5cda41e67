"""Each checker accepts the program's real output and rejects a perturbed one."""

import contextlib
import io
import json
import re

import pytest

import checks
import workloads
from isomin.cli import main


def run_job(job, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(job["argv"])
    assert rc == job["rc"]
    files = {name: (tmp_path / name).read_bytes() for name in job["outputs"]}
    out = buf.getvalue().encode()
    checks.check(job, out, files)
    return out, files


def rejects(job, out, files):
    with pytest.raises(checks.CheckError):
        checks.check(job, out, files)


def bump_digit(text: str, nth: int = 0) -> str:
    """Change the 5th decimal of the nth long number in text."""
    m = list(re.finditer(r"\d\.(\d{7,})", text))[nth]
    k = m.start(1) + 4
    digit = str((int(text[k]) + 3) % 10)
    return text[:k] + digit + text[k + 1:]


def job_named(workload, name, seed=4):
    return next(j for j in workloads.build(workload, seed) if j["name"] == name)


@pytest.mark.parametrize("fmt", ["obj", "csv", "json"])
def test_gen_one_digit(fmt, tmp_path, monkeypatch):
    src = job_named("mesh", "gen_trig_128_json")
    job = workloads._gen("small", src["check"]["F"], src["check"]["G"], (9, 7), fmt,
                         theta=0.7, base=0.25 - 0.5j)
    out, files = run_job(job, tmp_path, monkeypatch)
    rejects(job, bump_digit(out.decode(), 9).encode(), files)


def test_analyze_flipped_verdict_and_counts(tmp_path, monkeypatch):
    job = job_named("inspect", "analyze_graph_cubic_csv")
    job["argv"][job["argv"].index("--grid") + 1] = "9,9"
    job["check"]["grid"] = (9, 9)
    out, files = run_job(job, tmp_path, monkeypatch)
    doc = json.loads(out)
    flipped = dict(doc, verdict="d-minimal" if doc["verdict"] != "d-minimal"
                   else "not d-minimal")
    rejects(job, json.dumps(flipped).encode(), files)
    counts = dict(doc["class_counts"])
    key = next(iter(counts))
    counts[key] += 1
    rejects(job, json.dumps(dict(doc, class_counts=counts)).encode(), files)
    rejects(job, json.dumps(dict(doc, k_min=doc["k_min"] + 1e-4)).encode(), files)
    bad_csv = {"forms.csv": bump_digit(files["forms.csv"].decode(), 40).encode()}
    rejects(job, out, bad_csv)


def test_singular_wrong_multiplicity(tmp_path, monkeypatch):
    job = job_named("inspect", "singular_shared")
    out, files = run_job(job, tmp_path, monkeypatch)
    doc = json.loads(out)
    doc["points"][0]["multiplicity"] += 1
    rejects(job, json.dumps(doc).encode(), files)
    doc = json.loads(out)
    doc["points"][1]["w"][0] += 1e-6
    rejects(job, json.dumps(doc).encode(), files)


def test_reconstruct_one_digit(tmp_path, monkeypatch):
    job = job_named("inspect", "reconstruct_hessian")
    out, files = run_job(job, tmp_path, monkeypatch)
    name = job["outputs"][0]
    text = files[name].decode()
    rejects(job, out, {name: bump_digit(text, 3 * 200 + 2).encode()})


def test_reconstruct_forms_csv_one_digit(tmp_path, monkeypatch):
    run_job(job_named("inspect", "analyze_graph_cubic_csv"), tmp_path, monkeypatch)
    job = job_named("inspect", "reconstruct_forms_csv")
    out, files = run_job(job, tmp_path, monkeypatch)
    name = job["outputs"][0]
    lines = files[name].decode().splitlines()
    # the largest |F|, so that a change in its 5th decimal is at least 3e-5
    k = max(range(1, len(lines)), key=lambda i: abs(float(lines[i].split(",")[2])))
    lines[k] = bump_digit(lines[k], 2)
    rejects(job, out, {name: "\n".join(lines).encode()})


def test_embed_flipped_verdict(tmp_path, monkeypatch):
    job = job_named("inspect", "embed_chart_null_lift")
    out, files = run_job(job, tmp_path, monkeypatch)
    doc = json.loads(out)
    doc["verdict"] = "fail" if doc["verdict"] == "pass" else "pass"
    rejects(job, json.dumps(doc).encode(), files)


def test_embed_locus_checked(tmp_path, monkeypatch):
    job = workloads._job("cubic", ["embed", "--catalog", "cubic_harmonic", "--grid", "3,3"],
                         {"kind": "embed", "catalog": "cubic_harmonic", "grid": (3, 3)})
    out, files = run_job(job, tmp_path, monkeypatch)
    doc = json.loads(out)
    assert doc["e_locus"][0]["isolated"] is True
    doc["e_locus"][0]["isolated"] = False
    rejects(job, json.dumps(doc).encode(), files)
    doc = json.loads(out)
    del doc["e_locus"]
    rejects(job, json.dumps(doc).encode(), files)
