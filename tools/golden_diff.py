"""Show which printed numbers of the golden cases moved between two revisions.

Usage::

    python tools/golden_diff.py REV_A REV_B

Every case of ``tests/test_golden.py`` runs once against the ``src`` tree
of each git revision, exported with ``git archive`` into a temporary
directory.  The case list is the one in this checkout's
``tests/test_golden.py``, so both revisions run the same commands.  For
each case the script prints

* whether the exit codes and the non-numeric text agree (a case that
  argparse refuses on one revision shows as its exit code, 2);
* how many numeric tokens changed;
* the largest absolute and the largest relative change, with the JSON
  field, CSV column or text key it happened in.

The script is evidence for a reviewer when a digest has to be
re-recorded; the sha256 gate in ``tests/test_golden.py`` is unchanged by
it.  pytest does not collect this file.
"""

from __future__ import annotations

import io
import json
import math
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs every case in one process against the isomin found first on the path
_RUNNER = r"""
import contextlib, io, json, pathlib, sys, tempfile, traceback
src, tests, dest = sys.argv[1:4]
sys.path[:0] = [src, tests]
import test_golden as tg
from isomin.cli import main

results = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in sorted(tg.CASES):
        argv, out = tg.case_argv(name, pathlib.Path(tmp))
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        except SystemExit as exc:  # argparse refuses a flag with exit 2
            rc = exc.code
        except Exception:
            rc = "exception: " + traceback.format_exc().splitlines()[-1]
        text = out.read_text() if out is not None and out.exists() else ""
        results[name] = {"rc": rc, "stdout": buf.getvalue(), "file": text}
pathlib.Path(dest).write_text(json.dumps(results))
"""

_NUMBER = re.compile(r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|NaN|-?Infinity|nan|-?inf)(?![\w.])")
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_KEY = re.compile(r"(\w+)\s*[=:]")


def _json_paths(node, path=""):
    """Paths of the numeric leaves of a parsed JSON value, in text order."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _json_paths(val, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for k, val in enumerate(node):
            yield from _json_paths(val, f"{path}[{k}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _tokens(text: str):
    """(skeleton, numbers, fields): the text with every number replaced by
    '#', the numbers, and the field each number belongs to."""
    try:
        paths = list(_json_paths(json.loads(text)))
    except ValueError:
        paths = None
    strings = [m.span() for m in _STRING.finditer(text)] if paths else []
    header = text.split("\n", 1)[0].split(",")
    is_csv = len(header) > 1 and all(re.fullmatch(r"\w+", h) for h in header)
    matches = [m for m in _NUMBER.finditer(text)
               if not any(a <= m.start() < b for a, b in strings)]
    if paths is not None and len(paths) != len(matches):
        paths = None

    fields, pieces, last = [], [], 0
    for k, m in enumerate(matches):
        pieces.append(text[last:m.start()] + "#")
        last = m.end()
        line_no = text.count("\n", 0, m.start()) + 1
        line_start = text.rfind("\n", 0, m.start()) + 1
        before = text[line_start:m.start()]
        if paths is not None:
            fields.append(paths[k])
        elif is_csv:
            column = header[before.count(",")]
            fields.append(f"column {column} (line {line_no})")
        else:
            keys = _KEY.findall(before)
            if keys:
                fields.append(f"{keys[-1]} (line {line_no})")
            else:
                words = before.split()
                label = words[0] if words else ""
                fields.append(f"{label}[{len(words) - 1}] (line {line_no})")
    pieces.append(text[last:])
    numbers = [float(m.group().replace("Infinity", "inf")) for m in matches]
    return "".join(pieces), numbers, fields


def _compare_stream(name: str, a: str, b: str):
    """(text equal, changed count, token count, worst abs, worst rel)."""
    skel_a, nums_a, fields = _tokens(a)
    skel_b, nums_b, _ = _tokens(b)
    if skel_a != skel_b or len(nums_a) != len(nums_b):
        return False, None, len(nums_b), None, None
    changed = 0
    worst_abs = (0.0, None)
    worst_rel = (0.0, None)
    for x, y, field in zip(nums_a, nums_b, fields):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        changed += 1
        where = f"{name}:{field}"
        diff = abs(y - x)
        rel = diff / abs(x) if x else math.inf
        if not diff <= worst_abs[0]:
            worst_abs = (diff, where)
        if not rel <= worst_rel[0]:
            worst_rel = (rel, where)
    return True, changed, len(nums_b), worst_abs, worst_rel


def compare_case(ra: dict, rb: dict) -> str:
    parts = [f"exit code {'equal' if ra['rc'] == rb['rc'] else 'differs'} "
             f"({ra['rc']} / {rb['rc']})"]
    differs = []
    changed = total = 0
    worst_abs, worst_rel = (0.0, None), (0.0, None)
    for stream in ("stdout", "file"):
        same, n, count, w_abs, w_rel = _compare_stream(
            stream, ra[stream], rb[stream])
        total += count
        if not same:
            differs.append(stream)
            continue
        changed += n
        if w_abs[1] and not w_abs[0] <= worst_abs[0]:
            worst_abs = w_abs
        if w_rel[1] and not w_rel[0] <= worst_rel[0]:
            worst_rel = w_rel
    if differs:
        parts.append(f"non-numeric text differs in {' and '.join(differs)}, "
                     "numbers not aligned")
        return "; ".join(parts)
    parts.append("non-numeric text equal")
    parts.append(f"{changed} of {total} numeric tokens changed")
    if changed:
        parts.append(f"max abs {worst_abs[0]:.3e} at {worst_abs[1]}")
        parts.append(f"max rel {worst_rel[0]:.3e} at {worst_rel[1]}")
    return "; ".join(parts)


def run_revision(rev: str, workdir: Path) -> dict:
    """Export rev's src tree into workdir and run every golden case on it."""
    workdir.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(workdir, filter="data")
    dest = workdir / "results.json"
    subprocess.run([sys.executable, "-c", _RUNNER, str(workdir / "src"),
                    str(ROOT / "tests"), str(dest)], check=True)
    return json.loads(dest.read_text())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        res_a, res_b = (run_revision(rev, Path(tmp) / f"rev{k}")
                        for k, rev in enumerate(argv))
    print(f"golden cases, {argv[0]} -> {argv[1]}")
    for name in sorted(res_a):
        print(f"{name}: {compare_case(res_a[name], res_b[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
