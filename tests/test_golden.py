"""Byte-identity goldens for the CLI.

Each case runs one command in-process and hashes its exit code, its
stdout and its output file.  The digests were recorded from the program
as it stood before the evaluator, stencil, classifier and clustering
paths were merged, so a refactor that changes any printed digit fails
here.  A digest that has to change needs a stated reason in CHANGES.md;
never re-record one silently.
"""

import hashlib

import pytest

from isomin.cli import main

GEN = ["gen", "--F", "exp(z)", "--G", "z^2", "--theta", "0.7",
       "--base", "0.1,-0.2", "--grid", "12,10"]

# (argv, writes --out); the output path is appended when it does
CASES = {
    "gen-obj": (GEN + ["--format", "obj"], True),
    "gen-csv": (GEN + ["--format", "csv"], True),
    "gen-json": (GEN + ["--format", "json"], True),
    # 72 x 64 = 4,608 vertices, above weierstrass._SPLIT_MIN, so on a
    # machine with two or more usable CPUs grid_eval splits the rows
    # across forked processes; recorded from the serial loop
    "gen-split-obj": (["gen", "--F", "exp(z)", "--G", "z^2", "--theta", "0.7",
                       "--base", "0.1,-0.2", "--grid", "72,64",
                       "--format", "obj"], True),
    # 80 x 64 = 5,120 vertices, at least weierstrass._BATCH_MIN: the
    # large-grid path of grid_eval.  Recorded from numpy's batched rows,
    # re-recorded when F and G with a primitive took the closed form
    # rot * (P(w) - P(base)) there: 210 of 45,222 numeric tokens moved,
    # by <= 1.0e-12 absolute and 6.7e-12 relative (a z of order 1e-5);
    # against 40-digit mpmath every closed-form token is within 1.4 units
    # of its 13th significant digit, the batched rows' within 16
    # (tools/golden_diff.py)
    "gen-large-obj": (["gen", "--F", "exp(z)", "--G", "z^2", "--theta", "0.7",
                       "--base", "0.1,-0.2", "--grid", "80,64",
                       "--format", "obj"], True),
    # the same grid with an F that expr.primitive does not integrate
    # (exp of a non-affine argument), so it stays on the batched rows
    "gen-large-nonelementary-obj": (["gen", "--F", "exp(z^2)", "--G", "z",
                                     "--theta", "0.7", "--base", "0.1,-0.2",
                                     "--grid", "80,64", "--format", "obj"],
                                    True),
    # re-recorded when expression graphs got exact jets in place of the
    # 17-point stencil: g11/g22 moved by <= 3e-13, h, H and K by
    # <= 3.2e-7, max_abs_mean_curvature 4.2e-8 -> 0, codazzi_residual_max
    # 5.0e-6 -> 3.8e-14; classes and verdict unchanged
    # (tools/golden_diff.py).  Re-recorded when codazzi_residual_max
    # became exact for flat sources: 3.789561257387e-14 -> 0.0, the only
    # token that moved
    "analyze-graph-csv": (["analyze", "--graph", "u^3-3*u*v^2+u*v",
                           "--grid", "9,7", "--format", "csv"], True),
    # re-recorded when the closed forms became the real part of one
    # holomorphic Phi = G' - G F'/F and codazzi_residual_max exact for
    # Weierstrass data: 2.976870908611e-05 -> 0.0 (summary and payload)
    # and four h12 zeros on the real axis 0.0 -> -0.0; no other token
    # moved (tools/golden_diff.py)
    "analyze-weierstrass-zero-json": (["analyze", "--F", "z", "--G", "z^2+1",
                                       "--grid", "9,9", "--format", "json"],
                                      True),
    # re-recorded when every sweep took its nodes from one np.linspace
    # lattice: four of the 14 inset nodes moved by <= 1 ulp (the centre u
    # node -4.4e-16 -> 0), the FD forms there by <= 3.2e-9 (h22), k_max
    # -0.0273060934067 -> -0.02730609341242; classes and verdict
    # unchanged (tools/golden_diff.py).  Re-recorded again when the
    # catalog became expression trees with exact jets: g, h, H and K moved
    # by <= 4.1e-9 (k_min), g12 from FD noise (1e-12) to rounding and
    # max_abs_mean_curvature 2.9e-9 -> 8.8e-17; classes and verdict
    # unchanged
    "analyze-catalog-helicoid2": (["analyze", "--catalog", "helicoid2",
                                   "--grid", "7,7", "--format", "csv"], True),
    "singular": (["singular", "--F", "z^2*(z-0.5)", "--G", "z",
                  "--grid", "24,24"], False),
    "reconstruct-expr": (["reconstruct", "--h11", "6*u", "--h12", "-6*v",
                          "--h22", "-6*u", "--grid", "9,9"], True),
    "reconstruct-forms-csv": (["reconstruct", "--forms-csv", "{forms}"], True),
    # the Hessian of (u+2)*log(u+2): 1/(u+2) has no polynomial or
    # exp/sin/cos/sinh/cosh primitive, so this case pins the quadrature
    # path of the expression heights
    "reconstruct-expr-log": (["reconstruct", "--h11", "1/(u+2)", "--h12", "0",
                              "--h22", "0", "--grid", "9,9"], True),
    # the three embed cases below were re-recorded when lifts and charts
    # read exact jets: only max_mean_curvature moved (0.4559999999706 ->
    # 0.456, 3.05e-8 -> 0.0 and 0.3244037053566 -> 0.3244037023852);
    # verdicts and e_locus unchanged (tools/golden_diff.py)
    "embed-graph-two-clusters": (["embed", "--graph",
                                  "0.1*u^4-0.05*u^2+0.02*v^2",
                                  "--grid", "3,3"], False),
    "embed-catalog": (["embed", "--catalog", "cubic_harmonic",
                       "--grid", "3,3"], False),
    "embed-chart": (["embed", "--x1", "0", "--x2", "u", "--x3", "v",
                     "--x4", "u^2-v^2", "--grid", "3,3"], False),
    # recorded while e_locus still came from finite differences of the
    # path-integrated patch; every one of the 65^2 locus nodes has
    # | |h|_inf - 0.05 | > 1e-2, and one two-node cluster is reported.
    # Re-recorded when max_abs_curvature moved from Brioschi over FD
    # metric samples (1.6e-07) to the Gauss equation (1.8e-32); no other
    # printed token changed (tools/golden_diff.py).  Re-recorded when the
    # stencil values were integrated from each sample instead of the base
    # point: max_mean_curvature 7.4e-08 -> 6.6e-12 and max_abs_curvature
    # 1.8e-32 -> 1.4e-32, both rounding; verdict and e_locus unchanged
    "embed-weierstrass-theta": (["embed", "--F", "1.2*exp(-0.5*z)",
                                 "--G", "(z+0.3-0.2*i)^2+0.02*i",
                                 "--theta", "0.7", "--grid", "3,3"], False),
    # names, flags, domains and notes of the catalog
    "list": (["list"], False),
    # |F| reaches e^15 on the domain, so a segment's value is far above
    # the absolute tolerance: recorded while the quadrature had no
    # round-off stop, when this refused with exit 3 and printed nothing;
    # re-recorded with the stop at 50 epsilons of a level's value, when
    # it exits 0 with the 16 vertices (tools/golden_diff.py)
    "gen-large-modulus": (["gen", "--F", "exp(15*z)", "--G", "1",
                           "--grid", "4,4"], False),
}

GOLDEN = {
    "gen-obj":
        "fb7bf1dab9bcd357b3516b4863db5d54477b524fa0ed2b86c6a17b06396bd398",
    "gen-csv":
        "367888dee1aedf39873c05a4403345a7dfb10836dbdbf89216b4ee4ee091e97c",
    "gen-json":
        "28bd8d5f73040dc720b0d1723a0a4d04f1a36a281d71fc93298972484595494c",
    "gen-split-obj":
        "07bfe2600fc10ce20ba5106babce579692ca3f975b9485045078d29e62e3b2ee",
    "gen-large-obj":
        "a75501c765996f82f89edc0f49cad2a6ff1be3d88cb536cd4e7537961fd93d2a",
    "gen-large-nonelementary-obj":
        "1c46ca42dcd35d6c6c002716d2f357fc0dbf1de0610dc99554a724a69514cf30",
    "analyze-graph-csv":
        "0c1c3a7c77acd6b6ad5f2f13d1ddd0ad29388d22692e69fbaa48bdf7c19e1180",
    "analyze-weierstrass-zero-json":
        "7ac215c6c4aae011749ab6477931ab1101652ab4341d22098d50292e30baef1a",
    "analyze-catalog-helicoid2":
        "b3be3ac976b4afd9cf5a1715125f3080f027da6e035822bcada4ee6d06f83ee0",
    "singular":
        "223a065c516a035fd9937592a40f7eecf690a47152ea3c7a592d7be1f51c97d5",
    "reconstruct-expr":
        "80348e383108d475626b1fc716af1820acbcec607cadee56edde7010bc13f326",
    "reconstruct-forms-csv":
        "8fe73fb3d121c4aa5eb47d837d722ee226fd794fb19c13d084388e897f0abb3b",
    "reconstruct-expr-log":
        "c35190f9f567dc67ebde06d81be0409f9b141f1da089c7588441b0b11024f30d",
    "embed-graph-two-clusters":
        "902b4f96fd9880afb4e96464a64c40ae785c3601e24dd6ddd955bd3503239570",
    "embed-catalog":
        "619a72f964f8f2fccaf7074eb9c1fe813091d74dad20e995b66d9e747f8601f6",
    "embed-chart":
        "5fb7c4ed9f6065a5cb3798be2241fa20829edf47b4d956ce3b3365c630617569",
    "embed-weierstrass-theta":
        "78ba6122fd720e39e8c0e27e5ebad309cd5aaae311aeb1876aee4c90947b4c9c",
    "list":
        "783d79e03b55633d91c93e6ea427a87bcfb3a37d5517132fdc29a4ed1cbbf20c",
    "gen-large-modulus":
        "bc8726aee0fb9f6faca046e914644c62ed3d16efc91ebc940994e679a80d173f",
}


def _write_forms_csv(path):
    # Hessian of p = u^3 + u*v^2 - v^3 on a 9x9 lattice of exact binary
    # fractions, rows in reverse order
    rows = []
    for i in range(9):
        for j in range(9):
            u, v = -1.0 + 0.25 * i, -1.0 + 0.25 * j
            h = (6.0 * u, 2.0 * v, 2.0 * u - 6.0 * v)
            rows.append(",".join(format(x, ".12e") for x in (u, v) + h))
    path.write_text("u,v,h11,h12,h22\n" + "\n".join(reversed(rows)) + "\n")


def case_argv(name, tmp_path):
    """(argv, output path or None) of one case, files under tmp_path."""
    argv, writes = CASES[name]
    forms = tmp_path / "forms.csv"
    _write_forms_csv(forms)
    argv = [a.replace("{forms}", str(forms)) for a in argv]
    if not writes:
        return argv, None
    out = tmp_path / f"{name}.out"
    return argv + ["--out", str(out)], out


def case_digest(name, capsys, tmp_path):
    argv, out = case_argv(name, tmp_path)
    capsys.readouterr()
    rc = main(argv)
    digest = hashlib.sha256(f"rc={rc}\n".encode())
    digest.update(capsys.readouterr().out.encode())
    if out is not None:
        digest.update(b"\0" + out.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_pinned(name, capsys, tmp_path):
    assert case_digest(name, capsys, tmp_path) == GOLDEN[name]
