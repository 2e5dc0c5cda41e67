import contextlib
import io
import sys

import pytest

import tracing


def isomin_namespace():
    return {(name, attr): id(obj)
            for name, mod in sorted(sys.modules.items())
            if name == "isomin" or name.startswith("isomin.")
            for attr, obj in vars(mod).items()}


def test_uninstall_restores_every_name():
    import isomin.cli  # noqa: F401  (loads every module the tracer touches)
    before = isomin_namespace()
    tracer = tracing.Tracer()
    tracer.install()
    during = isomin_namespace()
    assert during.keys() == before.keys()
    changed = {k for k in before if before[k] != during[k]}
    assert ("isomin.quadrature", "integrate_segment") in changed
    assert ("isomin.weierstrass", "integrate_segment") in changed
    assert ("isomin.cli", "grid_eval") in changed
    assert ("isomin", "fundamental_forms") in changed
    assert ("isomin.geometry", "deg_inner") not in changed
    tracer.uninstall()
    assert isomin_namespace() == before


def test_traced_job_counts_and_output(tmp_path):
    from isomin.cli import main
    argv = ["gen", "--F", "exp(z)", "--G", "z", "--grid", "5,4", "--format", "csv"]
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert main(argv) == 0
    tracer = tracing.Tracer()
    tracer.install()
    traced = io.StringIO()
    try:
        with contextlib.redirect_stdout(traced):
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    assert traced.getvalue() == plain.getvalue()
    spans = tmp_path / "gen.spans.tsv"
    tracer.write_spans(str(spans), "gen.pass1")
    rows = [line.split("\t") for line in spans.read_text().splitlines()]
    assert rows[0][:2] == ["job", "id"]
    assert len(rows) == len(tracer.spans) + 1
    assert {r[0] for r in rows[1:]} == {"gen.pass1"}
    m = tracing.layer_metrics(tracer.summary(0.0, 1.0), 0)
    assert m["weierstrass.vertices"] == 20
    # 4 rows: one segment from the base plus 4 steps along the row, for F and G
    assert m["quadrature.segments"] == 4 * 5 * 2
    assert m["quadrature.integrand_evals"] == m["expr.evals"]
    assert m["quadrature.panels_per_quad"] >= 3.0
    assert m["weierstrass.grid_eval_s"] > 0.0


def span(name, a, b, parent):
    return (name, a, b, parent, "")


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),     # children cover [1, 4] and [3, 6] -> 5
        span("a", 1.0, 4.0, 0),          # child covers [2, 3] -> self 2
        span("leaf", 2.0, 3.0, 1),
        span("b", 3.0, 6.0, 0),          # overlaps a: union, not sum
        span("other", 12.0, 13.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0, 1.0])
    s = tracing.summarize(spans, dict.fromkeys(tracing.COUNTERS, 0), 20.0)
    assert s["lib_s"] == pytest.approx(11.0)
    assert s["fn"]["root"]["self_s"] == pytest.approx(5.0)


def test_recursion_counts_outermost_call_once():
    spans = [span("expr.differentiate", 0.0, 4.0, -1),
             span("expr.differentiate", 1.0, 2.0, 0),
             span("expr.differentiate", 5.0, 6.0, -1)]
    s = tracing.summarize(spans, dict.fromkeys(tracing.COUNTERS, 0), 6.0)
    rec = s["fn"]["expr.differentiate"]
    assert (rec["calls"], rec["outer_calls"]) == (3, 2)
    assert rec["incl_s"] == pytest.approx(5.0)
    assert tracing.layer_metrics(s, 0)["expr.differentiate_calls"] == 2
