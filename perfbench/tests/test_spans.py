import time

import qdesign
from qdesign import designs as D
from qdesign import linear as L
from qdesign import suites as S
from qdesign import zoo as Z

from spans import Span, Tracer, layer_metrics, root_leftover, summarize


def test_install_reaches_rebound_names_and_uninstall_restores_them():
    originals = (L.codewords_of_weight, L.iter_codeword_blocks, L.dual,
                 S.SUITES["golay"])
    tracer = Tracer()
    tracer.install()
    try:
        assert D.codewords_of_weight is L.codewords_of_weight is not originals[0]
        assert D.iter_codeword_blocks is L.iter_codeword_blocks is not originals[1]
        assert Z.dual is L.dual is qdesign.dual is not originals[2]
        assert S.SUITES["golay"] is S.suite_golay is not originals[3]
    finally:
        tracer.uninstall()
    assert (L.codewords_of_weight, L.iter_codeword_blocks, L.dual,
            S.SUITES["golay"]) == originals
    assert D.codewords_of_weight is originals[0]


def test_traced_calls_record_spans_and_counts():
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        fam = D.family_from_code(Z.ternary_golay_code(), 5, method="enumerate")
        assert D.qary_design_index(fam, 3).lam == 1
    finally:
        t1 = time.perf_counter()
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"zoo.build", "designs.family_from_code", "linear.codewords_of_weight",
            "designs.qary_design_index"} <= names
    assert tracer.codewords == 3 ** 6
    m = layer_metrics(tracer.spans, tracer.codewords, t1 - t0)
    assert m["designs.qary_design_index.work"] == len(fam) * 165
    assert m["linear.codewords_of_weight.yield"] == len(fam) / 3 ** 6
    leftover = root_leftover(tracer.spans, t0, t1)
    roots = sum(s.seconds for s in tracer.spans if s.parent is None)
    assert abs(roots + leftover - (t1 - t0)) < 1e-9


def _span(name, parent, start, end):
    s = Span(name, parent)
    s.start, s.end = start, end
    return s


def test_nested_spans_of_one_name_count_once():
    spans = [_span("zoo.build", None, 0.0, 4.0),
             _span("linear.dual", 0, 1.0, 2.0),
             _span("zoo.build", 0, 2.0, 3.0)]
    agg = summarize(spans)
    assert agg["zoo.build"]["s"] == 4.0
    assert agg["zoo.build"]["self_s"] == 3.0  # outer 4 - 2 children, inner 1
    assert agg["linear.dual"]["s"] == 1.0
    assert root_leftover(spans, -1.0, 5.0) == 2.0


def test_overlapping_roots_are_rejected():
    spans = [_span("a", None, 0.0, 2.0), _span("b", None, 1.0, 3.0)]
    try:
        root_leftover(spans, 0.0, 3.0)
    except AssertionError:
        return
    raise AssertionError("overlap not detected")
