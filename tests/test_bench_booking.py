"""Every per-layer metric that perfbench books from spans gets a value.

perfbench books its per-layer metrics from the calls it wraps by name
(``spans.SPAN_TARGETS`` and ``spans.LEAF_TARGETS``).  A change to ``src/``
that stops calling a wrapped function leaves that metric with no value,
and the traced benchmark run exits 2 with ``no value for per-layer
metrics``.  perfbench's own ``test_every_per_layer_metric_is_emitted`` would
catch it, but it runs full benchmark subprocesses outside tier-1 and
already fails on a stale expected value, so a metric that goes dark would
hide behind a known failure.

This test runs the benchmark's recorded probe jobs (``reference["probes"]``,
small jobs that between them reach every layer) under its instrumentation,
each inside a ``cli.main`` root span as the traced run does, and checks that
no job fails and that ``spans.span_metrics`` gives every metric a value.  It
reads perfbench and edits nothing in it.  A benchmark change that rebooks
metrics where the work runs (ROADMAP items 3 and 15) owns this test, and
updates it with the bookings.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from triclock import cli  # noqa: E402


def test_every_span_metric_has_a_value_on_the_probe_jobs(tmp_path, monkeypatch):
    monkeypatch.setenv("TRICLOCK_OUTDIR", str(tmp_path))
    reference = jobs.load_reference()
    probes = [jobs.make_job(90000 + i, probe["pool"], i, probe["params"], probe["fmt"], True)
              for i, probe in enumerate(reference["probes"])]
    rec = spans.Recorder()
    inst = spans.Instrumentation(rec)

    def traced_main(argv):
        inst.install()
        root = rec.open("cli.main")
        try:
            return cli.main(argv)
        finally:
            rec.close(root)
            inst.uninstall()

    records = []
    for job in probes:
        rec.job = job.index
        records.append(run.run_job(traced_main, job, reference, tmp_path))
    assert {r["index"]: r["error"] for r in records} == {job.index: None for job in probes}
    metrics = spans.span_metrics(rec.spans, {r["index"]: r for r in records})
    assert sorted(name for name, value in metrics.items() if value is None) == []
