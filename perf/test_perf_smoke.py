"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs ``perf/run.py --quick --reps 1`` — all four workloads at the small
frozen size, one untraced and one traced repetition each — and checks
that the instrument still prints what BENCHMARK.json promises.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(name):
    """A benchmark module by path (``trace`` is also a stdlib name)."""
    spec = importlib.util.spec_from_file_location(f"perf_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_prints_every_metric_and_accounts_for_traced_time():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    report_path = os.path.join(HERE, "out", "smoke-report.json")
    os.makedirs(os.path.dirname(report_path), exist_ok=True)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--reps", "1", "--out", report_path],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )
    output = done.stdout.decode()
    assert done.returncode == 0, output[-2000:] + done.stderr.decode()[-2000:]

    name_ok = re.compile(r"^[A-Za-z0-9_.-]+$")
    sections = output.split("\n== ")
    for workload in spec["workloads"]:
        assert name_ok.match(workload["name"])
        (section,) = [s for s in sections if s.startswith(f"{workload['name']}: end to end")]
        printed = {
            parts[0]: parts[2]
            for parts in (line.split() for line in section.splitlines()[1:])
            if len(parts) >= 3
        }
        for metric in spec["end_to_end"]:
            assert name_ok.match(metric["name"])
            assert printed.get(metric["name"]) == metric["unit"], (workload["name"], metric["name"])
    for metric in spec["per_layer"]:
        assert name_ok.match(metric["name"])
        assert re.search(rf"^  {re.escape(metric['name'])} .* {re.escape(metric['unit'])}$", output, re.M), metric["name"]
    assert output.count("fail_share 0.000000 ratio") == len(spec["workloads"])
    assert "DIFFERENT" not in output  # the PYTHONHASHSEED 0-versus-1 check

    # every span file: self times + the unattributed share = the traced wall
    trace = _load("trace")
    with open(report_path) as handle:
        report = json.load(handle)
    for workload in spec["workloads"]:
        side = report["workloads"][workload["name"]]
        assert side["fail_share"] == 0
        rows = trace.load(os.path.join(HERE, "out", f"trace-{workload['name']}.jsonl"))
        assert rows, workload["name"]
        by_name, covered = trace.self_times(rows)
        assert abs(sum(seconds for _, seconds in by_name.values()) - covered) < 1e-6
        if workload["name"] == "serve_rw":
            covered = sum(r["end"] - r["start"] for r in rows if r["name"] == "engine.server.handle_line")
        wall = side["traced_wall_s"]
        share = side["per_layer"]["runtime.unattributed_share"]
        assert 0.0 <= share < 1.0
        assert abs(covered + share * wall - wall) < 1e-6 * max(1.0, wall), workload["name"]
