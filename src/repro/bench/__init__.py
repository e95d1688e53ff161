"""Benchmark harness utilities shared by the ``benchmarks/`` suite."""

from repro import _facade

__getattr__, __dir__, __all__ = _facade(
    __name__,
    {
        "harness": ("Measurement", "Series", "render_table", "bench_scale"),
    },
)
