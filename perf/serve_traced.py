"""``python -m repro <command> ...`` with the span wrappers installed.

    python perf/serve_traced.py SPANS.jsonl serve P --facts F --journal J ...
    python perf/serve_traced.py SPANS.jsonl recover P J --facts F

Used for the traced repetition of ``serve_rw`` only: the wrappers of
:mod:`layers` go in before ``repro.cli.main`` runs, and the spans — preceded by one ``{"meta": ...}`` line holding the
session's own counters — are written when ``main`` returns or SIGTERM
arrives.
"""

from __future__ import annotations

import os
import signal
import sys


def main():
    out, argv = sys.argv[1], sys.argv[2:]

    import layers
    from trace import Recorder

    recorder = Recorder()
    layers.install(recorder, layers.SERVER_COUNTED)

    from repro.engine.incremental import IncrementalSession

    sessions = []
    original = IncrementalSession.__init__

    def remember(self, *args, **kwargs):
        sessions.append(self)
        original(self, *args, **kwargs)

    IncrementalSession.__init__ = remember

    def dump():
        meta = {"span_counts": recorder.counts}
        if sessions:
            stats = sessions[-1].stats
            meta.update(
                (name, getattr(stats, name))
                for name in (
                    "facts", "inferences", "probes", "iterations", "incr_rounds",
                    "rederived", "plans_compiled", "plan_cache_hits", "replans",
                )
            )
        recorder.dump(out, "serve_rw", 0, extra=[{"meta": meta}])

    def on_term(signum, frame):
        # like the untraced server, stop at once: every acknowledged
        # write is already fsync'd, and a clean shutdown would wait
        # seconds for the accept thread
        dump()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)

    from repro.cli import main as cli_main

    code = cli_main(argv)
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
