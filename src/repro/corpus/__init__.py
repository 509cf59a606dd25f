"""Trace corpus: ingested real link traces and seeded synthetic workloads.

The corpus is the workload base for trace-driven scenarios: a
content-addressed on-disk store (:class:`CorpusStore`) of
:class:`LinkTrace` artifacts, filled either by ingesting mahimahi-style or
``(time, rate)`` sample files, or by materializing one of the registered
generator families (:data:`GENERATOR_FAMILIES`).  Scenarios reference
entries by name; the result cache folds the entry's content digest into
the point key, so re-ingesting different data under an unchanged name
invalidates cached points.

Manage a corpus from the command line via ``python -m repro.corpus``.
"""

from repro.corpus.generators import (
    GENERATOR_FAMILIES,
    CorrelatedLossBurstLink,
    DiurnalLoadLink,
    FlashCrowdLink,
    MarkovOnOffLink,
    RandomWalkLink,
    build_generator,
)
from repro.corpus.ingest import (
    load_trace_path,
    parse_mahimahi_text,
    parse_samples_text,
)
from repro.corpus.store import CorpusStore, default_corpus_dir, open_corpus_store
from repro.corpus.trace import LinkTrace, trace_digest

__all__ = [
    "GENERATOR_FAMILIES",
    "CorpusStore",
    "CorrelatedLossBurstLink",
    "DiurnalLoadLink",
    "FlashCrowdLink",
    "LinkTrace",
    "MarkovOnOffLink",
    "RandomWalkLink",
    "build_generator",
    "default_corpus_dir",
    "load_trace_path",
    "open_corpus_store",
    "parse_mahimahi_text",
    "parse_samples_text",
    "trace_digest",
]
