"""Spans recorded by the benchmark around calls into each layer.

The program under test is not instrumented: a span opens right before
the benchmark calls a layer's public function and closes right after.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class SpanRecorder:
    """Nested spans ``{name, start, end, parent, sample, fsyncs}``.

    ``parent`` is the index of the span that was open when this one
    started (``None`` for a root); ``sample`` is the identifier all
    spans of one benchmark sample share; ``fsyncs`` is how far
    ``counter`` (the benchmark's count of ``os.fsync`` calls) advanced
    between the span's two ends, so the count is taken at the same
    boundaries as the time.
    """

    def __init__(self, counter: Callable[[], int] = lambda: 0) -> None:
        self.spans: List[Dict] = []
        self.counter = counter
        self._open: List[int] = []
        self._sample: Optional[int] = None

    def begin_sample(self, sample: int) -> None:
        self._sample = sample

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "sample": self._sample, "fsyncs": self.counter()}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["fsyncs"] = self.counter() - record["fsyncs"]
            self._open.pop()

    # -- analysis -----------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Seconds of every closed span called ``name``, in order."""
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name and span["end"] is not None]

    def root_of(self, span: Dict) -> Dict:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span

    def self_times(self, replay: bool = False) -> Dict[str, float]:
        """Total self time per span name: a span's duration minus the
        part its direct children cover, so nothing is counted twice.
        Spans under the ``replay`` root are a separate account (they
        re-run what the sample spans already contain): ``replay``
        selects which of the two is summed."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span["end"] is None or \
                    (self.root_of(span)["name"] == "replay") != replay:
                continue
            own = span["end"] - span["start"] - covered[index]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "time.perf_counter seconds",
                       "spans": self.spans}, handle)
