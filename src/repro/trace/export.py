"""Trace exporters: JSONL rows and Chrome ``trace_event`` JSON.

Two interchange formats:

* **JSONL** — one :meth:`~repro.trace.spans.Span.to_dict` row per line;
  trivially greppable / pandas-loadable, and round-trips through
  :func:`read_jsonl` for offline analysis.
* **Chrome trace_event** — the ``{"traceEvents": [...]}`` JSON object
  consumed by ``chrome://tracing`` and https://ui.perfetto.dev.  Spans
  become complete (``"ph": "X"``) events with microsecond ``ts``/``dur``;
  devices map to ``pid`` rows and hops to ``tid`` tracks, with ``M``
  metadata events naming them.  :func:`validate_chrome_trace` enforces
  the schema the viewers require (and the acceptance tests assert).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.trace.spans import SPAN_KINDS, Span

#: seconds -> trace_event microseconds
_US = 1e6

#: keys every non-metadata trace event must carry (Perfetto's contract)
REQUIRED_EVENT_KEYS = ("ph", "ts", "dur", "pid", "tid", "name")


# -- JSONL ----------------------------------------------------------------
def to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in the order given."""
    return "".join(json.dumps(span.to_dict(), sort_keys=True) + "\n"
                   for span in spans)


def write_jsonl(spans: Iterable[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(spans))


def read_jsonl(path) -> List[Span]:
    """Load spans written by :func:`write_jsonl`."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# -- Chrome trace_event ----------------------------------------------------
def _lanes(spans: List[Span]):
    """Stable (device -> pid, (device, hop) -> tid) integer mappings."""
    devices = sorted({span.device_id or "?" for span in spans})
    pids = {device: index + 1 for index, device in enumerate(devices)}
    tids: Dict[tuple, int] = {}
    for device in devices:
        hops = sorted({span.hop or span.kind for span in spans
                       if (span.device_id or "?") == device})
        for index, hop in enumerate(hops):
            tids[(device, hop)] = index + 1
    return pids, tids


def to_chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """Spans as a ``chrome://tracing`` / Perfetto JSON object."""
    spans = list(spans)
    pids, tids = _lanes(spans)
    events: List[Dict[str, Any]] = []
    for device, pid in pids.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": "device %s" % device}})
    for (device, hop), tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": pids[device],
                       "tid": tid, "args": {"name": hop}})
    for span in spans:
        device = span.device_id or "?"
        hop = span.hop or span.kind
        events.append({
            "ph": "X",
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "pid": pids[device],
            "tid": tids[(device, hop)],
            "name": span.kind,
            "cat": "swing",
            "args": {"seq": span.seq, "hop": span.hop,
                     "detail": span.detail},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(spans), handle)


def validate_chrome_trace(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Check the trace_event schema; returns the duration events.

    Raises :class:`SerializationError` on any violation: missing
    required keys, negative or non-finite timestamps/durations, or an
    unknown span kind.  Tests (and the CI smoke step) call this on the
    written artifact so a malformed trace never ships silently.
    """
    # not at module load: ``repro.core`` imports this package
    from repro.core.exceptions import SerializationError
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise SerializationError("not a trace_event object "
                                 "(missing 'traceEvents')")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise SerializationError("'traceEvents' must be a list")
    duration_events = []
    for event in events:
        if not isinstance(event, dict):
            raise SerializationError("trace event is not an object: %r"
                                     % (event,))
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            raise SerializationError("unexpected event phase %r" % (phase,))
        missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            raise SerializationError("trace event missing keys %r" % missing)
        ts, dur = event["ts"], event["dur"]
        if not (isinstance(ts, (int, float)) and ts >= 0.0 and ts == ts):
            raise SerializationError("bad event timestamp %r" % (ts,))
        if not (isinstance(dur, (int, float)) and dur >= 0.0 and dur == dur):
            raise SerializationError("bad event duration %r" % (dur,))
        if event["name"] not in SPAN_KINDS:
            raise SerializationError("unknown span kind %r" % event["name"])
        duration_events.append(event)
    return duration_events
