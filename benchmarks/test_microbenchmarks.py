"""Microbenchmarks of the per-tuple hot paths.

The paper stresses that LRS routing is "fast low complexity ... it only
requires random number generation" per tuple (Sec. V-A) and that Swing's
overall overhead is small.  These benches time the per-tuple primitives
with pytest-benchmark's statistical machinery (many rounds, real
timings): policy routing, latency bookkeeping, serialization, the
reorder buffer and the two apps' per-frame compute.
"""

import numpy as np
import pytest

from repro.apps.face.detect import FaceDetector
from repro.apps.face.images import FaceGenerator, FrameSynthesizer
from repro.apps.face.recognize import EigenfaceRecognizer
from repro.apps.translate.asr import SpeechRecognizer
from repro.apps.translate.audio import synthesize_utterance
from repro.apps.translate.translator import Translator
from repro.core.latency import AckTracker
from repro.core.policies import make_policy
from repro.core.reorder import ReorderBuffer
from repro.core.tuples import DataTuple
from repro.runtime.serialization import (decode_tuple, encode_tuple,
                                         encode_value)


@pytest.fixture
def lrs_policy():
    policy = make_policy("LRS", seed=0)
    from repro.core.latency import DownstreamStats
    stats = {}
    for index in range(8):
        downstream = "w%d" % index
        policy.on_downstream_added(downstream)
        stats[downstream] = DownstreamStats(downstream_id=downstream,
                                            latency=0.05 + 0.02 * index)
    policy.update(stats, input_rate=24.0)
    return policy


def test_bench_lrs_route_per_tuple(benchmark, lrs_policy):
    """Per-tuple routing decision: must be microseconds."""
    benchmark(lrs_policy.route)


def test_bench_policy_update_round(benchmark, lrs_policy):
    from repro.core.latency import DownstreamStats
    stats = {d: DownstreamStats(downstream_id=d, latency=0.1)
             for d in lrs_policy.downstream_ids()}
    benchmark(lrs_policy.update, stats, 24.0)


def test_bench_ack_tracker_send_ack(benchmark):
    tracker = AckTracker()
    tracker.add_downstream("B")
    state = {"seq": 0}

    def send_and_ack():
        seq = state["seq"]
        state["seq"] += 1
        tracker.record_send(seq, "B", float(seq))
        tracker.record_ack(seq, float(seq) + 0.1)

    benchmark(send_and_ack)


def test_bench_tuple_serialization_roundtrip(benchmark):
    frame = np.zeros(6000, dtype=np.uint8).tobytes()
    data = DataTuple(values={"frame": frame, "id": 7}, seq=0)

    def roundtrip():
        return decode_tuple(encode_tuple(data))

    result = benchmark(roundtrip)
    assert result.get_value("id") == 7


def test_bench_encode_numpy_frame(benchmark):
    array = np.zeros((112, 200), dtype=np.float32)
    benchmark(encode_value, array)


def test_bench_reorder_buffer_offer(benchmark):
    buffer = ReorderBuffer(capacity=24)
    state = {"seq": 0}

    def offer_next():
        seq = state["seq"]
        state["seq"] += 1
        buffer.offer(seq, float(seq))

    benchmark(offer_next)


def test_bench_face_detection_per_frame(benchmark):
    generator = FaceGenerator(4, seed=0)
    synth = FrameSynthesizer(generator, seed=0)
    detector = FaceDetector(generator)
    frame, _ = synth.frame()
    detections = benchmark(detector.detect, frame)
    assert detections


def test_bench_face_recognition_per_probe(benchmark):
    generator = FaceGenerator(4, seed=0)
    recognizer = EigenfaceRecognizer(num_components=16)
    patches, labels = generator.gallery(samples_per_identity=4)
    recognizer.train(patches, labels)
    probe = generator.render(generator.identities[0], jitter=0.3)
    name = benchmark(recognizer.recognize, probe)
    assert name is not None


def test_bench_speech_recognition_per_utterance(benchmark):
    recognizer = SpeechRecognizer(Translator().vocabulary())
    waveform = synthesize_utterance(["the", "red", "car", "runs"], seed=0)
    words = benchmark(recognizer.recognize, waveform)
    assert words == ["the", "red", "car", "runs"]


def test_bench_translation_per_sentence(benchmark):
    translator = Translator()
    text = benchmark(translator.translate, "the red car runs now")
    assert text == "el coche rojo corre ahora"


def test_tracing_overhead_report():
    """Per-tuple cost of the trace plumbing at increasing sample rates.

    Times the full per-tuple upstream path (sampling decision, encode
    with its guarded serialize span, LRS dispatch, ACK fold-in) against
    the NULL_TRACER baseline and writes the report the acceptance
    criteria read: at the recommended 1% sampling the added cost must be
    in the noise (<5% in the report; the assertion keeps a flake
    margin).  Each config gets its own closure so the tracer call sites
    are monomorphic, exactly like a real dispatcher that holds one
    tracer for its whole life — a shared loop would thrash CPython's
    adaptive specialization across tracer types and overstate the cost.
    """
    import time

    from conftest import Report
    from repro import metrics as metrics_mod
    from repro.core.controller import LrsController, PolicyConfig
    from repro.trace import NULL_TRACER, SERIALIZE, Span, Tracer

    frame = np.zeros(6000, dtype=np.uint8).tobytes()
    data = DataTuple(values={"frame": frame, "id": 7}, seq=0)
    tuples_per_round, reps, passes = 400, 20, 3

    class _Egress:
        def send(self, downstream_id, seq, context=None, attempt=1):
            return time.monotonic()

    def make_hot_path(tracer):
        controller = LrsController(
            PolicyConfig(policy="LRS", seed=0, control_interval=1e9),
            egress=_Egress(), registry=metrics_mod.MetricsRegistry(),
            name="A", trace=tracer)
        for index in range(4):
            controller.add_downstream("w%d" % index)

        def hot_path():
            # Mirrors UpstreamDispatcher.dispatch: decide, encode (span-
            # wrapped only when sampled), route + send, fold in the ACK.
            emit = tracer.emit
            for seq in range(tuples_per_round):
                sampled = tracer.sampled(seq)
                if tracer.enabled and sampled:
                    started = time.perf_counter()
                    payload = encode_tuple(data)
                    emit(Span(SERIALIZE, seq, started, time.perf_counter(),
                              device_id="A", hop="serialize:A"),
                         sampled=True)
                else:
                    payload = encode_tuple(data)
                controller.dispatch(seq, context=payload)
                controller.on_ack(seq, processing_delay=0.01)

        return hot_path

    configs = [
        ("tracing off", NULL_TRACER),
        ("rate 0.00", Tracer(sample_rate=0.0, seed=0)),
        ("rate 0.01", Tracer(sample_rate=0.01, seed=0)),
        ("rate 1.00", Tracer(sample_rate=1.0, seed=0)),
    ]
    hot_paths = [(label, make_hot_path(tracer)) for label, tracer in configs]
    # Several alternating passes so machine-load drift lands on every
    # config; within a pass each config runs a warm consecutive burst.
    best = {label: float("inf") for label, _ in configs}
    for _ in range(passes):
        for label, hot_path in hot_paths:
            hot_path()  # warm the adaptive specialization before timing
            for _ in range(reps):
                started = time.perf_counter()
                hot_path()
                elapsed = ((time.perf_counter() - started)
                           / tuples_per_round)
                best[label] = min(best[label], elapsed)

    baseline = best["tracing off"]
    rows = []
    overhead_at_percent = 0.0
    for label, _ in configs:
        overhead = (best[label] / baseline - 1.0) * 100.0
        if label == "rate 0.01":
            overhead_at_percent = overhead
        rows.append((label, "%.2f" % (best[label] * 1e6),
                     "%+.1f%%" % overhead))

    report = Report("test_microbenchmarks")
    report.line("tracing-overhead microbenchmark (per-tuple upstream "
                "path: sample + encode + span emit + LRS dispatch + ack)")
    report.line("%d tuples/round, best of %d rounds, 6 kB frame payload"
                % (tuples_per_round, reps * passes))
    report.line()
    report.table(["config", "us/tuple", "overhead"], rows, fmt="%12s")
    report.line()
    report.line("acceptance: overhead at 1%% sampling = %+.1f%% "
                "(target < 5%%)" % overhead_at_percent)
    report.flush()

    # Lenient CI bound; the written report carries the honest number.
    assert overhead_at_percent < 10.0


def test_batched_data_plane_report():
    """Before/after µs-per-tuple of the batched upstream data plane.

    Times the same per-tuple upstream path as the tracing bench (encode,
    route + send, ACK fold-in) at batch sizes 1/8/64.  Batch 1 is the
    legacy path — encode_tuple, controller.dispatch, controller.on_ack —
    and doubles as the regression gate against the recorded seed number;
    larger batches frame the encoded tuples with encode_batch and make
    one dispatch_batch/on_ack_batch call per batch, which is exactly the
    amortization the batched data plane claims.  Receiver-side zero-copy
    decode is timed separately (informational: it shares the wire frame,
    but its cost sits on the downstream device, not the upstream hot
    path).  Writes ``BENCH_6.json`` with the before/after numbers.
    """
    import json
    import os
    import time

    from conftest import RESULTS_DIR, Report
    from repro import metrics as metrics_mod
    from repro.core.controller import LrsController, PolicyConfig
    from repro.runtime.serialization import decode_batch, encode_batch

    #: µs/tuple of this path recorded when the bench was first added
    SEED_US_PER_TUPLE = 17.77

    frame = np.zeros(6000, dtype=np.uint8).tobytes()
    tuples_per_round, reps, passes = 384, 15, 3
    # The dispatcher receives already-constructed tuples; build the pool
    # outside the timed region so both paths time encode onward.
    datas = [DataTuple(values={"frame": frame, "id": 7}, seq=seq)
             for seq in range(tuples_per_round)]

    class _Egress:
        def send(self, downstream_id, seq, context=None, attempt=1):
            return time.monotonic()

    def make_controller():
        controller = LrsController(
            PolicyConfig(policy="LRS", seed=0, control_interval=1e9),
            egress=_Egress(), registry=metrics_mod.MetricsRegistry(),
            name="A")
        for index in range(4):
            controller.add_downstream("w%d" % index)
        return controller

    def make_hot_path(batch_size):
        controller = make_controller()
        batches = [datas[start:start + batch_size]
                   for start in range(0, tuples_per_round, batch_size)]

        def hot_path():
            if batch_size == 1:
                for data in datas:
                    payload = encode_tuple(data)
                    controller.dispatch(data.seq, context=payload)
                    controller.on_ack(data.seq, processing_delay=0.01)
            else:
                for batch in batches:
                    payloads = [encode_tuple(data) for data in batch]
                    seqs = [data.seq for data in batch]
                    batch_frame = encode_batch(payloads)
                    controller.dispatch_batch(seqs, context=batch_frame)
                    controller.on_ack_batch(seqs, processing_delay=0.01)

        return hot_path

    batch_sizes = [1, 8, 64]
    hot_paths = [(size, make_hot_path(size)) for size in batch_sizes]
    best = {size: float("inf") for size in batch_sizes}
    # Alternating passes so machine-load drift lands on every config.
    for _ in range(passes):
        for size, hot_path in hot_paths:
            hot_path()  # warm the adaptive specialization before timing
            for _ in range(reps):
                started = time.perf_counter()
                hot_path()
                elapsed = ((time.perf_counter() - started)
                           / tuples_per_round)
                best[size] = min(best[size], elapsed)

    # Receiver-side decode of the same wire frames (zero-copy path).
    decode_best = {}
    for size in batch_sizes:
        wire = encode_batch([encode_tuple(data) for data in datas[:size]])
        best_elapsed = float("inf")
        rounds = max(1, tuples_per_round // size)
        for _ in range(reps):
            started = time.perf_counter()
            for _ in range(rounds):
                decode_batch(wire)
            best_elapsed = min(best_elapsed,
                               (time.perf_counter() - started)
                               / (rounds * size))
        decode_best[size] = best_elapsed

    us = {size: best[size] * 1e6 for size in batch_sizes}
    tuples_per_sec = {size: 1.0 / best[size] for size in batch_sizes}
    speedup = us[1] / us[64]

    report = Report("test_batched_data_plane")
    report.line("batched data plane microbenchmark (per-tuple upstream "
                "path: encode + batch frame + dispatch + ack)")
    report.line("%d tuples/round, best of %d rounds, 6 kB frame payload"
                % (tuples_per_round, reps * passes))
    report.line()
    report.table(
        ["batch", "us/tuple", "tuples/s", "decode us/tuple"],
        [(str(size), "%.2f" % us[size],
          "%.0f" % tuples_per_sec[size],
          "%.2f" % (decode_best[size] * 1e6)) for size in batch_sizes],
        fmt="%16s")
    report.line()
    report.line("speedup at batch 64 = %.2fx (target >= 3x); batch-1 = "
                "%.2f us vs %.2f us seed" % (speedup, us[1],
                                             SEED_US_PER_TUPLE))
    report.flush()

    bench = {
        "issue": 6,
        "seed_us_per_tuple": SEED_US_PER_TUPLE,
        "us_per_tuple": {str(size): round(us[size], 3)
                         for size in batch_sizes},
        "tuples_per_sec": {str(size): round(tuples_per_sec[size], 1)
                           for size in batch_sizes},
        "decode_us_per_tuple": {str(size): round(decode_best[size] * 1e6, 3)
                                for size in batch_sizes},
        "speedup_batch64": round(speedup, 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_6.json").write_text(
        json.dumps(bench, indent=2) + "\n")

    assert speedup >= 3.0
    if os.environ.get("SWING_BENCH_STRICT"):
        # Cross-machine timings vary; the hard gate is opt-in for CI,
        # where runner generations are comparable.
        assert us[1] <= SEED_US_PER_TUPLE * 1.10, (
            "batch-1 path regressed: %.2f us vs %.2f us seed"
            % (us[1], SEED_US_PER_TUPLE))


def test_keyed_routing_report():
    """Per-tuple cost of keyed routing vs the unkeyed hot path.

    The unkeyed config repeats the BENCH_6 batch-1 path (encode_tuple,
    controller.dispatch, on_ack) on a controller without a key table —
    the regression gate that keyed support stays free when unused: the
    keyed dispatch branch must not tax keyless tuples.  The keyed config
    adds the real per-tuple keyed work — hash_key over the tuple key plus
    the range-table ownership lookup — on a bootstrapped four-owner
    table (informational: this is the price of affinity routing).
    Writes ``BENCH_9.json`` with both numbers.
    """
    import json
    import os
    import time

    from conftest import RESULTS_DIR, Report
    from repro import metrics as metrics_mod
    from repro.core.controller import LrsController, PolicyConfig
    from repro.core.keyed import KeyedConfig, KeyRangeTable, hash_key

    #: committed BENCH_6.json batch-1 number — the ISSUE 9 reference
    BENCH_6_US_PER_TUPLE = 14.279

    frame = np.zeros(6000, dtype=np.uint8).tobytes()
    tuples_per_round, reps, passes = 384, 15, 3
    unkeyed_datas = [DataTuple(values={"frame": frame, "id": 7}, seq=seq)
                     for seq in range(tuples_per_round)]
    keyed_datas = [DataTuple(values={"frame": frame, "id": 7}, seq=seq,
                             key="user-%d" % (seq % 16))
                   for seq in range(tuples_per_round)]

    class _Egress:
        def send(self, downstream_id, seq, context=None, attempt=1):
            return time.monotonic()

    def make_controller(keyed):
        config = PolicyConfig(
            policy="LRS", seed=0, control_interval=1e9,
            keyed=(KeyedConfig(key_count=16, split_enabled=False)
                   if keyed else None))
        controller = LrsController(
            config, egress=_Egress(),
            registry=metrics_mod.MetricsRegistry(), name="A")
        downstreams = ["w%d" % index for index in range(4)]
        for downstream in downstreams:
            controller.add_downstream(downstream)
        if keyed:
            controller.set_key_table(KeyRangeTable.bootstrap(downstreams))
        return controller

    def make_hot_path(keyed):
        controller = make_controller(keyed)

        def hot_path():
            if keyed:
                for data in keyed_datas:
                    payload = encode_tuple(data)
                    controller.dispatch(data.seq, context=payload,
                                        key_hash=hash_key(data.key))
                    controller.on_ack(data.seq, processing_delay=0.01)
            else:
                for data in unkeyed_datas:
                    payload = encode_tuple(data)
                    controller.dispatch(data.seq, context=payload)
                    controller.on_ack(data.seq, processing_delay=0.01)

        return hot_path

    configs = [("unkeyed", make_hot_path(keyed=False)),
               ("keyed", make_hot_path(keyed=True))]
    best = {label: float("inf") for label, _ in configs}
    # Alternating passes so machine-load drift lands on both configs.
    for _ in range(passes):
        for label, hot_path in configs:
            hot_path()  # warm the adaptive specialization before timing
            for _ in range(reps):
                started = time.perf_counter()
                hot_path()
                elapsed = ((time.perf_counter() - started)
                           / tuples_per_round)
                best[label] = min(best[label], elapsed)

    us = {label: best[label] * 1e6 for label, _ in configs}
    overhead = (us["keyed"] / us["unkeyed"] - 1.0) * 100.0

    report = Report("test_keyed_routing")
    report.line("keyed routing microbenchmark (per-tuple upstream path: "
                "encode + [hash + range lookup] + dispatch + ack)")
    report.line("%d tuples/round, best of %d rounds, 6 kB frame payload, "
                "4 owners, 16-key population" % (tuples_per_round,
                                                 reps * passes))
    report.line()
    report.table(
        ["config", "us/tuple", "tuples/s"],
        [(label, "%.2f" % us[label], "%.0f" % (1.0 / best[label]))
         for label, _ in configs], fmt="%12s")
    report.line()
    report.line("keyed overhead = %+.1f%%; unkeyed = %.2f us vs %.2f us "
                "BENCH_6 batch-1 (gate: within 5%%)"
                % (overhead, us["unkeyed"], BENCH_6_US_PER_TUPLE))
    report.flush()

    bench = {
        "issue": 9,
        "bench6_us_per_tuple": BENCH_6_US_PER_TUPLE,
        "us_per_tuple": {label: round(us[label], 3)
                         for label, _ in configs},
        "tuples_per_sec": {label: round(1.0 / best[label], 1)
                           for label, _ in configs},
        "keyed_overhead_percent": round(overhead, 1),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_9.json").write_text(
        json.dumps(bench, indent=2) + "\n")

    # The keyed lookup is one hash + one bisect; anything past 50% means
    # the keyed branch leaked onto the shared path.
    assert us["keyed"] <= us["unkeyed"] * 1.5
    if os.environ.get("SWING_BENCH_STRICT"):
        # Cross-machine timings vary; the hard gate is opt-in for CI,
        # where runner generations are comparable.
        assert us["unkeyed"] <= BENCH_6_US_PER_TUPLE * 1.05, (
            "unkeyed hot path regressed: %.2f us vs %.2f us BENCH_6"
            % (us["unkeyed"], BENCH_6_US_PER_TUPLE))
