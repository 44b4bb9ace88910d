"""Load schedules and the reference checker."""

import threading
import time

from loadgen import (Arrival, ClosedLoop, Emitted, OpenLoop, check,
                     expected_y, percentile)

def test_open_loop_stamps_due_times_and_ignores_a_stalled_sink():
    rate, count = 400.0, 60
    schedule = OpenLoop(rate)
    schedule.begin_round(count, lead=0.005)
    started = time.monotonic()
    stamps = [schedule.next_emit() for _ in range(count)]  # nobody delivers
    elapsed = time.monotonic() - started
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert all(abs(gap - 1.0 / rate) < 1e-9 for gap in gaps)
    # the timetable, not the (absent) deliveries, set the pace
    assert (count - 1) / rate <= elapsed < (count - 1) / rate + 0.1
    assert stamps[0] >= started
    assert len(schedule.lates) == count
    assert 0.0 <= max(schedule.lates) < 0.1
    assert schedule.emitted == count


def test_open_loop_charges_a_stall_to_the_tuples_it_delayed():
    schedule = OpenLoop(1000.0)
    schedule.begin_round(3, lead=0.0)
    first = schedule.next_emit()
    time.sleep(0.02)  # the generator thread is held up
    second = schedule.next_emit()
    assert abs(second - (first + 0.001)) < 1e-9  # stamped when due
    assert schedule.lates[1] >= 0.015


def test_closed_loop_never_exceeds_its_window():
    schedule = ClosedLoop(window=4)
    schedule.begin_round(40)
    emitted = []

    def generator():
        while schedule.next_emit() is not None:
            emitted.append(time.monotonic())
    thread = threading.Thread(target=generator, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert len(emitted) == 4  # blocked: the window is full
    for _ in range(36):
        schedule.delivered()
        time.sleep(0.001)
    time.sleep(0.05)
    assert len(emitted) == 40 and schedule.max_inflight == 4
    schedule.stop()
    thread.join(2.0)
    assert not thread.is_alive()


def test_gate_holds_the_generator_between_rounds():
    schedule = ClosedLoop(window=8)
    out = []
    thread = threading.Thread(
        target=lambda: out.append(schedule.next_emit()), daemon=True)
    thread.start()
    time.sleep(0.05)
    assert out == []  # no round begun: nothing may be emitted
    schedule.begin_round(1)
    thread.join(2.0)
    assert len(out) == 1 and out[0] is not None


def _round(n=5):
    emitted = [Emitted(seq, 10 * seq, 100.0 + seq) for seq in range(n)]
    arrivals = [Arrival(e.seq, e.stamp + 0.5, e.stamp, expected_y(e.x), True)
                for e in emitted]
    return emitted, arrivals


def test_checker_accepts_a_clean_round():
    emitted, arrivals = _round()
    result = check(emitted, arrivals)
    assert result.failed == 0
    assert sorted(result.latencies) == [0, 1, 2, 3, 4]
    assert all(abs(latency - 0.5) < 1e-9
               for latency in result.latencies.values())
    assert result.last_arrival == 104.5


def test_checker_catches_missing_duplicated_and_corrupted_tuples():
    emitted, arrivals = _round()
    assert check(emitted, arrivals[:-1]).missing == 1
    assert check(emitted, arrivals + arrivals[:1]).duplicated == 1
    wrong_y = arrivals[2]._replace(y=arrivals[2].y + 1)
    assert check(
        emitted, arrivals[:2] + [wrong_y] + arrivals[3:]).wrong == 1
    bad_pad = arrivals[0]._replace(pad_ok=False)
    assert check(emitted, [bad_pad] + arrivals[1:]).wrong == 1
    bad_stamp = arrivals[0]._replace(created_at=1.0)
    assert check(emitted, [bad_stamp] + arrivals[1:]).wrong == 1
    stranger = Arrival(99, 1.0, 1.0, 1, True)
    assert check(emitted, arrivals + [stranger]).wrong == 1
    assert check(emitted, arrivals).failed == 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 99) == 99
    assert percentile([3.0], 95) == 3.0
