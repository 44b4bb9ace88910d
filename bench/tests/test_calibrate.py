"""Reference kernel and idle guard."""

import threading

import pytest

import calibrate


def test_idle_process_passes_and_gives_a_sane_factor():
    before = calibrate.calibrate()
    after = calibrate.calibrate()
    assert before.idle_cpu_frac <= calibrate.IDLE_CPU_LIMIT
    assert 0.05 < calibrate.speed_factor(before, after) < 20.0


def test_idle_guard_trips_under_a_spinning_thread(monkeypatch):
    # a spinner holds the GIL 5 ms at a time, so every hand-off trip of
    # the kernel costs ~10 ms: shorten the kernel, keep the guard's logic
    monkeypatch.setattr(calibrate, "_HANDOFF_TRIPS", 3)
    monkeypatch.setattr(calibrate, "_ATTEMPTS", 2)
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass
    thread = threading.Thread(target=spin, daemon=True)
    thread.start()
    try:
        with pytest.raises(calibrate.IdleGuardError):
            calibrate.calibrate()
    finally:
        stop.set()
        thread.join(2.0)
    assert not thread.is_alive()
