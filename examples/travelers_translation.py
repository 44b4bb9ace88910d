#!/usr/bin/env python
"""Collaborative voice translation — the paper's group-of-travelers scenario.

Travelers pool their phones to translate native speech in real time: one
phone captures audio, the swarm runs speech recognition (PocketSphinx
substitute) and English->Spanish translation (Apertium substitute), and
subtitles come back to the capturing phone's display.

Run with:  python examples/travelers_translation.py
"""

from repro.apps.translate.pipeline import build_translation_graph
from repro.core.controller import PolicyConfig
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime

UTTERANCES = 10


def main():
    print("Collaborative voice translation on a 2-phone swarm "
          "(%d utterances)" % UTTERANCES)
    graph = build_translation_graph(frame_count=UTTERANCES, seed=12)
    runtime = SwingRuntime(graph, worker_ids=["B", "G"], source_rate=15.0,
                           config=PolicyConfig(
                               seed=12, control_interval=CONTROL_INTERVAL))
    results = runtime.run(until_idle=1.0, timeout=120.0)

    microphone = runtime.master.runtime.unit("microphone")
    truth = microphone.ground_truth
    by_seq = {data.seq: data.get_value("text") for data in results}

    print()
    for seq, words in enumerate(truth):
        english = " ".join(words)
        spanish = by_seq.get(seq, "<lost>")
        print("  EN: %-38s ES: %s" % (english, spanish))

    delivered = len(results)
    print()
    print("delivered %d/%d utterances, in playback order: %s"
          % (delivered, UTTERANCES,
             [data.seq for data in results] == sorted(
                 data.seq for data in results)))


if __name__ == "__main__":
    main()
