"""End-to-end tests for the two sensing-app pipelines on the runtime."""

import pytest

from repro.apps.face.pipeline import build_face_graph
from repro.apps.translate.pipeline import (MicrophoneSource,
                                           build_translation_graph,
                                           default_phrases)
from repro.core.controller import PolicyConfig
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime

RR = PolicyConfig(policy="RR", control_interval=CONTROL_INTERVAL)


class TestFaceGraph:
    def test_graph_shape_matches_paper(self):
        graph = build_face_graph()
        assert graph.stages() == ["camera", "detector", "recognizer",
                                  "display"]

    def test_pipeline_recognizes_planted_faces(self):
        graph = build_face_graph(num_identities=4, frame_count=10, seed=3)
        runtime = SwingRuntime(graph, worker_ids=["B", "G"],
                               source_rate=60.0, config=RR)
        results = runtime.run(until_idle=1.0, timeout=60.0)
        assert len(results) == 10
        names = [name for data in results for name in data.get_value("names")]
        assert names, "no faces recognized across 10 frames"
        assert all(name.startswith("person-") for name in names)

    def test_pipeline_under_lrs(self):
        graph = build_face_graph(num_identities=3, frame_count=8, seed=1)
        runtime = SwingRuntime(graph, worker_ids=["B", "G", "H"],
                               source_rate=60.0)
        results = runtime.run(until_idle=1.0, timeout=60.0)
        assert len(results) == 8


class TestTranslationGraph:
    def test_graph_shape_matches_paper(self):
        graph = build_translation_graph()
        assert graph.stages() == ["microphone", "recognizer", "translator",
                                  "display"]

    def test_pipeline_translates_speech(self):
        graph = build_translation_graph(frame_count=6, seed=4)
        runtime = SwingRuntime(graph, worker_ids=["B", "G"],
                               source_rate=30.0, config=RR)
        results = runtime.run(until_idle=1.0, timeout=60.0)
        assert len(results) == 6
        texts = [data.get_value("text") for data in results]
        assert all(isinstance(text, str) and text for text in texts)
        # Rule-based output should contain real Spanish words, not only
        # unknown-word markers.
        joined = " ".join(texts)
        assert "<" not in joined

    def test_default_phrases_use_known_vocabulary(self):
        from repro.apps.translate.translator import LEXICON
        for phrase in default_phrases(30, seed=1):
            for word in phrase:
                lemma_known = (word in LEXICON
                               or word.rstrip("s") in LEXICON
                               or word[:-2] in LEXICON)
                assert lemma_known, word

    def test_microphone_ground_truth_tracks_frames(self):
        source = MicrophoneSource(frame_count=3, seed=0)
        from repro.core.function_unit import UnitContext
        source.bind(UnitContext("microphone", "microphone@A",
                                emit=lambda data: None, now=lambda: 0.0))
        for _ in range(3):
            assert source.generate() is not None
        assert source.generate() is None
        assert len(source.ground_truth) == 3
