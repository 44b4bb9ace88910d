"""Face-recognition app as Swing function units (paper Sec. IV-A).

Four units, exactly the decomposition the paper describes: (A) a camera
source reading video frames, (B) a detector finding faces in frames,
(C) a recognizer matching faces against a database, (D) a display sink.
``build_face_graph`` wires them into an :class:`AppGraph` runnable on
the threaded runtime.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.face.detect import FaceDetector
from repro.apps.face.images import (FaceGenerator, FrameSynthesizer,
                                    decode_frame, encode_frame)
from repro.apps.face.recognize import EigenfaceRecognizer
from repro.core.function_unit import FunctionUnit, SinkUnit, SourceUnit
from repro.core.graph import AppGraph, GraphBuilder
from repro.core.tuples import DataTuple, TupleSchema

FRAME_SCHEMA = TupleSchema.of("frame", "height", "width")
FACES_SCHEMA = TupleSchema.of("frame", "height", "width", "boxes")
NAMES_SCHEMA = TupleSchema.of("names")


class CameraSource(SourceUnit):
    """Unit A: produces encoded video frames with synthetic faces."""

    def __init__(self, generator: FaceGenerator, frame_count: int = 48,
                 faces_per_frame: int = 1, seed: int = 0) -> None:
        super().__init__()
        self._synth = FrameSynthesizer(generator, seed=seed)
        self._frames = iter(range(frame_count))
        self._faces_per_frame = faces_per_frame
        self._seq = 0
        self.ground_truth: List[List[str]] = []

    def generate(self) -> Optional[DataTuple]:
        try:
            next(self._frames)
        except StopIteration:
            return None
        image, placements = self._synth.frame(face_count=self._faces_per_frame)
        self.ground_truth.append(sorted(p.name for p in placements))
        data = DataTuple(
            values={"frame": encode_frame(image),
                    "height": image.shape[0], "width": image.shape[1]},
            seq=self._seq, schema=FRAME_SCHEMA,
            created_at=self.context.now())
        self._seq += 1
        return data


class FaceDetectorUnit(FunctionUnit):
    """Unit B: finds face bounding boxes inside each frame."""

    def __init__(self, generator: FaceGenerator,
                 threshold: float = 0.55, stride: int = 4) -> None:
        super().__init__()
        self._detector = FaceDetector(generator, threshold=threshold,
                                      stride=stride)

    def process_data(self, data: DataTuple) -> None:
        image = decode_frame(data.get_value("frame"),
                             height=data.get_value("height"),
                             width=data.get_value("width"))
        detections = self._detector.detect(image)
        boxes = [[d.x, d.y, d.size] for d in detections]
        self.send(data.derive({"frame": data.get_value("frame"),
                               "height": image.shape[0],
                               "width": image.shape[1],
                               "boxes": boxes}, schema=FACES_SCHEMA))


class FaceRecognizerUnit(FunctionUnit):
    """Unit C: matches detected faces with the identity database."""

    def __init__(self, generator: FaceGenerator,
                 num_components: int = 16,
                 training_samples: int = 6) -> None:
        super().__init__()
        self._recognizer = EigenfaceRecognizer(num_components=num_components)
        patches, labels = generator.gallery(
            samples_per_identity=training_samples)
        self._recognizer.train(patches, labels)

    def process_data(self, data: DataTuple) -> None:
        image = decode_frame(data.get_value("frame"),
                             height=data.get_value("height"),
                             width=data.get_value("width"))
        names = []
        for x, y, size in data.get_value("boxes"):
            patch = image[y:y + size, x:x + size]
            if patch.shape != (size, size):
                continue
            name = self._recognizer.recognize(patch)
            if name is not None:
                names.append(name)
        self.send(data.derive({"names": sorted(names)}, schema=NAMES_SCHEMA))


class DisplaySink(SinkUnit):
    """Unit D: displays recognized names (collected for inspection)."""

    def recognized_names(self) -> List[List[str]]:
        return [data.get_value("names") for data in self.results]


def build_face_graph(num_identities: int = 6, frame_count: int = 48,
                     faces_per_frame: int = 1, seed: int = 0,
                     detector_stride: int = 4) -> AppGraph:
    """The paper's four-unit face-recognition dataflow graph.

    Each device activating a unit builds its own instance, so factories
    construct everything (including the shared generator parameters)
    deterministically from the seed.
    """
    return (GraphBuilder("face-recognition")
            .source("camera",
                    lambda: CameraSource(FaceGenerator(num_identities, seed),
                                         frame_count=frame_count,
                                         faces_per_frame=faces_per_frame,
                                         seed=seed),
                    output_schema=FRAME_SCHEMA)
            .unit("detector",
                  lambda: FaceDetectorUnit(FaceGenerator(num_identities, seed),
                                           stride=detector_stride),
                  output_schema=FACES_SCHEMA)
            .unit("recognizer",
                  lambda: FaceRecognizerUnit(FaceGenerator(num_identities,
                                                           seed)),
                  output_schema=NAMES_SCHEMA)
            .sink("display", DisplaySink)
            .chain("camera", "detector", "recognizer", "display")
            .build())
