"""Log records: the ML-EXray data model (§3.2).

Three telemetry families, all reducible to key-value pairs per inference
frame:

* **Input/Output** — model input/output, per-layer outputs, and the
  input/output of any user-instrumented function;
* **Performance metrics** — end-to-end latency, per-layer latency, memory
  footprint;
* **Peripheral sensors** — device context (orientation, motion, lighting)
  captured around the sensor read.

This module also holds the two codecs shared by the streaming sinks
(:mod:`repro.instrument.sinks`) and the log store
(:mod:`repro.instrument.store`):

* the frame <-> JSON document codec: a frame's scalar payload serializes to
  one JSON object, and numpy scalars/arrays in the sensor channel are
  canonicalized to plain floats/lists so a saved-and-reloaded log always
  carries JSON-native values;
* the tensor shard codec: a frame's tensors travel separately, as one
  zlib-compressed blob of their raw bytes (:func:`encode_shard` /
  :func:`decode_shard`), described by the document's ``tensor_keys`` and
  ``tensor_specs``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ValidationError

SHARD_ZLIB_LEVEL = 1
"""zlib level of every v3 tensor shard.

On per-layer frames one level-1 blob is about 3x faster to write than the
level-6, per-entry deflate of ``np.savez_compressed`` and no larger. The
level is fixed because sweep-shard digests rely on the same frames
encoding to the same bytes.
"""


@dataclass
class FrameLog:
    """Everything logged for one inference frame (one sensor sample).

    ``sensor_only`` marks a frame that never saw an inference window — a
    lazily-opened frame closed by :meth:`EdgeMLMonitor.flush` (trailing
    sensor telemetry, an aborted invocation). Such frames carry zero
    latency/memory by construction; aggregate statistics must exclude them
    from latency means rather than average in their zeros.
    """

    step: int
    latency_ms: float = 0.0
    wall_ms: float = 0.0
    memory_mb: float = 0.0
    scalars: dict[str, float] = field(default_factory=dict)
    sensors: dict[str, object] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    layer_latency_ms: dict[str, float] = field(default_factory=dict)
    layer_ops: dict[str, str] = field(default_factory=dict)
    sensor_only: bool = False

    def tensor(self, key: str) -> np.ndarray:
        """Fetch a logged tensor; raises KeyError with available keys."""
        try:
            return self.tensors[key]
        except KeyError:
            raise KeyError(
                f"frame {self.step} has no tensor {key!r}; "
                f"available: {sorted(self.tensors)}"
            ) from None


def jsonable(value):
    """Canonicalize a logged value for JSON: numpy scalars/arrays become
    plain floats/(nested) lists; everything else passes through."""
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _raw_array(frame: FrameLog, key: str) -> np.ndarray:
    """A logged tensor as an array whose dtype survives a raw-bytes trip.

    Object arrays (pickled by ``np.savez``, unreadable without
    ``allow_pickle``) and structured dtypes (whose fields a descr string
    drops) are rejected here, at emit, rather than written as a log that
    cannot be read back.
    """
    array = np.asarray(frame.tensors[key])
    if array.dtype.hasobject or np.dtype(array.dtype.str) != array.dtype:
        raise ValidationError(
            f"frame {frame.step} tensor {key!r} has dtype {array.dtype}, "
            "which cannot be stored as raw bytes in a log shard")
    return array


def frame_to_doc(frame: FrameLog) -> dict:
    """A frame's JSON document: everything but the tensor payloads.

    Tensors are referenced by sorted ``tensor_keys`` and stored out of band:
    in the v3 layout as one blob per frame (:func:`encode_shard`), whose
    layout ``tensor_specs`` records — one ``[dtype descr, shape]`` pair per
    key, aligned with ``tensor_keys``. (v2 wrote one ``.npz`` shard per
    frame and v1 a shared ``tensors.npz``; neither has ``tensor_specs``.)
    Raises :class:`ValidationError` for a tensor that cannot be stored raw.
    """
    keys = sorted(frame.tensors)
    specs = []
    for key in keys:
        array = _raw_array(frame, key)
        specs.append([array.dtype.str, list(array.shape)])
    return {
        "step": frame.step,
        "latency_ms": frame.latency_ms,
        "wall_ms": frame.wall_ms,
        "memory_mb": frame.memory_mb,
        "scalars": {k: jsonable(v) for k, v in frame.scalars.items()},
        "sensors": {k: jsonable(v) for k, v in frame.sensors.items()},
        "tensor_keys": keys,
        "tensor_specs": specs,
        "layer_latency_ms": frame.layer_latency_ms,
        "layer_ops": frame.layer_ops,
        "sensor_only": frame.sensor_only,
    }


def frame_from_doc(doc: dict) -> FrameLog:
    """Rebuild a frame from its JSON document (tensors attached separately)."""
    return FrameLog(
        step=doc["step"],
        latency_ms=doc["latency_ms"],
        wall_ms=doc["wall_ms"],
        memory_mb=doc["memory_mb"],
        scalars=dict(doc["scalars"]),
        sensors=dict(doc["sensors"]),
        layer_latency_ms=dict(doc.get("layer_latency_ms", {})),
        layer_ops=dict(doc.get("layer_ops", {})),
        sensor_only=doc.get("sensor_only", False),
    )


def encode_shard(frame: FrameLog) -> bytes:
    """A frame's v3 tensor shard: its tensors' raw C-order bytes, in sorted
    key order, concatenated and compressed at :data:`SHARD_ZLIB_LEVEL`.

    The layout is the one :func:`frame_to_doc` records in ``tensor_specs``.
    """
    parts = [np.ascontiguousarray(_raw_array(frame, key))
             for key in sorted(frame.tensors)]
    return zlib.compress(b"".join(parts), SHARD_ZLIB_LEVEL)


def decode_shard(blob: bytes, doc: dict, wanted) -> dict[str, np.ndarray]:
    """The ``wanted`` tensors of a v3 shard, laid out by ``doc``'s specs.

    Every returned array is a writable copy that owns its data, so keeping
    one tensor of a frame does not pin the whole decompressed shard.
    Raises ``zlib.error`` for a corrupt blob and :class:`ValueError` when
    the decompressed size disagrees with the specs.
    """
    raw = zlib.decompress(blob)
    layout = []
    offset = 0
    for key, (descr, shape) in zip(doc["tensor_keys"], doc["tensor_specs"]):
        dtype = np.dtype(descr)
        layout.append((key, dtype, shape, offset))
        offset += dtype.itemsize * math.prod(shape)
    if offset != len(raw):
        raise ValueError(f"shard holds {len(raw)} bytes but its specs "
                         f"describe {offset}")
    return {key: np.ndarray(shape, dtype, buffer=raw, offset=start).copy()
            for key, dtype, shape, start in layout if key in wanted}


@dataclass
class TraceSummary:
    """Aggregate statistics over a run (consumed by the overhead tables)."""

    num_frames: int
    mean_latency_ms: float
    std_latency_ms: float
    mean_wall_ms: float
    peak_memory_mb: float
    monitor_overhead_ms: float
    log_bytes: int
    sensor_only_frames: int = 0

    @property
    def bytes_per_frame(self) -> float:
        return self.log_bytes / max(self.num_frames, 1)
