"""Streaming-instrumentation tests: sinks, frame scopes, lazy log readers.

Covers the LogSink redesign: MemorySink parity with the buffered monitor,
DirectorySink incremental streaming (O(1) resident frames, mid-stream
readability, v3 layout), RingBufferSink bounded always-on mode, TeeSink
fan-out, the ``with monitor.frame(...)`` scope, lazy ``EXrayLog`` readers,
and the save/load canonicalization + v1/v2-compat guarantees.
"""

import gc
import json
import tempfile
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.instrument import (
    DirectorySink,
    EXrayLog,
    EdgeMLMonitor,
    FrameLog,
    MemorySink,
    RingBufferSink,
    TeeSink,
    log_digest,
    save_log,
)
from repro.runtime import Interpreter
from repro.util.errors import ValidationError
from repro.validate.layerdiff import per_layer_diff
from repro.validate.session import DebugSession


def stream_frames(graph, monitor, x_frames, scale=1.0):
    """Drive `len(x_frames)` instrumented inferences through a monitor."""
    interp = Interpreter(graph)
    monitor.attach(interp)
    for i in range(len(x_frames)):
        monitor.log("model_input", x_frames[i] * scale)
        with monitor.frame(interp) as frame:
            out = interp.invoke(x_frames[i:i + 1] * scale)
            frame.tensors["model_output"] = next(iter(out.values()))[0]
    return interp


@pytest.fixture
def x_frames(rng):
    return rng.normal(size=(4, 8, 8, 3)).astype(np.float32)


class TestMemorySink:
    def test_default_sink_is_memory(self):
        assert isinstance(EdgeMLMonitor().sink, MemorySink)

    def test_frames_property_is_live_view(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor(sink=MemorySink())
        stream_frames(small_cnn, monitor, x_frames)
        assert monitor.frames is monitor.sink.frames
        assert [f.step for f in monitor.frames] == [0, 1, 2, 3]

    def test_from_monitor_is_zero_copy(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames)
        log = EXrayLog.from_monitor(monitor)
        assert log.frames is monitor.sink.frames


class TestFrameScope:
    def test_frame_scope_emits_on_exit(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames[:1])
        frame = monitor.frames[0]
        assert "model_output" in frame.tensors
        assert "model_input" in frame.tensors  # lazy frame adopted
        assert frame.latency_ms > 0

    def test_frame_scope_discards_on_exception(self, small_cnn):
        monitor = EdgeMLMonitor()
        with pytest.raises(RuntimeError):
            with monitor.frame():
                raise RuntimeError("inference blew up")
        assert monitor.num_frames == 0
        # The monitor is reusable after the aborted frame.
        with monitor.frame():
            pass
        assert monitor.num_frames == 1

    def test_nested_frame_rejected(self):
        monitor = EdgeMLMonitor()
        with pytest.raises(ValidationError):
            with monitor.frame():
                monitor.on_inf_start()


class TestDetach:
    def test_detach_unattached_raises_validation_error(self, small_cnn):
        monitor = EdgeMLMonitor()
        interp = Interpreter(small_cnn)
        with pytest.raises(ValidationError, match="not attached"):
            monitor.detach(interp)

    def test_failed_detach_leaves_observers_untouched(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stranger = Interpreter(small_cnn)
        interp = stream_frames(small_cnn, monitor, x_frames[:1])
        with pytest.raises(ValidationError):
            monitor.detach(stranger)
        # The attached interpreter still reports into the monitor.
        with monitor.frame(interp):
            interp.invoke(x_frames[:1])
        assert monitor.frames[-1].layer_latency_ms
        monitor.detach(interp)  # the real attachment detaches cleanly
        with monitor.frame(interp):
            interp.invoke(x_frames[:1])
        assert not monitor.frames[-1].layer_latency_ms


class TestSummary:
    def test_sensor_only_frames_excluded_from_latency(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames)
        monitor.log_sensor("battery", 0.4)   # trailing sensor-only frame
        monitor.flush()
        summary = monitor.summary()
        assert summary["num_frames"] == 5
        assert summary["sensor_only_frames"] == 1
        # The flushed frame's placeholder zero latency must not drag the
        # mean: it equals the mean over the four inference frames alone.
        lat = [f.latency_ms for f in monitor.frames if not f.sensor_only]
        assert summary["mean_latency_ms"] == pytest.approx(np.mean(lat))
        assert summary["mean_wall_ms"] == pytest.approx(
            np.mean([f.wall_ms for f in monitor.frames if not f.sensor_only]))

    def test_flushed_frame_marked_sensor_only(self):
        monitor = EdgeMLMonitor()
        monitor.log_sensor("orientation", 90)
        frame = monitor.flush()
        assert frame.sensor_only
        assert monitor.summary()["sensor_only_frames"] == 1

    def test_sensor_only_excluded_from_log_mean_latency(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames)
        monitor.log_sensor("battery", 0.4)
        log = EXrayLog.from_monitor(monitor)
        assert log.num_sensor_only() == 1
        lat = [f.latency_ms for f in log.frames if not f.sensor_only]
        assert log.mean_latency_ms() == pytest.approx(np.mean(lat))


class TestRingBufferSink:
    def test_keeps_last_n_frames(self, small_cnn, rng):
        x = rng.normal(size=(10, 8, 8, 3)).astype(np.float32)
        sink = RingBufferSink(capacity=3)
        monitor = EdgeMLMonitor(sink=sink)
        stream_frames(small_cnn, monitor, x)
        assert [f.step for f in sink.frames] == [7, 8, 9]

    def test_summary_covers_whole_stream(self, small_cnn, rng):
        x = rng.normal(size=(10, 8, 8, 3)).astype(np.float32)
        monitor = EdgeMLMonitor(sink=RingBufferSink(capacity=3))
        stream_frames(small_cnn, monitor, x)
        summary = monitor.summary()
        assert summary["num_frames"] == 10
        assert summary["mean_latency_ms"] > 0

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            RingBufferSink(capacity=0)

    def test_no_double_count_on_frame_reentry_after_flush(self):
        # Regression pin: a frame opened via monitor.frame(...) *after* a
        # flush() emitted a pending lazy sensor frame must count exactly
        # once in summary() — the flushed sensor-only frame and the new
        # inference frame are two distinct emissions, never three.
        monitor = EdgeMLMonitor("edge", sink=RingBufferSink(capacity=8))
        monitor.log_sensor("orientation", 90)     # opens a lazy frame
        flushed = monitor.flush()                 # emits it sensor-only
        assert flushed is not None and flushed.sensor_only
        with monitor.frame() as frame:            # re-entry after flush
            frame.scalars["label"] = 1.0
        summary = monitor.summary()
        assert summary["num_frames"] == 2
        assert summary["sensor_only_frames"] == 1
        assert [f.step for f in monitor.frames] == [0, 1]
        # A second flush has nothing pending: no phantom emission.
        assert monitor.flush() is None
        assert monitor.summary()["num_frames"] == 2

    def test_adopted_lazy_frame_counts_once(self):
        # The sibling path: sensor logs open the frame lazily and the
        # frame scope *adopts* it — one frame, not a sensor-only frame
        # plus an inference frame.
        monitor = EdgeMLMonitor("edge", sink=RingBufferSink(capacity=8))
        monitor.log_sensor("orientation", 90)
        with monitor.frame() as frame:
            frame.scalars["label"] = 1.0
        summary = monitor.summary()
        assert summary["num_frames"] == 1
        assert summary["sensor_only_frames"] == 0
        assert monitor.frames[0].sensors["orientation"] == 90


class TestDirectorySink:
    def test_streamed_log_loads(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        assert len(log) == 4
        assert log.version == 3
        assert log.layer_names() == [n.name for n in small_cnn.nodes]

    def test_readable_mid_stream(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames[:2])
        # No close(): the stream is still open, yet everything emitted so
        # far is already visible to a reader.
        log = EXrayLog.load(tmp_path / "log")
        assert len(log) == 2
        stream_frames(small_cnn, EdgeMLMonitor(), x_frames[:1])  # unrelated
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "log")) == 2

    def test_resident_frames_are_o1(self, small_cnn, rng, tmp_path):
        # The sink retains no frames: once the monitor closes a frame and
        # the loop drops its reference, nothing keeps it alive — resident
        # frame count stays O(1) no matter how long the stream runs.
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        interp = Interpreter(small_cnn)
        monitor.attach(interp)
        refs = []
        for _ in range(8):
            with monitor.frame(interp) as frame:
                interp.invoke(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
            refs.append(weakref.ref(frame))
        del frame
        gc.collect()
        assert sum(r() is not None for r in refs) == 0
        with pytest.raises(ValidationError, match="does not retain"):
            monitor.frames
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "log")) == 8

    def test_emit_after_close_rejected(self, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        monitor.close()
        with pytest.raises(ValidationError, match="closed"):
            with monitor.frame():
                pass

    def test_empty_stream_still_loads(self, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "log")) == 0

    def test_save_log_seals_same_directory(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        nbytes = save_log(monitor, tmp_path / "log")
        log = EXrayLog.load(tmp_path / "log")
        assert len(log) == 4 and log.log_bytes == nbytes

    def test_save_log_drains_to_other_directory(self, small_cnn, x_frames,
                                                tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "a"))
        stream_frames(small_cnn, monitor, x_frames)
        save_log(monitor, tmp_path / "b")
        a, b = EXrayLog.load(tmp_path / "a"), EXrayLog.load(tmp_path / "b")
        assert len(a) == len(b) == 4
        np.testing.assert_array_equal(b.frames[2].tensor("model_output"),
                                      a.frames[2].tensor("model_output"))
        # Snapshotting to another directory must not kill the live stream.
        with monitor.frame():
            pass
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "a")) == 5
        assert len(EXrayLog.load(tmp_path / "b")) == 4

    def test_save_log_prefers_directory_child_of_tee(self, small_cnn,
                                                     x_frames, tmp_path):
        # TeeSink(ring, directory): the directory child has the whole
        # stream, so save_log must drain it — not the ring's window.
        monitor = EdgeMLMonitor(
            sink=TeeSink(RingBufferSink(capacity=2),
                         DirectorySink(tmp_path / "full")))
        stream_frames(small_cnn, monitor, x_frames)
        save_log(monitor, tmp_path / "saved")
        assert len(EXrayLog.load(tmp_path / "saved")) == 4

    def test_begun_empty_stream_loadable_before_close(self, tmp_path):
        EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))  # no frames yet
        assert len(EXrayLog.load(tmp_path / "log")) == 0


class TestTeeSink:
    def test_fans_out_to_all_children(self, small_cnn, x_frames, tmp_path):
        ring = RingBufferSink(capacity=2)
        monitor = EdgeMLMonitor(
            sink=TeeSink(ring, DirectorySink(tmp_path / "log")))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        assert len(ring.frames) == 2
        assert len(EXrayLog.load(tmp_path / "log")) == 4
        assert monitor.summary()["num_frames"] == 4

    def test_frames_delegates_to_first_retaining_child(self, tmp_path):
        ring = RingBufferSink(capacity=2)
        tee = TeeSink(DirectorySink(tmp_path / "log"), ring)
        monitor = EdgeMLMonitor(sink=tee)
        with monitor.frame():
            pass
        assert tee.frames == ring.frames

    def test_needs_children(self):
        with pytest.raises(ValidationError):
            TeeSink()


class TestLazyReader:
    def test_load_is_lazy(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        assert log._frames is None          # nothing materialized on load
        first = next(log.iter_frames())
        assert "model_output" in first.tensors
        assert log._frames is None          # streaming does not cache
        assert len(log.frames) == 4         # the eager view still works
        assert log._frames is not None

    def test_iter_frames_without_tensors(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        metas = list(log.iter_frames(load_tensors=False))
        assert len(metas) == 4
        assert all(not f.tensors for f in metas)
        assert all(f.latency_ms > 0 for f in metas)

    def test_random_access_frame(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        np.testing.assert_allclose(log.frame(2).tensor("model_input"),
                                   x_frames[2], rtol=1e-6)

    def test_keys_filter_loads_only_requested_tensors(self, small_cnn,
                                                      x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        frame = log.frame(1, keys={"model_output"})
        assert set(frame.tensors) == {"model_output"}
        for f in log.iter_frames(keys={"model_input"}):
            assert set(f.tensors) == {"model_input"}
        # tensor_series goes through the filter and stays correct.
        series = log.tensor_series("model_output")
        assert len(series) == 4


def legacy_meta(monitor: EdgeMLMonitor, version: int) -> dict:
    return {
        "name": monitor.name,
        "per_layer": monitor.per_layer,
        "num_frames": len(monitor.frames),
        "monitor_overhead_ms": monitor.monitor_overhead_ms,
        "version": version,
    }


def jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def write_v1_log(root: Path, monitor: EdgeMLMonitor) -> None:
    """Write the pre-redesign v1 layout exactly as the old save_log did."""
    root.mkdir(parents=True, exist_ok=True)
    meta = legacy_meta(monitor, 1)
    frames_doc = []
    arrays = {}
    for frame in monitor.frames:
        frames_doc.append({
            "step": frame.step,
            "latency_ms": frame.latency_ms,
            "wall_ms": frame.wall_ms,
            "memory_mb": frame.memory_mb,
            "scalars": frame.scalars,
            "sensors": {k: jsonable(v) for k, v in frame.sensors.items()},
            "tensor_keys": sorted(frame.tensors),
            "layer_latency_ms": frame.layer_latency_ms,
            "layer_ops": frame.layer_ops,
        })
        for key, value in frame.tensors.items():
            arrays[f"{frame.step:06d}::{key}"] = value
    (root / "meta.json").write_text(json.dumps(meta, indent=2))
    (root / "frames.json").write_text(json.dumps(frames_doc))
    if arrays:
        np.savez_compressed(root / "tensors.npz", **arrays)


def write_v2_log(root: Path, monitor: EdgeMLMonitor) -> None:
    """Write the v2 layout exactly as the npz-shard DirectorySink did:
    JSONL frame documents without ``tensor_specs`` plus one
    ``np.savez_compressed`` shard per tensor-carrying frame."""
    (root / "tensors").mkdir(parents=True, exist_ok=True)
    lines = []
    for frame in monitor.frames:
        if frame.tensors:
            np.savez_compressed(root / "tensors" / f"{frame.step:06d}.npz",
                                **frame.tensors)
        lines.append(json.dumps({
            "step": frame.step,
            "latency_ms": frame.latency_ms,
            "wall_ms": frame.wall_ms,
            "memory_mb": frame.memory_mb,
            "scalars": {k: jsonable(v) for k, v in frame.scalars.items()},
            "sensors": {k: jsonable(v) for k, v in frame.sensors.items()},
            "tensor_keys": sorted(frame.tensors),
            "layer_latency_ms": frame.layer_latency_ms,
            "layer_ops": frame.layer_ops,
            "sensor_only": frame.sensor_only,
        }) + "\n")
    (root / "meta.json").write_text(json.dumps(legacy_meta(monitor, 2),
                                               indent=2))
    (root / "frames.jsonl").write_text("".join(lines))


class TestFormatCompat:
    def test_v1_log_still_loads(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True)
        stream_frames(small_cnn, monitor, x_frames)
        write_v1_log(tmp_path / "v1", monitor)
        log = EXrayLog.load(tmp_path / "v1")
        assert log.version == 1
        assert len(log) == 4
        assert log.layer_names() == [n.name for n in small_cnn.nodes]
        np.testing.assert_array_equal(
            log.frames[1].tensor("model_output"),
            monitor.frames[1].tensors["model_output"])

    def test_v1_iteration_is_lazy(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True)
        stream_frames(small_cnn, monitor, x_frames)
        write_v1_log(tmp_path / "v1", monitor)
        log = EXrayLog.load(tmp_path / "v1")
        count = sum(1 for _ in log.iter_frames())
        assert count == 4 and log._frames is None

    def test_sensor_canonicalization_parity(self, small_cnn, x_frames,
                                            tmp_path):
        # Numpy scalars/arrays logged as sensor values come back as plain
        # floats/lists after any save/load path — pin the canonicalization
        # across MemorySink -> DirectorySink -> EXrayLog.load.
        monitor = EdgeMLMonitor()
        monitor.log_sensor("np_scalar", np.float32(0.25))
        monitor.log_sensor("np_int", np.int64(3))
        monitor.log_sensor("np_array", np.arange(3, dtype=np.float64))
        monitor.log_sensor("plain", "landscape")
        stream_frames(small_cnn, monitor, x_frames[:1])
        save_log(monitor, tmp_path / "log")
        sensors = EXrayLog.load(tmp_path / "log").frames[0].sensors
        assert sensors["np_scalar"] == 0.25
        assert isinstance(sensors["np_scalar"], float)
        assert sensors["np_int"] == 3.0 and isinstance(sensors["np_int"], float)
        assert sensors["np_array"] == [0.0, 1.0, 2.0]
        assert isinstance(sensors["np_array"], list)
        assert sensors["plain"] == "landscape"

    def test_v2_log_still_loads(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True)
        stream_frames(small_cnn, monitor, x_frames)
        write_v2_log(tmp_path / "v2", monitor)
        log = EXrayLog.load(tmp_path / "v2")
        assert log.version == 2
        assert len(log) == 4
        assert log.layer_names() == [n.name for n in small_cnn.nodes]
        for frame, sent in zip(log.iter_frames(), monitor.frames):
            assert set(frame.tensors) == set(sent.tensors)
            for key, value in sent.tensors.items():
                np.testing.assert_array_equal(frame.tensors[key], value)
        frame = log.frame(1, keys={"model_output"})
        assert set(frame.tensors) == {"model_output"}

    def test_missing_v2_shard_names_dir_and_key(self, small_cnn, x_frames,
                                                tmp_path):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames[:2])
        write_v2_log(tmp_path / "v2", monitor)
        (tmp_path / "v2" / "tensors" / "000001.npz").unlink()
        log = EXrayLog.load(tmp_path / "v2")   # lazy: no error yet
        with pytest.raises(ValidationError, match="model_input"):
            log.frame(1)
        with pytest.raises(ValidationError, match=str(tmp_path / "v2")):
            list(log.iter_frames())

    def test_truncated_v2_shard_names_missing_key(self, small_cnn, x_frames,
                                                  tmp_path):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames[:1])
        write_v2_log(tmp_path / "v2", monitor)
        shard = tmp_path / "v2" / "tensors" / "000000.npz"
        with np.load(shard) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "model_output"}
        np.savez_compressed(shard, **arrays)
        log = EXrayLog.load(tmp_path / "v2")
        with pytest.raises(ValidationError,
                           match="'model_output'.*no such entry"):
            log.frames

    def test_missing_v3_shard_names_dir_and_key(self, small_cnn, x_frames,
                                                tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames[:2])
        monitor.close()
        (tmp_path / "log" / "tensors" / "000001.bin").unlink()
        log = EXrayLog.load(tmp_path / "log")   # lazy: no error yet
        with pytest.raises(ValidationError, match="model_input.*missing"):
            log.frame(1)
        with pytest.raises(ValidationError, match=str(tmp_path / "log")):
            list(log.iter_frames())

    @pytest.mark.parametrize("damage, why", [
        (lambda blob: blob[:len(blob) // 2], "corrupt"),
        (lambda blob: b"\x00" + blob[1:], "corrupt"),
        (lambda blob: zlib.compress(zlib.decompress(blob)[:-4]),
         "wrong size"),
        (lambda blob: zlib.compress(zlib.decompress(blob) + b"\0"),
         "wrong size"),
    ], ids=["truncated", "bad-header", "short", "long"])
    def test_damaged_v3_shard_names_dir_and_key(self, small_cnn, x_frames,
                                                tmp_path, damage, why):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames[:2])
        monitor.close()
        shard = tmp_path / "log" / "tensors" / "000001.bin"
        shard.write_bytes(damage(shard.read_bytes()))
        log = EXrayLog.load(tmp_path / "log")
        log.frame(0)                            # frame 0 is untouched
        with pytest.raises(ValidationError, match=f"model_input.*{why}"):
            log.frame(1)
        with pytest.raises(ValidationError, match=str(tmp_path / "log")):
            log.frame(1, keys={"model_output"})

    def test_missing_v1_npz_names_dir_and_key(self, small_cnn, x_frames,
                                              tmp_path):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames[:1])
        write_v1_log(tmp_path / "v1", monitor)
        (tmp_path / "v1" / "tensors.npz").unlink()
        log = EXrayLog.load(tmp_path / "v1")
        with pytest.raises(ValidationError, match="tensors.npz is missing"):
            log.frames

    def test_truncated_v1_npz_names_missing_key(self, small_cnn, x_frames,
                                                tmp_path):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames[:1])
        write_v1_log(tmp_path / "v1", monitor)
        # Rewrite the archive without one listed entry (a truncated log).
        with np.load(tmp_path / "v1" / "tensors.npz") as npz:
            arrays = {k: npz[k] for k in npz.files
                      if not k.endswith("model_output")}
        np.savez_compressed(tmp_path / "v1" / "tensors.npz", **arrays)
        log = EXrayLog.load(tmp_path / "v1")
        with pytest.raises(ValidationError, match="model_output"):
            log.frames


RAW_DTYPES = ["?", "i1", "u1", "<i4", "<i8", ">i4",
              "<f2", "<f4", "<f8", ">f8"]


@st.composite
def tensor_dicts(draw):
    """A frame's tensors: mixed dtypes, 0-d and empty shapes, and C,
    Fortran and non-contiguous memory layouts."""
    tensors = {}
    for i in range(draw(st.integers(0, 4))):
        array = draw(hnp.arrays(
            np.dtype(draw(st.sampled_from(RAW_DTYPES))),
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                             max_side=4)))
        layout = draw(st.sampled_from(["c", "fortran", "strided"]))
        if layout == "fortran":
            array = np.asfortranarray(array)
        elif layout == "strided" and array.ndim:
            array = np.repeat(array, 2, axis=0)[::2]
        tensors[f"layer/t{i}"] = array
    return tensors


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def emit_all(root: Path, frames) -> None:
    sink = DirectorySink(root)
    for frame in frames:
        sink.emit(frame)
    sink.close()


class TestShardCodec:
    """The v3 one-blob tensor shard: exact round trips, owned arrays on
    load, emit-time rejection of unstorable tensors, determinism."""

    @given(frames=st.lists(tensor_dicts(), min_size=1, max_size=3),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_byte_exact(self, frames, data):
        sent = [FrameLog(step=i, tensors=t) for i, t in enumerate(frames)]
        with tempfile.TemporaryDirectory() as tmp:
            emit_all(Path(tmp) / "a", sent)
            log = EXrayLog.load(Path(tmp) / "a")
            assert log.version == 3
            for frame, want in zip(log.iter_frames(), sent):
                assert set(frame.tensors) == set(want.tensors)
                for key, value in want.tensors.items():
                    assert same_bytes(frame.tensors[key], value)
            for i, want in enumerate(sent):
                keys = data.draw(st.sets(st.sampled_from(
                    sorted(want.tensors) or ["absent"])))
                frame = log.frame(i, keys=keys)
                assert set(frame.tensors) == keys & set(want.tensors)
                for key, value in frame.tensors.items():
                    assert same_bytes(value, want.tensors[key])
            # Same frames, same bytes: the digest that shard verification
            # in fleet merges compares.
            emit_all(Path(tmp) / "b", sent)
            assert log_digest(Path(tmp) / "a") == log_digest(Path(tmp) / "b")

    def test_streamed_log_digest_is_deterministic(self, small_cnn, x_frames,
                                                  tmp_path):
        monitor = EdgeMLMonitor(per_layer=True)
        stream_frames(small_cnn, monitor, x_frames)
        emit_all(tmp_path / "a", monitor.frames)
        emit_all(tmp_path / "b", monitor.frames)
        assert log_digest(tmp_path / "a") == log_digest(tmp_path / "b")

    def test_loaded_arrays_own_their_data(self, small_cnn, x_frames,
                                          tmp_path):
        # A view into the decoded blob would pin the whole frame's shard
        # for as long as one kept tensor lives.
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        loaded = [log.frame(1, keys={"model_output"}).tensor("model_output"),
                  *(f.tensor("model_output")
                    for f in log.iter_frames(keys={"model_output"})),
                  *log.frame(2).tensors.values()]
        for array in loaded:
            assert array.base is None and array.flags.owndata
            assert array.flags.writeable

    @pytest.mark.parametrize("value", [
        np.array([1, "a", None], dtype=object),
        np.zeros(3, dtype=[("x", "<f4"), ("y", "<i4")]),
    ], ids=["object", "structured"])
    def test_unstorable_tensor_rejected_at_emit(self, tmp_path, value):
        sink = DirectorySink(tmp_path / "log")
        frame = FrameLog(step=7, tensors={"ok": np.ones(2, np.float32),
                                          "bad": value})
        with pytest.raises(ValidationError, match="frame 7 tensor 'bad'"):
            sink.emit(frame)
        sink.close()
        # Nothing of the rejected frame reached the log.
        assert len(EXrayLog.load(tmp_path / "log")) == 0
        assert not list((tmp_path / "log" / "tensors").iterdir())


class TestStreamedValidationParity:
    """Acceptance: validation is sink-agnostic — a streamed DirectorySink
    log produces the identical report and layer diffs as the eager
    MemorySink log of the same run."""

    def run_pair(self, small_cnn, rng, tmp_path):
        x = rng.normal(size=(3, 8, 8, 3)).astype(np.float32)
        ref_mon = EdgeMLMonitor("reference", per_layer=True)
        stream_frames(small_cnn, ref_mon, x)
        # ONE edge run teed into both sinks: the eager and the streamed
        # log describe the same frames (per-layer wall-clock included).
        memory = MemorySink()
        edge = EdgeMLMonitor("edge", per_layer=True,
                             sink=TeeSink(memory,
                                          DirectorySink(tmp_path / "edge")))
        # A scale bug so the per-layer analysis has real drift to localize.
        stream_frames(small_cnn, edge, x, scale=1.5)
        edge.close()
        mem_log = EXrayLog("edge", True, memory.frames)
        return (mem_log,
                EXrayLog.load(tmp_path / "edge"),
                EXrayLog.from_monitor(ref_mon))

    def test_layerdiff_identical(self, small_cnn, rng, tmp_path):
        mem_log, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path)
        assert per_layer_diff(mem_log, ref_log) == per_layer_diff(dir_log, ref_log)

    def test_session_report_identical(self, small_cnn, rng, tmp_path):
        mem_log, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path)
        mem_report = DebugSession(mem_log, ref_log).run(
            always_run_assertions=True)
        dir_report = DebugSession(dir_log, ref_log).run(
            always_run_assertions=True)
        assert mem_report.render() == dir_report.render()
        assert mem_report.layer_diffs == dir_report.layer_diffs
        assert [a.passed for a in mem_report.assertions] == \
            [a.passed for a in dir_report.assertions]
