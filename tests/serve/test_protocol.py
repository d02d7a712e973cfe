"""Unit tests for the wrl-serve wire protocol: framing, validation,
dedup-key identity, and the heartbeat-frame format contract."""

import base64
import json

import pytest

from repro.eval.parallel import TaskSpec
from repro.serve import protocol
from repro.serve.protocol import (ProtocolError, decode_frame,
                                  encode_frame, error_frame,
                                  eval_dedup_key, heartbeat_frame,
                                  options_from_wire, run_dedup_key,
                                  run_from_wire, spec_from_wire,
                                  spec_to_wire, validate_tenant,
                                  validate_trace_id)


def test_frame_roundtrip():
    frame = {"op": "ping", "id": "abc"}
    line = encode_frame(frame)
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert decode_frame(line) == frame


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError) as exc:
        decode_frame(b"not json\n")
    assert exc.value.kind == "bad-request"
    with pytest.raises(ProtocolError):
        decode_frame(b"[1, 2, 3]\n")          # not an object


def test_error_frame_is_structured():
    frame = error_frame("id1", "overloaded", "queue full")
    assert frame["type"] == "error"
    assert frame["error"] == {"kind": "overloaded",
                              "message": "queue full"}


def test_heartbeat_frame_matches_jsonl_row_shape():
    """Daemon heartbeats must parse as WRL_HEARTBEAT JSONL rows."""
    frame = heartbeat_frame("prof:fib:O1:linked", "queued",
                            queue_depth=3)
    # The obs JSONL row contract: type/name/cat/ts_ns/dur_ns/pid/args.
    for key in ("type", "name", "cat", "ts_ns", "dur_ns", "pid",
                "args"):
        assert key in frame
    assert frame["type"] == "span" and frame["name"] == "heartbeat"
    row = json.loads(encode_frame(frame))
    assert row["args"]["task"] == "prof:fib:O1:linked"
    assert row["args"]["phase"] == "queued"


def test_spec_wire_roundtrip():
    spec = TaskSpec(tool="prof", workload="fib", opt="O2",
                    wl_args=("10",), stdin=b"\x00\xff",
                    base_max_insts=123, max_insts=456, warmup=True)
    assert spec_from_wire(spec_to_wire(spec)) == spec


@pytest.mark.parametrize("wire, fragment", [
    ("not a dict", "spec must be an object"),
    ({"tool": "nope", "workload": "fib"}, "unknown tool"),
    ({"tool": "prof", "workload": "nope"}, "unknown workload"),
    ({"tool": "prof", "workload": "fib", "opt": "O9"}, "unknown opt"),
    ({"tool": "prof", "workload": "fib", "bogus": 1},
     "unknown spec fields"),
    ({"tool": "prof", "workload": "fib", "stdin": "!!"}, "base64"),
    ({"tool": "prof", "workload": "fib", "max_insts": 0},
     "max_insts"),
    ({"tool": "prof", "workload": "fib", "max_insts": True},
     "max_insts"),
    ({"tool": "prof", "workload": "fib", "wl_args": [1]},
     "list of strings"),
    ({"tool": "prof", "workload": "fib", "heap_mode": "bogus"},
     "unknown heap_mode"),
])
def test_spec_from_wire_rejects(wire, fragment):
    with pytest.raises(ProtocolError) as exc:
        spec_from_wire(wire)
    assert exc.value.kind == "bad-request"
    assert fragment in str(exc.value)


_EXE = base64.b64encode(b"exe").decode()


def test_run_from_wire_decodes_and_defaults():
    assert run_from_wire({"exe": _EXE}) == (b"exe", (), b"",
                                            2_000_000_000)
    wire = {"exe": _EXE, "args": ["a", "b"],
            "stdin": base64.b64encode(b"in").decode(), "max_insts": 7}
    assert run_from_wire(wire) == (b"exe", ("a", "b"), b"in", 7)


@pytest.mark.parametrize("wire, fragment", [
    ({}, "run op needs base64 exe bytes"),
    ({"exe": ""}, "run op needs base64 exe bytes"),
    ({"exe": 42}, "exe must be base64 text"),
    ({"exe": "!!"}, "exe is not valid base64"),
    ({"exe": _EXE, "args": "a"}, "args must be a list of strings"),
    ({"exe": _EXE, "args": [1]}, "args must be a list of strings"),
    ({"exe": _EXE, "stdin": ["x"]}, "stdin must be base64 text"),
    ({"exe": _EXE, "stdin": "!!"}, "stdin is not valid base64"),
    ({"exe": _EXE, "max_insts": 0}, "max_insts must be an integer >= 1"),
    ({"exe": _EXE, "max_insts": True},
     "max_insts must be an integer >= 1"),
    ({"exe": _EXE, "max_insts": "9"},
     "max_insts must be an integer >= 1"),
])
def test_run_from_wire_rejects(wire, fragment):
    with pytest.raises(ProtocolError) as exc:
        run_from_wire(wire)
    assert exc.value.kind == "bad-request"
    assert fragment in str(exc.value)


def test_options_from_wire():
    assert options_from_wire({}) == 1
    assert options_from_wire({"retries": 0}) == 0
    for wire, fragment in (({"retries": -1}, "retries must be an integer"),
                           ({"retries": True}, "retries must be an integer"),
                           ({"retries": 1.5}, "retries must be an integer")):
        with pytest.raises(ProtocolError) as exc:
            options_from_wire(wire)
        assert exc.value.kind == "bad-request"
        assert fragment in str(exc.value)


def test_validate_tenant():
    assert validate_tenant(None) == "default"
    assert validate_tenant("team-a.prod_1") == "team-a.prod_1"
    for bad in ("", "a/b", "a b", "x" * 65, 42):
        with pytest.raises(ProtocolError):
            validate_tenant(bad)


def test_validate_trace_id_accepts_v1_absence_and_v2_ids():
    # A request without a trace_id: None passes through so the daemon
    # knows to mint a server-side id.
    assert validate_trace_id(None) is None
    # Client ids: same alphabet as tenants.
    assert validate_trace_id("a3f0c1d2e4b59876") == "a3f0c1d2e4b59876"
    assert validate_trace_id("req-1.retry_2") == "req-1.retry_2"
    for bad in ("", "a b", "id/with/slash", "x" * 65, 42, ["id"]):
        with pytest.raises(ProtocolError) as exc:
            validate_trace_id(bad)
        assert exc.value.kind == "bad-request"


def test_schema_is_v2_and_ops_include_metrics():
    assert protocol.SERVE_SCHEMA.startswith("wrl-serve/v2/")
    assert "metrics" in protocol.OPS
    assert "metrics" in protocol.TERMINAL_TYPES


def test_eval_dedup_key_identity():
    spec = TaskSpec(tool="prof", workload="fib", wl_args=("10",))
    key = eval_dedup_key(spec, "default", 1)
    assert key == eval_dedup_key(spec, "default", 1)
    # Anything that can change the record changes the key.
    assert key != eval_dedup_key(spec, "other", 1)
    assert key != eval_dedup_key(spec, "default", 2)
    other = TaskSpec(tool="prof", workload="fib", wl_args=("11",))
    assert key != eval_dedup_key(other, "default", 1)


def test_run_dedup_key_uses_exe_hash():
    key = run_dedup_key(b"exe", ("a",), b"", 100, "t")
    assert key == run_dedup_key(b"exe", ("a",), b"", 100, "t")
    assert key != run_dedup_key(b"exe2", ("a",), b"", 100, "t")
    assert key != run_dedup_key(b"exe", ("b",), b"", 100, "t")
    assert key != run_dedup_key(b"exe", ("a",), b"x", 100, "t")
    assert key != run_dedup_key(b"exe", ("a",), b"", 101, "t")
    assert key != run_dedup_key(b"exe", ("a",), b"", 100, "u")


def test_stdin_hashed_not_embedded_in_eval_key():
    big = bytes(range(256)) * 64
    spec = TaskSpec(tool="prof", workload="fib", stdin=big)
    key = eval_dedup_key(spec, "default", 1)
    assert base64.b64encode(big).decode() not in key
    assert len(key) == 64                     # sha256 hex
