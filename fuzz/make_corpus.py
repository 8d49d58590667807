#!/usr/bin/env python3
"""Regenerates the checked-in seed corpora under fuzz/corpus/.

The corpora are committed (CI and the standalone driver consume them
without running this script); rerun after changing the io/ encodings:

    python3 fuzz/make_corpus.py

Seeds are deliberately minimal-but-accepting: each one parses successfully
(or exercises one named reject path, e.g. the *_repro files pinning fixed
decoder defects), so mutation starts deep inside the decoders instead of
dying at the magic check. The artifact corpus additionally seeds from
tests/golden/repo_v2.qcd, the richest accepting input in the tree.
"""

import pathlib
import shutil
import struct
import zlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fuzz" / "corpus"


def u8(v):
    return struct.pack("<B", v)


def u32(v):
    return struct.pack("<I", v)


def u64(v):
    return struct.pack("<Q", v)


def i32(v):
    return struct.pack("<i", v)


def f64(v):
    return struct.pack("<d", v)


def f64_vector(values):
    return u64(len(values)) + b"".join(f64(v) for v in values)


def string(s):
    raw = s.encode()
    return u64(len(raw)) + raw


def calibration(num_qubits=2, edges=((0, 1),)):
    """io_detail::encode_calibration for a small, semantically valid device."""
    body = i32(num_qubits) + u64(len(edges))
    for a, b in edges:
        body += i32(a) + i32(b)
    body += b"".join(f64(0.001) for _ in range(num_qubits))          # sx
    body += b"".join(f64(0.01) + f64(0.02) for _ in range(num_qubits))  # readout
    body += b"".join(f64(100.0) + f64(80.0) for _ in range(num_qubits))  # T1/T2
    body += b"".join(f64(0.02) for _ in edges)                       # cx
    return body


def status_ok():
    return u8(0) + string("")


def write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    print(f"{path.relative_to(ROOT)}  {len(data)} bytes")


def deserializer_corpus():
    out = CORPUS / "deserializer"
    # The harness treats the input as an interleaved opcode/data stream, so
    # any bytes work; these start it on successful typed reads.
    write(out / "primitives",
          u8(1) + u32(0xDEADBEEF) + u8(2) + u64(2**40) + u8(4) + f64(-0.0) +
          u8(5) + u8(1) + u8(3) + i32(-7))
    write(out / "containers",
          u8(6) + string("hi") + u8(7) + f64_vector([1.5, -2.25]) +
          u8(8) + u64(3) + b"\x00\x01\x02" + u8(9) + u8(1) + u64(42))


def wire_corpus():
    out = CORPUS / "wire_frame"
    write(out / "predict_request", u8(1) + f64_vector([0.25, -1.5, 3.0]))
    write(out / "predict_response_ok",
          u8(2) + status_ok() + i32(1) + u64(7) + u8(2) +
          f64_vector([-0.125, 0.875]))
    write(out / "predict_response_refusal",
          u8(2) + u8(8) + string("queue full"))  # kResourceExhausted
    write(out / "calibration_push", u8(3) + calibration())
    write(out / "calibration_ack_ok",
          u8(4) + status_ok() + u8(0) + u64(3) + u8(1) + status_ok())
    # Pinned reproducer: a 13-byte push claiming INT32_MAX qubits used to
    # reach the Calibration constructor and force a multi-GB allocation
    # (bad_alloc through the no-throw decoder contract); must decode to
    # kDataLoss. Regression-tested in tests/test_wire.cpp.
    write(out / "huge_qubit_count_repro", u8(3) + i32(0x7FFFFFFF) + u64(0))


def artifact_section(section_id, payload):
    return u32(section_id) + u64(len(payload)) + u32(zlib.crc32(payload)) + payload


def artifact_corpus():
    out = CORPUS / "artifact_container"
    out.mkdir(parents=True, exist_ok=True)
    golden = ROOT / "tests" / "golden" / "repo_v2.qcd"
    shutil.copyfile(golden, out / "repo_v2.qcd")
    print(f"{(out / 'repo_v2.qcd').relative_to(ROOT)}  copied from tests/golden")

    magic = b"QCAD" + u32(2)
    # Minimal accepting container: empty repository, one calibration day,
    # default-shaped config (the config payload mirrors encode_config field
    # order; values are the struct defaults that pass semantic validation).
    repo = u64(0) + f64_vector([1.0, 1.0]) + f64(0.5)
    history = u64(1) + calibration()
    config = (f64(0.05) + f64(0.3) + u8(1) + u8(1) +
              u8(1) + u8(0) + i32(0) + u8(0) +
              i32(3) + i32(8) + i32(16) + f64(0.05) + f64(1.0) + f64(4.0) +
              u8(0) + f64(0.5) + u8(0) + f64_vector([-0.5, 0.0, 0.5]) +
              u64(7) + i32(4) + f64(0.02) + f64(0.1) + u8(1) + u64(0) +
              u8(1) + f64(1.0) +
              u64(16) + u64(500) + u8(0) + u64(1) + u64(64) + u64(0) +
              u8(0) + u64(0) + f64(0.0))
    write(out / "minimal_container",
          magic + u32(3) +
          artifact_section(1, repo) +
          artifact_section(2, history) +
          artifact_section(3, config))
    # Pinned reproducer: calibration-history day claiming INT32_MAX qubits
    # behind a valid CRC — the same unbounded-allocation defect as the wire
    # reproducer, reached through the artifact path. Must be kDataLoss.
    hostile_history = u64(1) + i32(0x7FFFFFFF) + u64(0)
    write(out / "huge_qubit_count_repro",
          magic + u32(1) + artifact_section(2, hostile_history))
    write(out / "bad_magic", b"NOPE" + u32(1) + u32(0))


def fleet_config_corpus():
    out = CORPUS / "fleet_config"
    # Accepting seeds spanning the grammar: defaults-only, every device key,
    # comments/whitespace, and a two-topology fleet (parse accepts it; only
    # the harness's same-topology rule rejects mixed fleets later).
    write(out / "minimal", b"device name=a topology=belem\n")
    write(out / "full_keys",
          b"fleet days=389 seed=7\n"
          b"device name=dev0 topology=belem seed=2021 error_scale=1.2 "
          b"t_scale=0.9 ou_sigma_scale=1.1 baseline_jitter=0.15 "
          b"episode_shift=-12 maintenance_rate=0.02 maintenance_seed=99\n")
    write(out / "comments",
          b"# fleet scenario\n\n"
          b"fleet days=30 seed=2\n"
          b"  device name=a topology=belem seed=5  # trailing note\n"
          b"\tdevice name=b topology=belem seed=6\n")
    write(out / "two_topologies",
          b"fleet days=60 seed=3\n"
          b"device name=b0 topology=belem seed=1\n"
          b"device name=j0 topology=jakarta seed=2\n")
    # Named reject path: unknown key (mutation should flip it into accepts).
    write(out / "unknown_key_reject",
          b"device name=a topology=belem warp_factor=9\n")


def transpile_corpus():
    out = CORPUS / "transpile"
    # The harness reads the input as a byte-driven spec stream (topology,
    # qubit/gate counts, per-gate kind/operand/angle bytes), so structured
    # seeds just need enough bytes to route a non-trivial circuit.
    write(out / "belem_dense", bytes([0, 4]) + bytes(range(3, 96)))
    write(out / "jakarta_wide", bytes([1, 6]) + bytes((7 * i + 5) % 251 for i in range(120)))
    write(out / "line_hostile", bytes([2, 5, 3]) + bytes((13 * i) % 256 for i in range(80)))
    write(out / "ring_symbolic", bytes([3, 4, 2]) + bytes((29 * i + 1) % 256 for i in range(100)))
    # Pinned reproducer: an out-of-range readout qubit reaching the
    # noise-aware layout search used to read past the candidate layout in
    # layout_cost (heap-buffer-overflow); transpile_model must reject it
    # up front. Regression-tested in tests/test_transpile.cpp.
    write(out / "hostile_readout_repro", bytes(7))


def main():
    deserializer_corpus()
    wire_corpus()
    artifact_corpus()
    fleet_config_corpus()
    transpile_corpus()


if __name__ == "__main__":
    main()
