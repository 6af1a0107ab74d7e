import csv
import hashlib
import io
import os
import re
import tempfile
from concurrent.futures import Future
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resicomp import cli, pipeline
from resicomp.cli import (CSV_FIELDS, EXIT_IO, EXIT_OK, EXIT_USAGE,
                          EXIT_VALIDATION, MODEL_ENV, ConfigError,
                          derive_seed, main, parse_config, parse_mode_spec)
from resicomp.entropy_coder import Bitstring
from resicomp.image_io import psnr_db, read_ppm, write_ppm
from resicomp.pipeline import PipelineConfig, stream_header
from resicomp.synthetic import synthetic_image
from resicomp.token_codec import CodecConfig
from resicomp.transport import (HEADER_SIZE, Packet, PacketFormatError,
                                fec_channel, packet_from_bytes, preset,
                                read_traces)


@pytest.fixture()
def image_file(tmp_path):
    path = tmp_path / "input.pgm"
    write_ppm(path, synthetic_image(1, height=48, width=48))
    return path


def test_derive_seed_is_stable_and_splits():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(1, 1, 2) != derive_seed(0, 1, 2)


def test_derive_seed_values_are_pinned():
    # Seeds from before unsigned packing; every signed 64-bit input
    # must keep hashing to the same bytes.
    assert derive_seed(0, 1, 2) == 8901564848246840783
    assert derive_seed(-5, 3) == 13359094535925643086
    assert derive_seed(2**62, -1) == 14473065819198696368


def test_derive_seed_accepts_seeds_above_2_63():
    big = derive_seed(0, 0, 0, 0)
    assert big >= 2**63
    assert 0 <= derive_seed(big, 0, 10) < 2**64
    assert derive_seed(big, 1) == derive_seed(big - 2**64, 1)


def test_sweep_with_derived_seeds_above_2_63(tmp_path):
    # master_seed 0 derives an episode seed >= 2**63 for image 0, rep 0,
    # preset 0, which is then split again per mode and L.
    assert derive_seed(0, 0, 0, 0) >= 2**63
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "synthetic_images = 1\n"
        "modes = LC\n"
        "l_values = 4\n"
        "presets = EP3\n"
        "channels = 16\n"
        "master_seed = 0\n"
    )
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config),
                 "--output", str(out_csv)]) == EXIT_OK
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 1
    assert int(rows[0]["seed"]) == derive_seed(derive_seed(0, 0, 0, 0), 0, 4)


def test_parse_mode_spec():
    assert parse_mode_spec("LC") == ("LC", {})
    assert parse_mode_spec("MDC:2") == ("MDC", {"n_d": 2})
    assert parse_mode_spec("SLC:1") == ("SLC", {"enhancements": 1})
    with pytest.raises(ConfigError):
        parse_mode_spec("LC:3")
    with pytest.raises(ConfigError):
        parse_mode_spec("MDC:x")


def test_encode_decode_roundtrip(tmp_path, image_file):
    pkt_dir = tmp_path / "pkts"
    out = tmp_path / "out.pgm"
    args = ["--channels", "32", "--L", "5"]
    assert main(["encode", "--image", str(image_file),
                 "--out", str(pkt_dir)] + args) == EXIT_OK
    assert len(list(pkt_dir.glob("slice_*.pkt"))) == 5
    assert main(["decode", "--packets", str(pkt_dir),
                 "--out", str(out)]) == EXIT_OK
    original = read_ppm(image_file)
    decoded = read_ppm(out)
    assert decoded.shape == original.shape
    assert psnr_db(original, decoded) >= 40.0


def test_decode_through_trace(tmp_path, image_file, capsys):
    pkt_dir = tmp_path / "pkts"
    out = tmp_path / "out.pgm"
    args = ["--channels", "16", "--L", "5"]
    main(["encode", "--image", str(image_file), "--out", str(pkt_dir)]
         + args)
    trace = tmp_path / "trace.txt"
    trace.write_text("11011\n")
    assert main(["decode", "--packets", str(pkt_dir), "--trace", str(trace),
                 "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "outcome=concealed" in captured
    assert "decoded=2/5" in captured


def test_decode_counts_the_bits_of_the_packets_it_holds(tmp_path, capsys):
    path = tmp_path / "input.pgm"
    write_ppm(path, synthetic_image(1, height=48, width=64))
    pkt_dir = tmp_path / "pkts"
    out = str(tmp_path / "out.pgm")
    assert main(["encode", "--image", str(path), "--out",
                 str(pkt_dir)]) == EXIT_OK
    capsys.readouterr()
    assert main(["decode", "--packets", str(pkt_dir), "--out", out]) == EXIT_OK
    assert "decoded=10/10 payload_bits=1808" in capsys.readouterr().out
    trace = tmp_path / "trace.txt"
    trace.write_text("1000000000\n")
    assert main(["decode", "--packets", str(pkt_dir), "--trace", str(trace),
                 "--out", out]) == EXIT_OK
    assert "decoded=1/10 payload_bits=176" in capsys.readouterr().out
    # The last slice's packet, rewritten as another image's, is rejected.
    last = pkt_dir / "slice_009.pkt"
    packet = packet_from_bytes(last.read_bytes())
    last.write_bytes(Packet(header=replace(packet.header, image_id=5),
                            payload=packet.payload).to_bytes())
    assert main(["decode", "--packets", str(pkt_dir), "--out", out]) == EXIT_OK
    bits = 1808 - packet.payload.bit_length
    assert f"decoded=9/10 payload_bits={bits}" in capsys.readouterr().out


def test_decode_reads_everything_from_the_packet_headers(tmp_path, capsys):
    image = synthetic_image(2, height=40, width=56)
    rgb = np.stack([image, image[::-1], 255 - image], axis=2)
    path = tmp_path / "input.ppm"
    write_ppm(path, rgb)
    pkt_dir = tmp_path / "pkts"
    out = tmp_path / "out.ppm"
    assert main(["encode", "--image", str(path), "--out", str(pkt_dir),
                 "--mode", "MDC:2", "--quality", "2", "--channels", "16",
                 "--seed", "-1", "--beta", "0.3333", "--L", "6"]) == EXIT_OK
    assert sorted(p.name for p in pkt_dir.iterdir()) == [
        f"slice_{i:03d}.pkt" for i in range(6)]
    assert main(["decode", "--packets", str(pkt_dir),
                 "--out", str(out)]) == EXIT_OK
    assert "outcome=lossless decoded=6/6" in capsys.readouterr().out
    assert read_ppm(out).shape == rgb.shape


def test_decode_opens_the_stream_most_packets_share(tmp_path, image_file,
                                                   capsys):
    own, other = tmp_path / "own", tmp_path / "other"
    out = str(tmp_path / "out.pgm")
    assert main(["encode", "--image", str(image_file), "--out", str(own),
                 "--channels", "16", "--L", "4"]) == EXIT_OK
    assert main(["encode", "--image", str(image_file), "--out", str(other),
                 "--channels", "8", "--L", "6"]) == EXIT_OK
    # A packet of another stream that sorts before all of the stream's own.
    (own / "slice_0.pkt").write_bytes((other / "slice_001.pkt").read_bytes())
    capsys.readouterr()
    assert main(["decode", "--packets", str(own), "--out", out]) == EXIT_OK
    assert "outcome=lossless decoded=4/4" in capsys.readouterr().out
    # On a tie the first stream in file-name order is decoded.
    for name in ("slice_0.pkt", "slice_002.pkt", "slice_003.pkt"):
        (own / name).unlink()
    (own / "slice_001.pkt").write_bytes(
        (other / "slice_001.pkt").read_bytes())
    assert main(["decode", "--packets", str(own), "--out", out]) == EXIT_OK
    assert "decoded=1/4" in capsys.readouterr().out


def test_decode_takes_three_options(capsys):
    assert main(["decode", "--help"]) == EXIT_OK
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"--\w+", usage) == ["--packets", "--trace", "--out"]


def test_encode_refuses_more_slices_than_the_header_holds(tmp_path, capsys):
    path = tmp_path / "big.pgm"
    write_ppm(path, synthetic_image(3, height=512, width=512))
    capsys.readouterr()
    assert main(["encode", "--image", str(path), "--out",
                 str(tmp_path / "pkts"), "--L", "256"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "total_slices 256" in err


def test_decode_under_another_model_is_a_validation_error(
        tmp_path, image_file, monkeypatch, capsys):
    pkt_dir = tmp_path / "pkts"
    assert main(["encode", "--image", str(image_file), "--out", str(pkt_dir),
                 "--channels", "16", "--L", "4"]) == EXIT_OK
    model = tmp_path / "model.rcpm"
    assert main(["fit-model", "--synthetic", "2", "--channels", "16",
                 "--out", str(model)]) == EXIT_OK
    monkeypatch.setenv(MODEL_ENV, str(model))
    capsys.readouterr()
    out = tmp_path / "out.pgm"
    assert main(["decode", "--packets", str(pkt_dir),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "prior" in err
    assert not out.exists()


def _flip_bit(path, byte=40):
    data = bytearray(path.read_bytes())
    data[byte] ^= 0x01
    path.write_bytes(bytes(data))


def test_decode_conceals_a_damaged_packet(tmp_path, image_file, capsys):
    pkt_dir = tmp_path / "pkts"
    out = tmp_path / "out.pgm"
    assert main(["encode", "--image", str(image_file), "--out", str(pkt_dir),
                 "--channels", "16", "--L", "4"]) == EXIT_OK
    _flip_bit(pkt_dir / "slice_001.pkt")
    assert main(["decode", "--packets", str(pkt_dir), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "outcome=concealed decoded=1/4" in captured.out
    assert "slice_001.pkt: CRC mismatch" in captured.err
    assert read_ppm(out).shape == read_ppm(image_file).shape


def test_decode_with_no_readable_packet_is_a_validation_error(
        tmp_path, image_file, capsys):
    pkt_dir = tmp_path / "pkts"
    out = tmp_path / "out.pgm"
    assert main(["encode", "--image", str(image_file), "--out", str(pkt_dir),
                 "--channels", "16", "--L", "4"]) == EXIT_OK
    for path in pkt_dir.glob("slice_*.pkt"):
        _flip_bit(path)
    capsys.readouterr()
    assert main(["decode", "--packets", str(pkt_dir), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: no readable packet in {pkt_dir}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def fault_streams(tmp_path_factory):
    """The wire bytes of an MDC:2 L=6 C=16 stream, and of another stream."""
    tmp = tmp_path_factory.mktemp("fault_streams")
    streams = []
    for seed, args in ((1, ["--mode", "MDC:2", "--L", "6"]),
                       (2, ["--L", "4"])):
        image = tmp / f"{seed}.pgm"
        write_ppm(image, synthetic_image(seed, height=48, width=64))
        pkt_dir = tmp / f"pkts{seed}"
        assert main(["encode", "--image", str(image), "--out", str(pkt_dir),
                     "--channels", "16"] + args) == EXIT_OK
        streams.append([p.read_bytes()
                        for p in sorted(pkt_dir.glob("slice_*.pkt"))])
    return streams


_FILE_FAULTS = ["flip", "truncate", "drop", "duplicate", "trailing",
                "foreign"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decode_survives_channel_faults(fault_streams, data):
    # Whatever files a channel leaves, decode conceals and exits 0, or
    # refuses them with exactly one error line; it never raises.
    own, other = fault_streams
    files = list(own)
    for _ in range(data.draw(st.integers(1, 6))):
        fault = data.draw(st.sampled_from(_FILE_FAULTS))
        if fault == "foreign":
            files.insert(data.draw(st.integers(0, len(files))),
                         data.draw(st.sampled_from(other)))
            continue
        if not files:
            continue
        k = data.draw(st.integers(0, len(files) - 1))
        wire = bytearray(files[k])
        if fault == "flip" and wire:
            bit = data.draw(st.integers(0, 8 * len(wire) - 1))
            wire[bit // 8] ^= 1 << (bit % 8)
        elif fault == "truncate":
            del wire[data.draw(st.integers(0, len(wire))):]
        elif fault == "trailing":
            wire += data.draw(st.binary(min_size=1, max_size=8))
        elif fault == "drop":
            del files[k]
            continue
        elif fault == "duplicate":
            files.insert(data.draw(st.integers(0, len(files))), files[k])
            continue
        files[k] = bytes(wire)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        pkt_dir = Path(tmp) / "pkts"
        pkt_dir.mkdir()
        for n, wire in enumerate(files):
            (pkt_dir / f"slice_{n:03d}.pkt").write_bytes(wire)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["decode", "--packets", str(pkt_dir),
                         "--out", str(Path(tmp) / "out.pgm")])
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    if code == EXIT_OK:
        assert "outcome=" in out.getvalue() and not errors
    else:
        assert code in (EXIT_VALIDATION, EXIT_IO) and len(errors) == 1


def _mutate(data, blob):
    """`blob` after one to three bit flips, truncations or appended
    bytes, as hypothesis draws them."""
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        fault = data.draw(st.sampled_from(["flip", "truncate", "trailing"]))
        if fault == "flip" and blob:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            blob[bit // 8] ^= 1 << (bit % 8)
        elif fault == "truncate":
            del blob[data.draw(st.integers(0, len(blob))):]
        elif fault == "trailing":
            blob += data.draw(st.binary(min_size=1, max_size=4))
    return bytes(blob)


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """A valid input of each file that the CLI reads besides packets: an
    image for `encode`, a model file and the L=4 stream coded under it
    for `decode` through RESICOMP_MODEL, a trace and an L=4 stream for
    `decode --trace`, and a sweep config."""
    tmp = tmp_path_factory.mktemp("input_files")
    image = tmp / "image.pgm"
    write_ppm(image, synthetic_image(3, height=24, width=32))
    model = tmp / "model.rcpm"
    assert main(["fit-model", "--synthetic", "1", "--channels", "16",
                 "--out", str(model)]) == EXIT_OK
    coded = ["encode", "--image", str(image), "--channels", "16", "--L", "4"]
    assert main(coded + ["--out", str(tmp / "pkts")]) == EXIT_OK
    with mock.patch.dict(os.environ, {MODEL_ENV: str(model)}):
        assert main(coded + ["--out", str(tmp / "model_pkts")]) == EXIT_OK
    return {
        "image": image.read_bytes(),
        "model": model.read_bytes(),
        "trace": b"1101\n",
        "config": b"synthetic_images = 1\nmodes = LC\nl_values = 2\n"
                  b"presets = EP3\nfec = 2/1\nchannels = 16\n# end",
        "pkts": tmp / "pkts",
        "model_pkts": tmp / "model_pkts",
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_input_file_crashes_the_cli(input_files, data):
    # Whatever an image, model file, trace or sweep config holds, the
    # command runs and exits 0, or refuses it with exactly one error
    # line and exit 2 or 3; it never raises.
    kind = data.draw(st.sampled_from(["image", "model", "trace", "config"]))
    blob = _mutate(data, input_files[kind])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ):
        os.environ.pop(MODEL_ENV, None)
        path = Path(tmp) / {"image": "in.pgm", "model": "model.rcpm",
                            "trace": "trace.txt", "config": "sweep.cfg"}[kind]
        path.write_bytes(blob)
        result = str(Path(tmp) / "result")
        argv = {
            "image": ["encode", "--image", str(path), "--out", result,
                      "--channels", "16", "--L", "4"],
            "model": ["decode", "--packets", str(input_files["model_pkts"]),
                      "--out", result],
            "trace": ["decode", "--packets", str(input_files["pkts"]),
                      "--trace", str(path), "--out", result],
            "config": ["sweep", "--config", str(path), "--output", result],
        }[kind]
        if kind == "model":
            os.environ[MODEL_ENV] = str(path)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    if code == EXIT_OK:
        assert not errors
    else:
        assert code in (EXIT_VALIDATION, EXIT_IO) and len(errors) == 1


@pytest.mark.parametrize("exc,code", [
    (ConfigError("boom"), EXIT_VALIDATION),
    (ValueError("boom"), EXIT_VALIDATION),
    (PacketFormatError("boom"), EXIT_VALIDATION),
    (OSError("boom"), EXIT_IO),
    (FileNotFoundError("boom"), EXIT_IO),
    (PermissionError("boom"), EXIT_IO),
])
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, exc,
                                               code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_modes", fail)
    assert main(["modes", "LC"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_packets_of_an_image_over_the_size_bound_are_refused(
        tmp_path, image_file, capsys):
    # 257x256 token positions, one row of blocks over 4096x4096.
    height, width = 16 * 257, 16 * 256
    pkt_dir = tmp_path / "pkts"
    assert main(["encode", "--image", str(image_file), "--out", str(pkt_dir),
                 "--channels", "16", "--L", "4"]) == EXIT_OK
    for path in pkt_dir.glob("slice_*.pkt"):
        packet = packet_from_bytes(path.read_bytes())
        header = replace(packet.header, height=height, width=width)
        path.write_bytes(replace(packet, header=header).to_bytes())
    capsys.readouterr()
    out = tmp_path / "out.pgm"
    assert main(["decode", "--packets", str(pkt_dir),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "token positions" in err[0]
    assert not out.exists()

    big = tmp_path / "big.pgm"
    write_ppm(big, np.zeros((height, width), np.uint8))
    assert main(["encode", "--image", str(big), "--out", str(tmp_path / "b"),
                 "--channels", "16"]) == EXIT_VALIDATION
    assert "token positions" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_trace_command(tmp_path):
    out = tmp_path / "traces.txt"
    assert main(["trace", "--preset", "EP5", "-n", "2000",
                 "--episodes", "3", "--out", str(out)]) == EXIT_OK
    traces = read_traces(out)
    assert len(traces) == 3
    assert all(len(t) == 2000 for t in traces)
    eps = np.mean([1.0 - t.flags.mean() for t in traces])
    assert abs(eps - 0.214) / 0.214 < 0.25  # short traces, loose band


@pytest.mark.parametrize("episodes", ["0", "-1"])
def test_trace_refuses_fewer_than_one_episode(tmp_path, capsys, episodes):
    out = tmp_path / "traces.txt"
    assert main(["trace", "--preset", "EP3", "-n", "4", "--episodes",
                 episodes, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_decode_through_an_empty_trace_is_a_validation_error(
        tmp_path, image_file, capsys):
    pkt_dir = tmp_path / "pkts"
    out = tmp_path / "out.pgm"
    assert main(["encode", "--image", str(image_file), "--out", str(pkt_dir),
                 "--channels", "16", "--L", "4"]) == EXIT_OK
    trace = tmp_path / "trace.txt"
    trace.write_text("")
    capsys.readouterr()
    assert main(["decode", "--packets", str(pkt_dir), "--trace", str(trace),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--mode", "LC", "--L", "6", "--preset", "EP3",
            "--seed", "7", "--channels", "16"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    rows = list(csv.DictReader(io.StringIO(first)))
    assert len(rows) == 1
    assert set(rows[0]) == set(CSV_FIELDS)


def test_modes_command(capsys):
    assert main(["modes", "LC", "MDC:2", "--L", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "LC (L=4" in out
    assert "1110" in out.replace(" ", "")


def test_modes_refuses_custom(capsys):
    assert main(["modes", "CUSTOM"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: unknown mode kind 'CUSTOM'\n"


@pytest.mark.parametrize("spec", ["MDC:2:9", "LC::", "SLC:1:"])
def test_a_mode_spec_with_extra_fields_is_a_validation_error(tmp_path, capsys,
                                                            spec):
    with pytest.raises(ConfigError):
        parse_mode_spec(spec)
    assert main(["modes", spec, "--L", "4"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: mode spec {spec!r} has more than one ':'\n"
    config = tmp_path / "sweep.cfg"
    config.write_text(f"synthetic_images = 1\nmodes = {spec}\n")
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config),
                 "--output", str(out_csv)]) == EXIT_VALIDATION
    assert not out_csv.exists()


def test_sweep_and_config(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# tiny smoke sweep\n"
        "[images]\n"
        "synthetic_images = 2\n"
        "[schemes]\n"
        "modes = LC, ISC\n"
        "l_values = 5\n"
        "presets = EP3\n"
        "fec = 7/3\n"
        "repetitions = 1\n"
        "channels = 16\n"
        "master_seed = 3\n"
    )
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config),
                 "--output", str(out_csv)]) == EXIT_OK
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 2 * (2 + 1)  # 2 images x (2 modes + 1 FEC pair)
    assert all(set(r) == set(CSV_FIELDS) for r in rows)
    schemes = {r["mode"] for r in rows}
    assert schemes == {"LC", "ISC", "FEC:7/3"}
    summary = capsys.readouterr().out
    assert "failure_ratio" in summary


PINNED_SWEEP = (
    "synthetic_images = 2\n"
    "modes = LC, ISC, MDC:2, SLC:1\n"
    "l_values = 4\n"
    "presets = EP3, EP6\n"
    "repetitions = 2\n"
    "fec = 4/2\n"
    "channels = 16\n"
    "master_seed = 3\n"
)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_output_is_pinned(tmp_path, capsys, jobs):
    # Seeds, plan seed, row order, CSV bytes and summary of a sweep with
    # every mode kind and an FEC pair; serial and pooled runs agree.
    config = tmp_path / "sweep.cfg"
    config.write_text(PINNED_SWEEP)
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config), "--output", str(out_csv),
                 "--jobs", jobs]) == EXIT_OK
    data = out_csv.read_bytes()
    assert data.count(b"\r\n") == 41
    assert hashlib.sha256(data).hexdigest() == (
        "a949e14f596b61d1e27a6dbada641f270f298083b307d8ffd18e7e763d681983")
    summary = capsys.readouterr().out.encode()
    assert hashlib.sha256(summary).hexdigest() == (
        "b4ae800c4241d8bd8bc7650ce7ff6c27eb89741ca1a6df7e2ec87837306aaae9")


def test_sweep_bits_are_the_packets_own(monkeypatch):
    # 408 / (96 * 112) * (96 * 112) is 407.99...; bpp times the pixel
    # count truncated it to 407.
    image = synthetic_image(0, height=96, width=112)
    cfg = PipelineConfig(codec=CodecConfig(channels=16), l=1)
    packet = Packet(header=stream_header(cfg, 96, 112),
                    payload=Bitstring(bytes(51)))
    monkeypatch.setattr(pipeline, "send", lambda *args, **kwargs: (
        [packet], None, SimpleNamespace(beta=1.0), None))
    row = cli.run_episode(image, cfg, preset("EP3"), 0)
    assert row["bits_payload"] == 408
    assert row["bits_total"] == 8 * (HEADER_SIZE + 51)
    assert row["bpp"] == round(408 / (96 * 112), 6)


@pytest.mark.parametrize("fec", [None, (2, 1)])
def test_an_episode_sends_samples_and_receives_once(monkeypatch, fec):
    # An FEC pair is one more source of the flags: a trace of n_data +
    # n_parity packets decides every slice at once, all arrive or none.
    image = synthetic_image(1, height=48, width=64)
    cfg = PipelineConfig(codec=CodecConfig(channels=16), l=4)
    calls = {"send": [], "sample_trace": [], "receive": []}

    def recorded(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append((args, out))
            return out
        return call

    monkeypatch.setattr(pipeline, "send", recorded("send", pipeline.send))
    monkeypatch.setattr(pipeline, "receive",
                        recorded("receive", pipeline.receive))
    monkeypatch.setattr(cli, "sample_trace",
                        recorded("sample_trace", cli.sample_trace))
    outcomes = set()
    for seed in range(6):
        row = cli.run_episode(image, cfg, preset("EP6"), seed, fec)
        assert [len(calls[name]) for name in calls] == [1, 1, 1]
        (_, trace), = calls["sample_trace"]
        (args, result), = calls["receive"]
        flags = list(args[1])
        if fec is None:
            assert len(trace) == 4 and flags == list(trace.flags)
            assert row["mode"] == "LC"
        else:
            assert len(trace) == 3
            assert flags == [fec_channel(2, 1, trace)] * 4
            assert row["mode"] == "FEC:2/1"
        assert row["outcome"] == result.outcome
        assert row["slices_decoded"] == len(result.decoded_slices)
        outcomes.add(row["outcome"])
        for made in calls.values():
            made.clear()
    if fec is not None:
        assert outcomes == {"lossless", "failed"}


def _tiny_sweep(tmp_path, text="modes = LC, ISC\n"):
    config = tmp_path / "sweep.cfg"
    config.write_text("synthetic_images = 1\nl_values = 4\npresets = EP3\n"
                      "channels = 16\n" + text)
    return config


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(_tiny_sweep(tmp_path)),
                 "--output", str(out_csv), "--jobs", jobs]) == EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"error: --jobs must be at least 1, not {jobs}\n"
    assert not out_csv.exists()


def test_sweep_pool_has_no_more_workers_than_episodes(tmp_path, monkeypatch):
    # A fork pool starts every worker at the first submit, so the count
    # asked for is the count started; no real pool is started here.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    config = _tiny_sweep(tmp_path)
    for jobs in ("5000", "1"):
        assert main(["sweep", "--config", str(config), "--output",
                     str(tmp_path / f"{jobs}.csv"), "--jobs", jobs]) == EXIT_OK
    assert sizes == [2]  # two episodes; one job runs without a pool
    assert (tmp_path / "5000.csv").read_bytes() == \
        (tmp_path / "1.csv").read_bytes()


def _refused_before_any_episode(tmp_path, capsys, monkeypatch, text, error):
    """A sweep config of `text` fails `parse_config` and exits 2 with
    `error` at --jobs 1 and 2, with no send and no CSV."""
    def no_send(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(pipeline, "send", no_send)
    config = _tiny_sweep(tmp_path, text)
    with pytest.raises(ConfigError, match=error):
        parse_config(config)
    out_csv = tmp_path / "out.csv"
    for jobs in ("1", "2"):
        assert main(["sweep", "--config", str(config), "--output",
                     str(out_csv), "--jobs", jobs]) == EXIT_VALIDATION
    assert capsys.readouterr().err == 2 * f"error: {error}\n"
    assert not out_csv.exists()


def test_sweep_checks_every_mode_at_every_l_before_any_episode(
        tmp_path, capsys, monkeypatch):
    _refused_before_any_episode(
        tmp_path, capsys, monkeypatch, "modes = LC, MDC:20\n",
        "mode MDC:20 at L=4: MDC requires 1 <= n_d <= L")


def test_sweep_checks_that_the_header_holds_every_l_before_any_episode(
        tmp_path, capsys, monkeypatch):
    _refused_before_any_episode(
        tmp_path, capsys, monkeypatch, "modes = LC\nl_values = 4, 300\n",
        "mode LC at L=300: total_slices 300 does not fit the packet header")


def _output_refused_before_any_episode(tmp_path, capsys, monkeypatch,
                                      output):
    """A sweep into `output` exits 3 with one error line and no send."""
    sends = []
    send = pipeline.send

    def counted(*args, **kwargs):
        sends.append(args)
        return send(*args, **kwargs)

    monkeypatch.setattr(pipeline, "send", counted)
    config = _tiny_sweep(tmp_path, "modes = LC, ISC\nsynthetic_images = 2\n"
                                   "repetitions = 3\n")
    assert main(["sweep", "--config", str(config), "--output",
                 str(output)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sends == []
    return err


def test_sweep_into_a_missing_directory_fails_before_any_episode(
        tmp_path, capsys, monkeypatch):
    out_csv = tmp_path / "missing" / "out.csv"
    _output_refused_before_any_episode(tmp_path, capsys, monkeypatch,
                                       out_csv)
    assert not out_csv.parent.exists()


def test_sweep_into_a_directory_fails_before_any_episode(
        tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    err = _output_refused_before_any_episode(tmp_path, capsys, monkeypatch,
                                             out_dir)
    assert err == f"error: the output {out_dir} is a directory\n"
    assert list(out_dir.iterdir()) == []


def test_simulate_output_is_pinned(capsys):
    assert main(["simulate", "--mode", "MDC:2", "--L", "4", "--preset", "EP6",
                 "--seed", "7", "--channels", "16"]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "28a8583408d7bc78aa7aab8c8bd873a9fb4d7a766563dec739a0366430c1c365")


def test_the_csv_names_a_mode_by_its_own_parameter():
    # Only MDC and SLC take a parameter; an LC config's stray n_d is not
    # coded in its header, so it is not in its label either.
    image = synthetic_image(1, height=48, width=64)
    for kind, params, label in (("LC", {"n_d": 2}, "LC"),
                                ("MDC", {"n_d": 2}, "MDC:2"),
                                ("SLC", {"enhancements": 1}, "SLC:1")):
        cfg = PipelineConfig(codec=CodecConfig(channels=16), mode_kind=kind,
                             l=4, mode_params=params)
        assert cli.run_episode(image, cfg, preset("EP3"), 1)["mode"] == label


def test_parse_config_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("presets = EP1\n")
    spec = parse_config(path)
    assert spec.l_values == [10]
    assert spec.modes == ["LC", "ISC"]
    assert spec.repetitions == 1


def test_parse_config_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("repetitions = 0\n")
    with pytest.raises(ConfigError, match="repetitions"):
        parse_config(path)
    path.write_text("modes = MDC\n")
    with pytest.raises(ConfigError, match="N_d"):
        parse_config(path)
    path.write_text("no_such_key = 5\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config(path)
    path.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)
    path.write_text("presets = EP9\n")
    with pytest.raises(ConfigError, match="EP9"):
        parse_config(path)


@pytest.mark.parametrize("text,match", [
    ("modes =\n", "modes"),
    ("presets =\n", "presets"),
    ("l_values =\nfec = 4/2\n", "l_values"),
    ("l_values = 4, 0\n", "L"),
    ("l_values = -3\n", "L"),
])
def test_sweep_refuses_empty_lists_and_nonpositive_l(tmp_path, capsys, text,
                                                     match):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        parse_config(path)
    assert main(["sweep", "--config", str(path),
                 "--output", str(tmp_path / "out.csv")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_exit_codes(tmp_path):
    # usage error
    assert main(["no-such-command"]) == EXIT_USAGE
    # validation error
    assert main(["simulate", "--preset", "EP9"]) == EXIT_VALIDATION
    # I/O error
    assert main(["encode", "--image", str(tmp_path / "missing.pgm"),
                 "--out", str(tmp_path / "x")]) == EXIT_IO
    bad = tmp_path / "bad.cfg"
    bad.write_text("repetitions = 0\n")
    assert main(["sweep", "--config", str(bad)]) == EXIT_VALIDATION


def test_model_env_var(tmp_path, image_file, monkeypatch):
    model = tmp_path / "model.rcpm"
    assert main(["fit-model", "--synthetic", "2", "--channels", "32",
                 "--out", str(model)]) == EXIT_OK
    monkeypatch.setenv(MODEL_ENV, str(model))
    pkt_dir = tmp_path / "pkts"
    out = tmp_path / "out.pgm"
    args = ["--channels", "32", "--L", "5"]
    assert main(["encode", "--image", str(image_file),
                 "--out", str(pkt_dir)] + args) == EXIT_OK
    assert main(["decode", "--packets", str(pkt_dir),
                 "--out", str(out)]) == EXIT_OK
    assert psnr_db(read_ppm(image_file), read_ppm(out)) >= 40.0
    # channel mismatch between model file and config is a hard error
    assert main(["encode", "--image", str(image_file),
                 "--out", str(pkt_dir), "--channels", "64",
                 "--L", "5"]) == EXIT_VALIDATION


@pytest.mark.parametrize("damage, reason", [("truncated", "truncated"),
                                            ("nan_stds", "finite")])
def test_bad_model_file_is_a_validation_error(tmp_path, image_file,
                                              monkeypatch, capsys, damage,
                                              reason):
    model = tmp_path / "model.rcpm"
    assert main(["fit-model", "--synthetic", "2", "--channels", "16",
                 "--out", str(model)]) == EXIT_OK
    raw = model.read_bytes()
    if damage == "truncated":
        model.write_bytes(raw[:8])
    else:
        # Header (4 + 6 bytes), 3 logits, 16 means, then the 16 stds.
        stds_at = 10 + 8 * 3 + 8 * 16
        nan = np.array([np.nan] * 16).tobytes()
        model.write_bytes(raw[:stds_at] + nan)
    monkeypatch.setenv(MODEL_ENV, str(model))
    capsys.readouterr()
    assert main(["encode", "--image", str(image_file),
                 "--out", str(tmp_path / "pkts"), "--channels", "16",
                 "--L", "4"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


def test_a_model_window_past_the_bound_writes_no_packet(tmp_path, image_file,
                                                       monkeypatch, capsys):
    model = tmp_path / "model.rcpm"
    assert main(["fit-model", "--synthetic", "2", "--channels", "16",
                 "--out", str(model)]) == EXIT_OK
    raw = bytearray(model.read_bytes())
    # Magic (4 bytes), version (1), channels (2), then the window (2).
    raw[7:9] = (65535).to_bytes(2, "little")
    model.write_bytes(bytes(raw))
    monkeypatch.setenv(MODEL_ENV, str(model))
    capsys.readouterr()
    out = tmp_path / "pkts"
    assert main(["encode", "--image", str(image_file), "--out", str(out),
                 "--channels", "16", "--L", "4"]) == EXIT_VALIDATION == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "window" in err
    assert not out.exists()


def test_fit_model_reads_only_the_images_in_a_directory(tmp_path, image_file):
    alone, mixed = tmp_path / "alone", tmp_path / "mixed"
    for folder in (alone, mixed):
        folder.mkdir()
        (folder / "input.pgm").write_bytes(image_file.read_bytes())
    (mixed / "README.txt").write_text("not an image\n")
    for folder in (alone, mixed):
        assert main(["fit-model", "--images", str(folder), "--channels", "16",
                     "--out", str(folder / "model.rcpm")]) == EXIT_OK
    assert (mixed / "model.rcpm").read_bytes() == \
        (alone / "model.rcpm").read_bytes()


def test_fit_model_on_a_directory_without_images_is_a_validation_error(
        tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    model = tmp_path / "model.rcpm"
    assert main(["fit-model", "--images", str(empty), "--channels", "16",
                 "--out", str(model)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: no images found in {empty}\n"
    assert not model.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_fit_model_on_no_synthetic_images_is_a_validation_error(
        tmp_path, capsys, count):
    model = tmp_path / "model.rcpm"
    assert main(["fit-model", "--synthetic", count, "--channels", "16",
                 "--out", str(model)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"error: no images: {count} synthetic images asked for\n"
    assert not model.exists()


def test_sweep_over_no_images_is_a_validation_error(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("synthetic_images = 0\nmodes = LC\nl_values = 4\n"
                      "channels = 16\n")
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config),
                 "--output", str(out_csv)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no images: 0 synthetic images asked for\n"
    assert not out_csv.exists()


def test_model_env_changes_bitstream(tmp_path, image_file, monkeypatch):
    pkt_a = tmp_path / "a"
    pkt_b = tmp_path / "b"
    args = ["--channels", "16", "--L", "5"]
    main(["encode", "--image", str(image_file), "--out", str(pkt_a)] + args)
    model = tmp_path / "model.rcpm"
    main(["fit-model", "--synthetic", "4", "--channels", "16",
          "--out", str(model)])
    monkeypatch.setenv(MODEL_ENV, str(model))
    main(["encode", "--image", str(image_file), "--out", str(pkt_b)] + args)
    raw_a = (pkt_a / "slice_000.pkt").read_bytes()
    raw_b = (pkt_b / "slice_000.pkt").read_bytes()
    assert raw_a != raw_b
