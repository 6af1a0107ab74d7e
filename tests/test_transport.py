import hashlib
import itertools

import numpy as np
import pytest

from resicomp.entropy_coder import Bitstring
from resicomp.transport import (HEADER_SIZE, PACKET_MAGIC, PRESET_TABLE,
                                LossModel, LossTrace, Packet,
                                PacketFormatError, PacketHeader, apply_loss,
                                fec_channel, packet_from_bytes, preset,
                                read_traces, sample_trace, stationary,
                                stationary_distribution, trace_stats,
                                write_traces)


def _header(**overrides):
    fields = dict(image_id=7, slice_index=2, total_slices=10, mode_id=2,
                  mode_param=2, plan_seed=123456789, beta_milli=500,
                  channels=64, quality=0.75, clamp=127, height=96,
                  width=112, planes=3,
                  prior_fingerprint=b"\x01\x02\x03\x04\x05\x06\x07\x08")
    fields.update(overrides)
    return PacketHeader(**fields)


def _eig_stationary(transition):
    w, v = np.linalg.eig(np.asarray(transition).T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    return pi / pi.sum()


def test_preset_ep3_bad_self_loop():
    model = preset("EP3")
    assert model.transition[1, 1] == pytest.approx(0.8)


def test_preset_ep1_calibration():
    # The bad-state self-loop anchors gamma: 1/(1-0.8462) ~ 6.50.
    model = preset("EP1")
    assert model.transition[1, 1] == pytest.approx(0.8462)
    gamma = 1.0 / (1.0 - 0.8462)
    assert model.transition[0, 1] == pytest.approx(
        0.002 / (gamma * 0.998), rel=1e-9)
    pi = _eig_stationary(model.transition)
    assert pi[1] == pytest.approx(0.002, abs=1e-9)


def test_preset_ep5_burst_length():
    _, gamma = stationary(preset("EP5"))
    assert gamma == pytest.approx(10.0)


def test_stationary_ep4_matches_eigenvector_oracle():
    model = preset("EP4")
    eps, gamma = stationary(model)
    assert eps == pytest.approx(0.136, abs=1e-6)
    assert gamma == pytest.approx(1.687, abs=2e-3)
    assert eps == pytest.approx(_eig_stationary(model.transition)[1],
                                abs=1e-9)


def test_all_presets_hit_their_targets():
    for name, record in PRESET_TABLE.items():
        eps_target, gamma_target = record[4], record[5]
        eps, gamma = stationary(preset(name))
        assert eps == pytest.approx(eps_target, rel=1e-6), name
        assert gamma == pytest.approx(gamma_target, rel=0.01), name


def _memoryless(eps):
    """Loss with probability eps at every packet, whatever came before."""
    return LossModel([[1.0 - eps, eps], [1.0 - eps, eps]])


def test_iid_stationary():
    eps, gamma = stationary(_memoryless(0.1))
    assert eps == pytest.approx(0.1)
    assert gamma == pytest.approx(1 / 0.9)


def test_absorbing_good_state_means_no_loss():
    eps, _ = stationary(LossModel([[1.0, 0.0], [0.5, 0.5]]))
    assert eps == pytest.approx(0.0, abs=1e-9)


def test_lossless_model_delivers_everything():
    trace = sample_trace(_memoryless(0.0), 500, rng_seed=3)
    assert trace.flags.all()


# sha256 over np.packbits(flags) of sample_trace(preset, 100, seed) for
# seeds 0..63, with the number of lost packets among those 6400.
TRACE_PINS = {
    "EP1": (8, "1f2376278803cd8ae0645f6025bfd893a41bc4c70971bff0cd3d6ae2acad816c"),
    "EP2": (212, "8d0cd0a582f3e4a7a2b4f2d6be542e566758dc6ea07fabef22c68108c1f1116b"),
    "EP3": (509, "11eb533a0fbe078c775c0743d382cd9053d9e642206b8ef0c5b047c54d54bbf1"),
    "EP4": (877, "4bbb410e0f180515ce20b4e506539477348ca7ead07303ffd639da1c9156cd95"),
    "EP5": (1596, "e54f3ce4bdc76cea668e1f3c75b392b16c6a53e0f3519e40fb48065490b8444d"),
    "EP6": (2117, "39c03933da54e4126c3c069a6530a7571960bba5f3503722e239efaa05d2fe49"),
}


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_sample_trace_flags_are_pinned(name):
    digest = hashlib.sha256()
    lost = 0
    for seed in range(64):
        flags = sample_trace(preset(name), 100, seed).flags
        lost += int((~flags).sum())
        digest.update(np.packbits(flags).tobytes())
    assert (lost, digest.hexdigest()) == TRACE_PINS[name]


def test_sample_trace_deterministic():
    a = sample_trace(preset("EP3"), 1000, rng_seed=11)
    b = sample_trace(preset("EP3"), 1000, rng_seed=11)
    assert np.array_equal(a.flags, b.flags)


def test_trace_stats_counts_bursts():
    trace = LossTrace(np.array([1, 0, 0, 1, 0, 1, 1], dtype=bool))
    eps, gamma = trace_stats(trace)
    assert eps == pytest.approx(3 / 7)
    assert gamma == pytest.approx(1.5)  # bursts of 2 and 1


def test_apply_loss():
    packets = ["a", "b", "c"]
    received, flags = apply_loss(packets, LossTrace(np.array([1, 1, 1],
                                                             bool)))
    assert received == packets
    received, flags = apply_loss(packets, LossTrace(np.array([1, 0, 1],
                                                             bool)))
    assert received == ["a", "c"]
    assert flags.tolist() == [True, False, True]
    with pytest.raises(ValueError):
        apply_loss(packets, LossTrace(np.array([1, 0], bool)))


def test_packet_wire_roundtrip():
    packet = Packet(header=_header(), payload=Bitstring(b"\x01\x02\x03"))
    raw = packet.to_bytes()
    assert raw[:4] == PACKET_MAGIC
    assert len(raw) == HEADER_SIZE + 3
    assert packet.wire_bits == 8 * len(raw)
    back = packet_from_bytes(raw)
    assert back.header == packet.header
    assert back.payload.data == b"\x01\x02\x03"


def test_packet_header_size_is_pinned():
    # 40 bytes in version 1; version 2 adds the mode parameter, quality,
    # clamp, output size and prior fingerprint and drops the flags byte;
    # version 3 drops the grid size, which follows from the output size.
    assert HEADER_SIZE == 59


@pytest.mark.parametrize("field,value", [
    ("total_slices", 256), ("image_id", -1), ("image_id", 2**64),
    ("beta_milli", 65536), ("clamp", 32768), ("quality", "high")])
def test_header_refuses_values_its_fields_cannot_hold(field, value):
    with pytest.raises(ValueError, match=field):
        _header(**{field: value})


def test_corrupted_packet_rejected():
    raw = bytearray(Packet(header=_header(),
                           payload=Bitstring(b"\xaa" * 8)).to_bytes())
    raw[-1] ^= 0xFF
    with pytest.raises(PacketFormatError):
        packet_from_bytes(bytes(raw))
    with pytest.raises(PacketFormatError):
        packet_from_bytes(bytes(raw[:10]))
    bad_magic = b"XXXX" + bytes(raw[4:])
    with pytest.raises(PacketFormatError):
        packet_from_bytes(bad_magic)


def test_bytes_after_the_payload_rejected():
    # The CRC does not cover them, so the packet cannot vouch for them.
    raw = Packet(header=_header(), payload=Bitstring(b"\xaa" * 8)).to_bytes()
    assert packet_from_bytes(raw).payload.data == b"\xaa" * 8
    for junk in (b"\x00", b"junk"):
        with pytest.raises(PacketFormatError, match="after the payload"):
            packet_from_bytes(raw + junk)


def test_slice_index_bounds_checked():
    raw = Packet(header=_header(slice_index=9, total_slices=5),
                 payload=Bitstring(b"")).to_bytes()
    with pytest.raises(PacketFormatError):
        packet_from_bytes(raw)


def test_fec_zero_losses_decodable():
    assert fec_channel(7, 3, LossTrace(np.ones(10, bool)))


def test_fec_matches_exhaustive_enumeration():
    for n_data, n_parity in [(1, 0), (2, 1), (3, 2), (7, 3), (5, 7)]:
        n = n_data + n_parity
        for bits in itertools.product([True, False], repeat=n):
            trace = LossTrace(np.array(bits))
            assert fec_channel(n_data, n_parity, trace) == \
                (sum(bits) >= n_data)


def test_fec_trace_length_checked():
    with pytest.raises(ValueError):
        fec_channel(7, 3, LossTrace(np.ones(9, bool)))


def test_uep_halves_base_loss_probability():
    # Protecting a slice under iid loss squares its loss probability.
    eps = 0.3
    rng = np.random.default_rng(0)
    n = 200_000
    flags = rng.random((n, 2)) >= eps
    lost_both = np.mean(~flags[:, 0] & ~flags[:, 1])
    assert lost_both == pytest.approx(eps * eps, rel=0.05)


def test_trace_file_roundtrip(tmp_path):
    traces = [LossTrace(np.array([1, 0, 1], bool)),
              LossTrace(np.array([0, 0, 1, 1], bool))]
    path = tmp_path / "traces.txt"
    write_traces(path, traces)
    assert path.read_text() == "101\n0011\n"
    back = read_traces(path)
    assert len(back) == 2
    assert np.array_equal(back[0].flags, traces[0].flags)
    assert np.array_equal(back[1].flags, traces[1].flags)


def test_trace_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("10x1\n")
    with pytest.raises(ValueError):
        read_traces(path)


def test_transition_rows_validated():
    with pytest.raises(ValueError, match="sum to 1"):
        LossModel([[0.5, 0.6], [0.2, 0.8]])


@pytest.mark.parametrize("transition", [
    np.eye(3), [0.5, 0.5], [[1.0], [1.0]]])
def test_loss_model_is_a_two_state_chain(transition):
    with pytest.raises(ValueError, match="2 x 2"):
        LossModel(transition)


def test_stationary_distribution_row_convergence():
    model = preset("EP2")
    pi = stationary_distribution(model)
    assert np.allclose(pi @ model.transition, pi, atol=1e-10)


def test_stationary_distribution_matches_eigenvector_oracle():
    models = [preset(name) for name in PRESET_TABLE] + [
        _memoryless(0.3), LossModel([[0.9, 0.1], [0.65, 0.35]])]
    for model in models:
        assert np.allclose(stationary_distribution(model),
                           _eig_stationary(model.transition),
                           rtol=0, atol=1e-12)


def test_stationary_distribution_of_a_chain_with_several_closed_classes():
    # Each state is absorbing; every law is stationary.  The solve takes
    # the minimum-norm one and raises nothing.
    model = LossModel(np.eye(2))
    assert np.allclose(stationary_distribution(model), [1 / 2] * 2)
