"""End-to-end acceptance checks.

Each test prints exactly one scoreboard line of the form

    acceptance NN PASS <summary>

(or FAIL) so a full run yields a twelve-line report regardless of how
the individual assertions are phrased.
"""

import math
import time

import numpy as np

from resicomp.context_modes import (MODE_CUSTOM, ContextMode,
                                    iteration_schedule, make_mode, validate)
from resicomp.density import (FREQ_TOTAL, SIGMA_FLOOR, FreqTable,
                              discretize_batch, quantize_probs)
from resicomp.entropy_coder import encode
from resicomp.pipeline import (FAILED_PSNR_DB, OUTCOME_FAILED,
                               OUTCOME_LOSSLESS, PipelineConfig, evaluate,
                               progressive_receive, receive, send)
from resicomp.predictor import conceal, default_prior, predict
from resicomp.synthetic import synthetic_corpus
from resicomp.token_codec import CodecConfig, TokenGrid, analyze
from resicomp.transport import (PRESET_TABLE, LossTrace, fec_channel, preset,
                                sample_trace, stationary, trace_stats)

FAST_CODEC = CodecConfig(channels=16)

MODE_SET = [("ISC", {}), ("LC", {}), ("MDC", {"n_d": 2}),
            ("MDC", {"n_d": 4}), ("SLC", {"enhancements": 1})]


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_lossless_transport(capsys):
    images = synthetic_corpus(20)
    start = time.monotonic()
    episodes = exact = 0
    for image in images:
        for kind, params in MODE_SET:
            for l in (4, 10, 32):
                cfg = PipelineConfig(codec=FAST_CODEC, mode_kind=kind, l=l,
                                     mode_params=params)
                packets, grid, _, _ = send(image, cfg)
                result = receive(packets, [1] * l, cfg, *image.shape)
                episodes += 1
                exact += int(result.outcome == OUTCOME_LOSSLESS
                             and np.array_equal(result.grid.values,
                                                grid.values))
    elapsed = time.monotonic() - start
    ok = episodes == 300 and exact == episodes and elapsed < 60.0
    _report(capsys, 1, ok,
            f"zero-loss receive bit-exact on {exact}/{episodes} episodes "
            f"(20 images x 5 modes x L in 4/10/32) in {elapsed:.1f}s "
            f"(limit 60s)")


def test_criterion_02_range_coder_efficiency(capsys):
    rng = np.random.default_rng(20240817)
    n_slices = 10_000
    lengths = rng.integers(1, 9, size=n_slices)
    total = int(lengths.sum())
    weights = rng.dirichlet(np.ones(3), size=total)
    means = rng.uniform(-60.0, 60.0, size=(total, 3))
    sigmas = rng.uniform(SIGMA_FLOOR, 20.0, size=(total, 3))
    probs = discretize_batch(weights, means, sigmas, 127)
    counts = quantize_probs(probs)
    tables = FreqTable.batch(counts)
    table_probs = counts / FREQ_TOTAL
    draws = rng.random(total)
    symbols = (draws[:, None] > np.cumsum(table_probs, axis=1)).sum(axis=1)
    ideal_bits = -np.log2(table_probs[np.arange(total), symbols])

    worst_excess = -math.inf
    within = 0
    pos = 0
    for n in lengths:
        n = int(n)
        payload = encode(symbols[pos:pos + n].tolist(),
                         np.arange(pos, pos + n), tables)
        ideal = float(ideal_bits[pos:pos + n].sum())
        bound = ideal * 1.001 + 64.0
        worst_excess = max(worst_excess, payload.bit_length - bound)
        within += int(payload.bit_length <= bound)
        pos += n
    ok = within == n_slices
    _report(capsys, 2, ok,
            f"{within}/{n_slices} randomized slices within cross-entropy "
            f"+ 64 bits + 0.1% (worst slack {-worst_excess:.1f} bits)")


def test_criterion_03_loss_model_presets(capsys):
    details = []
    ok = True
    for name, record in PRESET_TABLE.items():
        eps_target, gamma_target = record[4], record[5]
        model = preset(name)
        eps_an, gamma_an = stationary(model)
        trace = sample_trace(model, 10 ** 6, rng_seed=2024)
        eps_hat, gamma_hat = trace_stats(trace)
        rel_e = abs(eps_hat - eps_target) / eps_target
        rel_g = abs(gamma_hat - gamma_target) / gamma_target
        ok = ok and rel_e <= 0.05 and rel_g <= 0.05
        ok = ok and abs(eps_an - eps_target) <= 1e-6
        ok = ok and abs(gamma_an - gamma_target) / gamma_target <= 5e-3
        details.append(f"{name} {100 * max(rel_e, rel_g):.1f}%")
    _report(capsys, 3, ok,
            "10^6-packet traces match Table targets within 5% "
            f"({', '.join(details)}); analytic stationary eps within 1e-6")


def test_criterion_04_iteration_count_formulas(capsys):
    checked = 0
    ok = True
    for l in range(2, 33):
        ok = ok and iteration_schedule(make_mode("LC", l))[1] == l - 1
        ok = ok and iteration_schedule(make_mode("ISC", l))[1] == 0
        checked += 2
        for n_d in (2, 4, 5):
            if n_d > l:
                continue
            k_t = iteration_schedule(make_mode("MDC", l, {"n_d": n_d}))[1]
            ok = ok and k_t == l // n_d - 1
            checked += 1
    _report(capsys, 4, ok,
            f"K_t closed forms (LC=L-1, ISC=0, MDC=floor(L/N_d)-1) hold for "
            f"{checked} (L, mode) combinations, L=2..32, N_d in 2/4/5")


def test_criterion_05_fec_channel(capsys):
    checked = 0
    ok = True
    for n_data in range(1, 13):
        for n_parity in range(0, 13 - n_data):
            n = n_data + n_parity
            for pattern in range(2 ** n):
                flags = np.array([(pattern >> i) & 1 for i in range(n)],
                                 dtype=bool)
                want = int(flags.sum()) >= n_data
                ok = ok and fec_channel(n_data, n_parity,
                                        LossTrace(flags)) == want
                checked += 1

    rng = np.random.default_rng(5)
    trials = 100_000
    flags = rng.random((trials, 10)) >= 0.2
    failures = sum(0 if fec_channel(7, 3, LossTrace(row)) else 1
                   for row in flags)
    p_exact = sum(math.comb(10, k) * 0.8 ** k * 0.2 ** (10 - k)
                  for k in range(7))
    sigma = math.sqrt(p_exact * (1.0 - p_exact) / trials)
    dev = abs(failures / trials - p_exact)
    ok = ok and dev <= 3.0 * sigma
    _report(capsys, 5, ok,
            f"fec_channel matches exhaustive enumeration on {checked} "
            f"patterns; empirical failure {failures / trials:.4f} vs "
            f"{p_exact:.4f} ({dev / sigma:.2f} sigma, limit 3)")


def test_criterion_06_error_propagation_law(capsys):
    image = synthetic_corpus(1, height=48, width=48)[0]
    checked = 0
    ok = True
    for kind, params in [("ISC", {}), ("LC", {}), ("MDC", {"n_d": 2}),
                         ("SLC", {"enhancements": 1})]:
        cfg = PipelineConfig(codec=FAST_CODEC, mode_kind=kind, l=5,
                             mode_params=params)
        packets, _, _, mode = send(image, cfg)
        for pattern in range(32):
            flags = [(pattern >> i) & 1 for i in range(5)]
            result = receive(packets, flags, cfg, *image.shape)
            expected = [i + 1 for i in range(5)
                        if flags[i] and all(flags[j - 1] for j in
                                            mode.contexts_of(i + 1))]
            ok = ok and result.decoded_slices == expected
            checked += 1
    _report(capsys, 6, ok,
            f"decoded set equals closure-received predicate on {checked} "
            f"loss patterns (all 32 at L=5, four modes)")


def test_criterion_07_mode_validation(capsys):
    ok = True
    presets = 0
    for l in range(1, 33):
        for kind, params in MODE_SET:
            if kind == "MDC" and params["n_d"] > l:
                continue
            if kind == "SLC" and l < 2:
                continue
            ok = ok and validate(make_mode(kind, l, params)) is None
            presets += 1

    def custom(g):
        return ContextMode(l=3, g=np.array(g, dtype=bool),
                           mode_id=MODE_CUSTOM)

    future = validate(custom([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    diag = validate(custom([[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
    skip = validate(custom([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    ok = ok and future is not None and future.kind == "recoverability" \
        and future.where == (1, 2)
    ok = ok and diag is not None and diag.kind == "recoverability" \
        and diag.where == (3, 3)
    ok = ok and skip is not None and skip.kind == "inheritance" \
        and skip.where == (3, 2, 1)
    _report(capsys, 7, ok,
            f"{presets} preset modes validate clean; future-slice, "
            f"self-loop and broken-inheritance matrices rejected with "
            f"correct diagnoses")


def test_criterion_08_efficiency_ordering(capsys):
    images = synthetic_corpus(10)
    bpp = {}
    for kind, params in [("LC", {}), ("MDC", {"n_d": 2}), ("ISC", {})]:
        totals = []
        for image in images:
            cfg = PipelineConfig(mode_kind=kind, l=10, mode_params=params)
            packets, _, _, _ = send(image, cfg)
            totals.append(sum(p.payload.bit_length for p in packets)
                          / image.size)
        bpp[kind] = float(np.mean(totals))
    ok = bpp["LC"] <= bpp["MDC"] <= bpp["ISC"]
    _report(capsys, 8, ok,
            f"mean bpp ordering LC {bpp['LC']:.3f} <= MDC(2) "
            f"{bpp['MDC']:.3f} <= ISC {bpp['ISC']:.3f} on 10-image corpus "
            f"at default quality")


def test_criterion_09_resilience_under_bursts(capsys):
    images = synthetic_corpus(4, height=48, width=48)
    model = preset("EP5")
    means = {}
    for kind in ("ISC", "LC"):
        cfg = PipelineConfig(codec=FAST_CODEC, mode_kind=kind, l=5)
        psnrs = []
        for i, image in enumerate(images):
            packets, _, _, _ = send(image, cfg)
            for rep in range(50):
                trace = sample_trace(model, 5, rng_seed=1000 * i + rep)
                result = receive(packets, trace.flags.astype(int).tolist(),
                                 cfg, *image.shape)
                psnr, _, _ = evaluate(image, result.image, result.outcome,
                                      packets)
                psnrs.append(psnr)
        means[kind] = float(np.mean(psnrs))
    ok = means["ISC"] >= means["LC"]
    _report(capsys, 9, ok,
            f"EP5 mean PSNR over 200 episodes per mode: ISC "
            f"{means['ISC']:.2f} dB >= LC {means['LC']:.2f} dB")


def test_criterion_10_concealment_beats_prior_fill(capsys):
    images = synthetic_corpus(10)
    prior = default_prior(FAST_CODEC.channels)
    prior_fill = np.rint(prior.means).astype(np.int16)
    rng = np.random.default_rng(99)
    wins = 0
    exact_pass_through = True
    for image in images:
        grid = analyze(image, FAST_CODEC)
        mask = rng.random(grid.known.shape) < 0.3
        masked = TokenGrid(np.where(mask[:, :, None], 0, grid.values),
                           ~mask)
        out = predict(masked, prior)
        full = conceal(masked, out)
        truth = grid.values[mask].astype(float)
        mse_conceal = np.mean((full.values[mask] - truth) ** 2)
        mse_prior = np.mean((prior_fill[None, :] - truth) ** 2)
        wins += int(mse_conceal <= mse_prior)
        exact_pass_through = exact_pass_through and np.array_equal(
            full.values[~mask], grid.values[~mask])
    ok = wins >= 9 and exact_pass_through
    _report(capsys, 10, ok,
            f"30% masking: concealed token MSE beats prior fill on "
            f"{wins}/10 images (need >=9); received tokens pass through "
            f"exactly: {exact_pass_through}")


def test_criterion_11_failure_conventions(capsys):
    images = synthetic_corpus(3, height=48, width=48)
    rng = np.random.default_rng(17)
    ok = True
    zero_checked = first_lost = 0
    for image in images:
        for kind in ("LC", "ISC"):
            cfg = PipelineConfig(codec=FAST_CODEC, mode_kind=kind, l=6)
            packets, _, _, _ = send(image, cfg)
            result = receive(packets, [0] * 6, cfg, *image.shape)
            psnr, _, _ = evaluate(image, result.image, result.outcome,
                                  packets)
            ok = ok and result.outcome == OUTCOME_FAILED and psnr == 13.0
            zero_checked += 1
        cfg = PipelineConfig(codec=FAST_CODEC, mode_kind="LC", l=6)
        packets, _, _, _ = send(image, cfg)
        for _ in range(8):
            flags = [0] + (rng.random(5) > 0.3).astype(int).tolist()
            result = receive(packets, flags, cfg, *image.shape)
            psnr, _, _ = evaluate(image, result.image, result.outcome,
                                  packets)
            ok = ok and result.outcome == OUTCOME_FAILED and psnr == 13.0
            first_lost += 1
    ok = ok and FAILED_PSNR_DB == 13.0
    _report(capsys, 11, ok,
            f"{zero_checked} zero-decoded episodes report exactly 13.0 dB; "
            f"LC with packet 1 lost failed in {first_lost}/{first_lost} "
            f"random loss patterns")


def test_criterion_12_progressive_decoding(capsys):
    images = synthetic_corpus(10)
    cfg = PipelineConfig(codec=FAST_CODEC, mode_kind="LC", l=32)
    curves = []
    final_exact = 0
    for image in images:
        packets, grid, _, _ = send(image, cfg)
        steps = progressive_receive(packets, cfg, *image.shape)
        curves.append([evaluate(image, s.image, s.outcome, packets)[0]
                       for s in steps])
        full = receive(packets, [1] * 32, cfg, *image.shape)
        final_exact += int(
            steps[-1].outcome == OUTCOME_LOSSLESS
            and np.array_equal(steps[-1].grid.values, grid.values)
            and np.array_equal(steps[-1].image, full.image))
    mean_curve = np.mean(curves, axis=0)
    deltas = np.diff(mean_curve)
    frac = float(np.mean(deltas >= 0.0))
    ok = frac >= 0.95 and final_exact == len(images)
    _report(capsys, 12, ok,
            f"LC L=32 corpus-mean PSNR nondecreasing on {100 * frac:.0f}% "
            f"of prefix steps (need >=95%); step 32 bit-exact lossless on "
            f"{final_exact}/10 images")
