"""Seeded synthetic Wi-Fi network, written as a linkalloc scenario YAML.

APs stand on a planned grid of 150 m x 150 m cells, one per cell, each
jittered by up to 30 m; stations are dropped uniformly over the grid. A
grid, as in planned enterprise deployments, keeps seeds from differing in
coverage holes, so the decision metrics move little from seed to seed.
Every station hears its `HEAR` nearest APs on all three channels; every
other AP is out of range.
A link's SNR offset is a log-distance path loss relative to a 10 m reference,
plus a per-band tilt (2.4 GHz carries further, 6 GHz less far) and
log-normal shadowing. Stations carry 1-3 radios; every AP carries
ceil(1.5 * M / N) radios, so total AP capacity always covers the stations.

The same (seed, sizes) always give the same bytes: the text is written by
hand with fixed float formatting instead of through a YAML emitter.
"""

from __future__ import annotations

import math

import numpy as np

CHANNELS = (  # (id, band, bandwidth MHz, per-band SNR tilt dB)
    (1, "2.4GHz", 40, 2.0),
    (2, "5GHz", 80, 0.0),
    (3, "6GHz", 160, -2.0),
)
MCS = 9
HEAR = 4                 # APs each station hears
SNR_BASE_DB = 26.0
CELL_M = 150.0
AP_JITTER = 0.2         # of a cell, either way
PATH_LOSS_EXPONENT = 3.0
SHADOWING_DB = 3.0
OFFSET_AT_10M_DB = 32.0  # puts a typical nearest AP (~75 m) near 32 dB SNR


def synth_yaml(seed: int, n_aps: int = 30, m_stas: int = 1000) -> str:
    """Scenario text for a seeded random network of `n_aps` x `m_stas`."""
    if n_aps < HEAR or m_stas < 1:
        raise ValueError(f"need n_aps >= {HEAR} and m_stas >= 1")
    rng = np.random.default_rng([seed, n_aps, m_stas, HEAR])
    cols = math.ceil(math.sqrt(n_aps))
    rows = math.ceil(n_aps / cols)
    cells = np.array([(c, r) for r in range(rows) for c in range(cols)][:n_aps], dtype=float)
    ap_xy = (cells + 0.5 + rng.uniform(-AP_JITTER, AP_JITTER, size=(n_aps, 2))) * CELL_M
    sta_xy = rng.uniform(0.0, 1.0, size=(m_stas, 2)) * (cols * CELL_M, rows * CELL_M)
    sta_radios = rng.integers(1, 4, size=m_stas)
    shadow = rng.normal(0.0, SHADOWING_DB, size=(m_stas, HEAR, len(CHANNELS)))
    dist = np.hypot(sta_xy[:, None, 0] - ap_xy[None, :, 0],
                    sta_xy[:, None, 1] - ap_xy[None, :, 1])
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :HEAR]
    ap_radios = math.ceil(1.5 * m_stas / n_aps)

    lines = [
        f"name: synth_{n_aps}x{m_stas}_seed{seed}",
        f"seed: {seed}",
        "ewma_horizon_t: 300",
        f"snr_base_db: {SNR_BASE_DB}",
        "channels:",
    ]
    lines += [f"  - {{id: {cid}, band: {band}, bandwidth_mhz: {bw}, mcs: {MCS}}}"
              for cid, band, bw, _ in CHANNELS]
    lines.append("aps:")
    lines += [f"  - {{id: ap{n + 1}, radios: {ap_radios}, "
              f"slo_channel: {CHANNELS[n % len(CHANNELS)][0]}}}" for n in range(n_aps)]
    lines.append("stas:")
    for m in range(m_stas):
        lines.append(f"  - id: sta{m + 1}")
        lines.append(f"    radios: {int(sta_radios[m])}")
        lines.append("    snr_offset_db:")
        for k, n in enumerate(nearest[m]):
            loss = 10.0 * PATH_LOSS_EXPONENT * math.log10(max(dist[m, n], 1.0) / 10.0)
            per_channel = ", ".join(
                f"{cid}: {OFFSET_AT_10M_DB + tilt - loss + shadow[m, k, j]:.2f}"
                for j, (cid, _, _, tilt) in enumerate(CHANNELS))
            lines.append(f"      ap{n + 1}: {{{per_channel}}}")
    return "\n".join(lines) + "\n"

