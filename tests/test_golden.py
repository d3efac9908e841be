"""Golden pin: exact error counts of three small sweeps.

The counts were produced by the implementation before the selection, basis
construction, size reduction and SIC paths were merged; any change to how a
trial is drawn, reduced, selected or detected shows up here as a mismatch.
"""

from lrmimo.sim import DETECTORS, SimConfig, run_sweep

# 3x3 QPSK, every detector, K = 1 and 5
SWEEP_A = SimConfig(
    n_t=3,
    n_r=3,
    m=4,
    snr_grid_db=(0.0, 8.0, 16.0),
    detectors=DETECTORS,
    k_candidates=(1, 5),
    trials=40,
    packet_len=20,
    seed=11,
)
GOLDEN_A = [
    ("zf", 0, 0.0, 1521, 1260),
    ("zf", 0, 8.0, 767, 671),
    ("zf", 0, 16.0, 194, 173),
    ("clr-zf", 0, 0.0, 1516, 1260),
    ("clr-zf", 0, 8.0, 713, 621),
    ("clr-zf", 0, 16.0, 48, 38),
    ("klr-zf", 1, 0.0, 1510, 1257),
    ("klr-zf", 1, 8.0, 712, 623),
    ("klr-zf", 1, 16.0, 48, 38),
    ("klr-zf", 5, 0.0, 1513, 1260),
    ("klr-zf", 5, 8.0, 703, 615),
    ("klr-zf", 5, 16.0, 48, 38),
    ("mmse", 0, 0.0, 1113, 959),
    ("mmse", 0, 8.0, 449, 405),
    ("mmse", 0, 16.0, 125, 116),
    ("clr-mmse", 0, 0.0, 1110, 958),
    ("clr-mmse", 0, 8.0, 338, 311),
    ("clr-mmse", 0, 16.0, 6, 6),
    ("klr-mmse", 1, 0.0, 1111, 957),
    ("klr-mmse", 1, 8.0, 341, 314),
    ("klr-mmse", 1, 16.0, 6, 6),
    ("klr-mmse", 5, 0.0, 1111, 957),
    ("klr-mmse", 5, 8.0, 343, 316),
    ("klr-mmse", 5, 16.0, 6, 6),
    ("clr-mmse-sic", 0, 0.0, 1096, 948),
    ("clr-mmse-sic", 0, 8.0, 287, 265),
    ("clr-mmse-sic", 0, 16.0, 12, 12),
    ("klr-mmse-sic", 1, 0.0, 1097, 953),
    ("klr-mmse-sic", 1, 8.0, 287, 266),
    ("klr-mmse-sic", 1, 16.0, 9, 9),
    ("klr-mmse-sic", 5, 0.0, 1104, 955),
    ("klr-mmse-sic", 5, 8.0, 293, 271),
    ("klr-mmse-sic", 5, 16.0, 9, 9),
    ("ml", 0, 0.0, 1105, 948),
    ("ml", 0, 8.0, 241, 225),
    ("ml", 0, 16.0, 9, 9),
]

# 4x5 16-QAM with delta = 0.99
SWEEP_B = SimConfig(
    n_t=4,
    n_r=5,
    m=16,
    snr_grid_db=(6.0, 12.0, 18.0),
    detectors=("klr-zf", "klr-mmse-sic"),
    k_candidates=(2,),
    trials=20,
    packet_len=20,
    seed=3,
    delta=0.99,
)
GOLDEN_B = [
    ("klr-zf", 2, 6.0, 1477, 1046),
    ("klr-zf", 2, 12.0, 690, 558),
    ("klr-zf", 2, 18.0, 57, 52),
    ("klr-mmse-sic", 2, 6.0, 1249, 961),
    ("klr-mmse-sic", 2, 12.0, 520, 443),
    ("klr-mmse-sic", 2, 18.0, 12, 12),
]

# 2x3 64-QAM: the only pin of the 8-level slicer and bit table
SWEEP_C = SimConfig(
    n_t=2,
    n_r=3,
    m=64,
    snr_grid_db=(12.0, 18.0, 24.0),
    detectors=("zf", "mmse", "clr-zf", "klr-mmse-sic", "ml"),
    k_candidates=(1,),
    trials=40,
    packet_len=20,
    seed=5,
)
GOLDEN_C = [
    ("zf", 0, 12.0, 1340, 954),
    ("zf", 0, 18.0, 401, 353),
    ("zf", 0, 24.0, 49, 46),
    ("mmse", 0, 12.0, 1330, 963),
    ("mmse", 0, 18.0, 405, 360),
    ("mmse", 0, 24.0, 48, 45),
    ("clr-zf", 0, 12.0, 1356, 955),
    ("clr-zf", 0, 18.0, 402, 349),
    ("clr-zf", 0, 24.0, 31, 29),
    ("klr-mmse-sic", 1, 12.0, 1352, 962),
    ("klr-mmse-sic", 1, 18.0, 379, 325),
    ("klr-mmse-sic", 1, 24.0, 16, 16),
    ("ml", 0, 12.0, 1252, 907),
    ("ml", 0, 18.0, 337, 294),
    ("ml", 0, 24.0, 17, 17),
]


def _rows(cfg):
    return [
        (r.detector, r.k, r.snr_db, r.bit_errors, r.sym_errors) for r in run_sweep(cfg)
    ]


def test_golden_all_detectors():
    rows = _rows(SWEEP_A)
    assert rows == GOLDEN_A
    # a selection that always kept the CLLL baseline would make these equal
    clr = [r[2:] for r in rows if r[0] == "clr-zf"]
    klr = [r[2:] for r in rows if r[0] == "klr-zf"]
    assert any(c != k for c, k in zip(clr * 2, klr))


def test_golden_16qam_delta_099():
    assert _rows(SWEEP_B) == GOLDEN_B


def test_golden_64qam():
    assert _rows(SWEEP_C) == GOLDEN_C
