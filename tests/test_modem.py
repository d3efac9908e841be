import itertools

import numpy as np
import pytest

from lrmimo.errors import ValidationError
from lrmimo.modem import (
    ConstellationSpec,
    _bit_distance,
    _gray_decode,
    demodulate,
    map_bits,
    modulate,
    unmap_symbols,
)


class TestConstellationSpec:
    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_valid_orders(self, m):
        spec = ConstellationSpec(m)
        assert spec.side**2 == m
        assert spec.bits_per_symbol == int(np.log2(m))

    @pytest.mark.parametrize("m", [2, 8, 32, 3, 0, -4, 36])
    def test_invalid_orders(self, m):
        with pytest.raises(ValidationError):
            ConstellationSpec(m)

    def test_amplitude_scale(self):
        assert ConstellationSpec(4).a == pytest.approx(np.sqrt(2.0))
        assert ConstellationSpec(16).a == pytest.approx(np.sqrt(0.4))

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_unit_average_energy(self, m):
        alpha = ConstellationSpec(m).alphabet
        assert len(alpha) == m
        assert np.mean(np.abs(alpha) ** 2) == pytest.approx(1.0)

    def test_qpsk_levels(self):
        spec = ConstellationSpec(4)
        assert np.allclose(sorted(spec.levels), [-spec.a / 2, spec.a / 2])

    def test_alphabet_is_full_grid(self):
        spec = ConstellationSpec(16)
        grid = {
            complex(i, q)
            for i, q in itertools.product(np.round(spec.levels, 12), repeat=2)
        }
        assert {complex(np.round(s, 12)) for s in spec.alphabet} == grid


class TestGrayMapping:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_roundtrip_all_symbols(self, m):
        spec = ConstellationSpec(m)
        bps = spec.bits_per_symbol
        for word in itertools.product((0, 1), repeat=bps):
            bits = np.array(word)
            s = map_bits(bits, spec)
            assert np.array_equal(unmap_symbols(s, spec), bits)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_adjacent_symbols_differ_in_one_bit(self, m):
        # Gray property: nearest neighbors along either axis flip exactly
        # one bit.
        spec = ConstellationSpec(m)
        bps = spec.bits_per_symbol
        words = list(itertools.product((0, 1), repeat=bps))
        points = {tuple(np.round(
            [map_bits(np.array(w), spec).real, map_bits(np.array(w), spec).imag], 9
        )): w for w in words}
        for (re, im), w in points.items():
            for dre, dim in ((spec.a, 0), (0, spec.a)):
                nb = points.get((round(re + dre, 9), round(im + dim, 9)))
                if nb is not None:
                    assert sum(a != b for a, b in zip(w, nb)) == 1

    def test_qpsk_map(self):
        spec = ConstellationSpec(4)
        h = spec.a / 2
        assert map_bits(np.array([0, 0]), spec) == pytest.approx(-h - h * 1j)
        assert map_bits(np.array([1, 1]), spec) == pytest.approx(h + h * 1j)
        assert map_bits(np.array([1, 0]), spec) == pytest.approx(h - h * 1j)

    def test_batched_shapes(self):
        spec = ConstellationSpec(16)
        bits = np.random.default_rng(3).integers(0, 2, size=(7, 5, 4))
        syms = map_bits(bits, spec)
        assert syms.shape == (7, 5)
        assert np.array_equal(unmap_symbols(syms, spec), bits)

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_map_bits_equals_weighted_bit_sum(self, m):
        # each half of a symbol's bits, read MSB first as one integer, is
        # the Gray label of its level index
        spec = ConstellationSpec(m)
        half = spec.bits_per_symbol // 2
        bits = np.random.default_rng(5).integers(0, 2, size=(300, 3, 2 * half))
        weights = 1 << np.arange(half - 1, -1, -1)
        gi, gq = bits[..., :half] @ weights, bits[..., half:] @ weights
        lv = spec.levels
        want = lv[_gray_decode(gi, half)] + 1j * lv[_gray_decode(gq, half)]
        assert map_bits(bits, spec).tobytes() == want.tobytes()

    def test_wrong_bit_count(self):
        with pytest.raises(ValidationError):
            map_bits(np.array([0, 1, 0]), spec=ConstellationSpec(4))

    def test_off_grid_rejected(self):
        spec = ConstellationSpec(4)
        with pytest.raises(ValidationError):
            unmap_symbols(np.array([0.0 + 0.0j]), spec)
        with pytest.raises(ValidationError):
            unmap_symbols(np.array([10.0 + 10.0j]), spec)


class TestModulateDemodulate:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_roundtrip_random(self, m):
        spec = ConstellationSpec(m)
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_t = int(rng.integers(1, 7))
            bits = rng.integers(0, 2, size=n_t * spec.bits_per_symbol)
            x = modulate(bits, spec, n_t)
            assert x.shape == (n_t,)
            assert np.array_equal(demodulate(x, spec), bits)

    def test_bit_count_checked(self):
        with pytest.raises(ValidationError):
            modulate(np.zeros(5, dtype=int), ConstellationSpec(4), 2)


@pytest.mark.parametrize("m", [4, 16, 64])
def test_bit_distance_is_hamming_distance_of_unmapped_levels(m):
    spec = ConstellationSpec(m)
    table = _bit_distance(spec)
    side, half = spec.side, spec.bits_per_symbol // 2
    assert table.shape == (side, side)
    # every pair of levels on the I axis and on the Q axis
    lv = spec.levels
    for axis in (1.0, 1j):
        bits = unmap_symbols(axis * lv + (1j / axis) * lv[0], spec)
        part = slice(0, half) if axis == 1.0 else slice(half, None)
        ham = np.sum(bits[:, np.newaxis, part] != bits[np.newaxis, :, part], axis=-1)
        assert np.array_equal(table, ham)
    # every pair of symbols: the I and Q distances add up
    sym = spec.alphabet
    bits = unmap_symbols(sym, spec)
    ham = np.sum(bits[:, np.newaxis] != bits[np.newaxis], axis=-1)
    ii = np.rint(sym.real / spec.a + (side - 1) / 2).astype(int)
    qq = np.rint(sym.imag / spec.a + (side - 1) / 2).astype(int)
    assert np.array_equal(ham, table[ii[:, None], ii] + table[qq[:, None], qq])
