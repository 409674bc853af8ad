"""Property-based tests (hypothesis) for the codec and image metrics."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec.dct import block_dct2, block_idct2, blockify, unblockify
from repro.codec.progressive import ProgressiveEncoder
from repro.codec.scans import spectral_bands
from repro.codec.size_model import (
    IMAGE_HEADER_BYTES,
    estimate_band_bits,
    magnitude_category,
)
from repro.imaging.metrics import psnr, ssim
from repro.imaging.resize import resize

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def small_images(draw):
    height = draw(st.integers(min_value=16, max_value=48))
    width = draw(st.integers(min_value=16, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Smooth random field: random low-res field upsampled, plus mild noise.
    base = rng.random((4, 4, 3))
    image = resize(base, (height, width), method="bilinear")
    image = np.clip(image + rng.normal(0, 0.03, size=image.shape), 0.0, 1.0)
    return image


class TestDCTProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**_SETTINGS)
    def test_dct_roundtrip_is_identity(self, seed):
        blocks = np.random.default_rng(seed).normal(size=(4, 8, 8))
        np.testing.assert_allclose(block_idct2(block_dct2(blocks)), blocks, atol=1e-10)

    @given(st.integers(min_value=9, max_value=70), st.integers(min_value=9, max_value=70),
           st.integers(min_value=0, max_value=1000))
    @settings(**_SETTINGS)
    def test_blockify_roundtrip(self, height, width, seed):
        plane = np.random.default_rng(seed).random((height, width))
        blocks, padded = blockify(plane)
        np.testing.assert_array_equal(unblockify(blocks, padded, plane.shape), plane)


class TestScanProperties:
    @given(st.integers(min_value=2, max_value=16))
    @settings(**_SETTINGS)
    def test_spectral_bands_partition_the_spectrum(self, num_scans):
        bands = spectral_bands(num_scans)
        covered = []
        for band in bands:
            covered.extend(range(band.start, band.end + 1))
        assert sorted(covered) == list(range(64))
        assert len(covered) == 64  # no overlaps


class TestSizeModelProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(**_SETTINGS)
    def test_magnitude_category_is_bit_length(self, value):
        assert magnitude_category(np.array([value]))[0] == int(value).bit_length()

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=12))
    @settings(**_SETTINGS)
    def test_band_bits_monotone_in_magnitude(self, seed, width):
        rng = np.random.default_rng(seed)
        coefficients = rng.integers(-8, 9, size=(6, width))
        assert estimate_band_bits(2 * coefficients) >= estimate_band_bits(coefficients)


class TestProgressiveProperties:
    @given(small_images(), st.integers(min_value=55, max_value=95))
    @settings(**_SETTINGS)
    def test_byte_accounting_and_quality_monotone(self, image, quality):
        encoded = ProgressiveEncoder(quality=quality).encode(image)
        previous_bytes = 0
        previous_ssim = -1.0
        for scans in range(1, encoded.num_scans + 1):
            cumulative = encoded.cumulative_bytes(scans)
            assert cumulative > previous_bytes
            previous_bytes = cumulative
            score = ssim(image, encoded.decode(scans))
            assert score >= previous_ssim - 0.02  # allow tiny non-monotonicity
            previous_ssim = score
        assert encoded.cumulative_bytes(encoded.num_scans) == encoded.total_bytes

    @given(small_images(), st.integers(min_value=2, max_value=12))
    @settings(**_SETTINGS)
    def test_cumulative_bytes_equals_the_header_plus_a_scan_sum(self, image, num_scans):
        """The precomputed prefix table agrees with summing ``scan_bytes``
        for every prefix, and still rejects counts outside ``[0, num_scans]``."""
        encoded = ProgressiveEncoder(num_scans=num_scans).encode(image)
        for k in range(encoded.num_scans + 1):
            expected = IMAGE_HEADER_BYTES + sum(encoded.scan_bytes[:k])
            assert encoded.cumulative_bytes(k) == expected
        assert encoded.total_bytes == IMAGE_HEADER_BYTES + sum(encoded.scan_bytes)
        for bad in (-1, encoded.num_scans + 1):
            with pytest.raises(ValueError):
                encoded.cumulative_bytes(bad)

    @given(small_images())
    @settings(**_SETTINGS)
    def test_decode_stays_in_unit_range(self, image):
        encoded = ProgressiveEncoder(quality=75).encode(image)
        for scans in (1, encoded.num_scans):
            decoded = encoded.decode(scans)
            assert decoded.min() >= 0.0 and decoded.max() <= 1.0
            assert decoded.shape == image.shape


class TestMetricProperties:
    @given(small_images())
    @settings(**_SETTINGS)
    def test_ssim_identity_and_symmetry(self, image):
        assert ssim(image, image) == 1.0
        noisy = np.clip(image + 0.05, 0.0, 1.0)
        assert abs(ssim(image, noisy) - ssim(noisy, image)) < 1e-9

    @given(small_images(), st.floats(min_value=0.01, max_value=0.2))
    @settings(**_SETTINGS)
    def test_psnr_positive_for_bounded_noise(self, image, sigma):
        rng = np.random.default_rng(0)
        noisy = np.clip(image + rng.normal(0, sigma, image.shape), 0.0, 1.0)
        if not np.array_equal(noisy, image):
            assert psnr(image, noisy) > 0.0
