"""Progressive encoder/decoder and the :class:`ProgressiveImage` container.

The encoder produces a :class:`ProgressiveImage`: quantized DCT coefficient
planes for Y/Cb/Cr plus the byte size of each spectral-selection scan.  The
decoder reconstructs the image from any *prefix* of the scans — reading
``k`` scans costs ``cumulative_bytes(k)`` bytes and recovers all zigzag
coefficients the first ``k`` bands cover, which is how the storage layer
trades bytes read against image quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.codec.dct import BLOCK_SIZE, block_dct2, block_idct2, blockify, unblockify
from repro.codec.quantization import CHROMA_QUANT_TABLE, LUMA_QUANT_TABLE, scale_quant_table
from repro.codec.scans import DEFAULT_SCAN_BANDS, ScanBand, spectral_bands
from repro.codec.size_model import IMAGE_HEADER_BYTES, estimate_scan_bytes
from repro.codec.zigzag import ZIGZAG_ORDER
from repro.imaging.color import rgb_to_ycbcr, ycbcr_to_rgb
from repro.imaging.resize import resize


@dataclass
class _ComponentPlanes:
    """Quantized coefficient blocks and reconstruction metadata for one component."""

    coefficients: np.ndarray  # (num_blocks, 8, 8) quantized integers
    quant_table: np.ndarray  # (8, 8)
    padded_shape: tuple[int, int]
    plane_shape: tuple[int, int]


@dataclass
class ProgressiveImage:
    """A progressively encoded image plus per-scan byte accounting."""

    width: int
    height: int
    quality: int
    chroma_subsampled: bool
    scan_bands: tuple[ScanBand, ...]
    scan_bytes: tuple[int, ...]
    components: list[_ComponentPlanes] = field(repr=False)
    #: ``_prefix_bytes[k]`` is ``cumulative_bytes(k)``, summed once.
    _prefix_bytes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._prefix_bytes = tuple(accumulate(self.scan_bytes, initial=IMAGE_HEADER_BYTES))

    @property
    def num_scans(self) -> int:
        return len(self.scan_bands)

    @property
    def total_bytes(self) -> int:
        """Size of the full encoded image, headers included."""
        return self._prefix_bytes[-1]

    def cumulative_bytes(self, num_scans: int) -> int:
        """Bytes that must be read to decode the first ``num_scans`` scans."""
        if not 0 <= num_scans <= self.num_scans:
            raise ValueError(f"num_scans must be in [0, {self.num_scans}]")
        return self._prefix_bytes[num_scans]

    def relative_read_size(self, num_scans: int) -> float:
        """Fraction of the full file read when decoding ``num_scans`` scans."""
        return self.cumulative_bytes(num_scans) / self.total_bytes

    def enable_decode_cache(self) -> None:
        """Memoize :meth:`decode` per scan count (idempotent, opt-in).

        Decoding is a pure function of ``(self, num_scans)``, so the cache
        returns the exact array a fresh decode would produce — but holds
        every requested prefix in memory, which is why serving (few, hot
        keys) opts in and the bulk experiment paths (hundreds of large
        images, each read once or twice) do not.  Cached arrays are marked
        read-only so an accidental in-place edit fails loudly instead of
        corrupting every later read.
        """
        if getattr(self, "_decode_cache", None) is None:
            self._decode_cache: dict[int, np.ndarray] = {}

    def decode(self, num_scans: int | None = None) -> np.ndarray:
        """Reconstruct the RGB image from the first ``num_scans`` scans.

        ``num_scans=None`` (or the total number of scans) decodes at full
        quality.  At least one scan (the DC scan) is required.
        """
        if num_scans is None:
            num_scans = self.num_scans
        if not 1 <= num_scans <= self.num_scans:
            raise ValueError(f"num_scans must be in [1, {self.num_scans}]")

        cache = getattr(self, "_decode_cache", None)
        if cache is not None:
            cached = cache.get(num_scans)
            if cached is not None:
                return cached

        # Build a keep-mask over zigzag positions covered by the scan prefix.
        keep = np.zeros((BLOCK_SIZE, BLOCK_SIZE), dtype=bool)
        for band in self.scan_bands[:num_scans]:
            for position in range(band.start, band.end + 1):
                row, col = ZIGZAG_ORDER[position]
                keep[row, col] = True

        planes = []
        for component in self.components:
            coefficients = component.coefficients * keep
            dequantized = coefficients * component.quant_table
            blocks = block_idct2(dequantized)
            plane = unblockify(blocks, component.padded_shape, component.plane_shape)
            planes.append((plane + 128.0) / 255.0)  # undo level shift and 8-bit scaling

        luma = planes[0]
        chroma_planes = planes[1:]
        if self.chroma_subsampled:
            chroma_planes = [
                resize(plane, (self.height, self.width), method="bilinear")
                for plane in chroma_planes
            ]
        ycbcr = np.stack([luma, *chroma_planes], axis=-1)
        rgb = ycbcr_to_rgb(ycbcr)
        if cache is not None:
            rgb.setflags(write=False)
            cache[num_scans] = rgb
        return rgb


class ProgressiveEncoder:
    """Encode RGB images into :class:`ProgressiveImage` containers.

    Parameters
    ----------
    quality:
        JPEG-style quality factor in [1, 100] controlling quantization.
    num_scans:
        Number of spectral-selection scans; ``None`` uses the paper-style
        five-scan layout.
    chroma_subsample:
        Encode Cb/Cr at half resolution (4:2:0), as virtually all JPEG
        photographs are stored.
    """

    def __init__(
        self,
        quality: int = 85,
        num_scans: int | None = None,
        chroma_subsample: bool = True,
    ) -> None:
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in [1, 100]")
        self.quality = quality
        self.scan_bands = (
            DEFAULT_SCAN_BANDS if num_scans is None else spectral_bands(num_scans)
        )
        self.chroma_subsample = chroma_subsample
        self._luma_table = scale_quant_table(LUMA_QUANT_TABLE, quality)
        self._chroma_table = scale_quant_table(CHROMA_QUANT_TABLE, quality)

    def _encode_plane(self, plane: np.ndarray, quant_table: np.ndarray) -> _ComponentPlanes:
        # JPEG quantization tables are defined for 8-bit samples, so scale the
        # [0, 1] plane to [0, 255] and level-shift by 128 before the DCT.
        shifted = plane * 255.0 - 128.0
        blocks, padded_shape = blockify(shifted)
        coefficients = block_dct2(blocks)
        quantized = np.round(coefficients / quant_table).astype(np.int64)
        return _ComponentPlanes(
            coefficients=quantized,
            quant_table=quant_table,
            padded_shape=padded_shape,
            plane_shape=plane.shape,
        )

    def encode(self, image: np.ndarray) -> ProgressiveImage:
        """Encode an HWC RGB image in [0, 1]."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"expected HWC RGB image, got shape {image.shape}")
        height, width = image.shape[:2]
        ycbcr = rgb_to_ycbcr(image)

        luma = ycbcr[..., 0]
        chroma = [ycbcr[..., 1], ycbcr[..., 2]]
        if self.chroma_subsample:
            half = (max(1, height // 2), max(1, width // 2))
            chroma = [resize(plane, half, method="bilinear") for plane in chroma]

        components = [self._encode_plane(luma, self._luma_table)]
        components.extend(self._encode_plane(plane, self._chroma_table) for plane in chroma)

        scan_bytes = []
        for band in self.scan_bands:
            band_positions = [tuple(ZIGZAG_ORDER[p]) for p in range(band.start, band.end + 1)]
            rows = [r for r, _ in band_positions]
            cols = [c for _, c in band_positions]
            per_component = [
                component.coefficients[:, rows, cols] for component in components
            ]
            scan_bytes.append(estimate_scan_bytes(per_component))

        return ProgressiveImage(
            width=width,
            height=height,
            quality=self.quality,
            chroma_subsampled=self.chroma_subsample,
            scan_bands=self.scan_bands,
            scan_bytes=tuple(scan_bytes),
            components=components,
        )
