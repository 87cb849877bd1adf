"""Frozen, shippable AdaWave clustering artifacts.

AdaWave's quantized grid is a tiny sketch of the data: once the pipeline has
run, everything needed to label *new* points is the quantizer geometry
(bounds and interval counts), the surviving transformed-cell -> cluster-id
map and the level/threshold metadata.  :class:`ClusterModel` freezes exactly
that -- ``O(occupied cells)`` memory, no reference to the training points --
so a fitted clustering can be saved, copied across machines and served
without the training set ever leaving the ingestion host.

The on-disk format is a plain ``.npz`` archive whose numeric members hold
the arrays and whose ``header`` member is a UTF-8 JSON document with a magic
string, a format version and the scalar metadata.  :meth:`ClusterModel.load`
validates both before touching any array, so corrupted files and artifacts
written by a future incompatible version are rejected with a clear error
instead of mislabelling traffic.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.transform import applied_level
from repro.grid.codec import CellCodec
from repro.grid.lookup import NOISE_LABEL, CellLabelIndex
from repro.grid.quantizer import GridQuantizer
from repro.utils.validation import NotFittedError

#: Magic string identifying a serialized ClusterModel.
FORMAT_MAGIC = "repro.serve/cluster-model"

#: Current on-disk format version.  Bump on any incompatible layout change;
#: :meth:`ClusterModel.load` refuses files with a different major version.
FORMAT_VERSION = 1

#: Wall-clock timing keys of ``metadata``: saved in the header but left out
#: of :meth:`ClusterModel.content_digest`, so two fits of the same data --
#: which never take the same time -- share one digest.
_TIMING_KEYS = ("stage_seconds", "retune_stage_seconds")

#: :meth:`ClusterModel.predict` encodes and looks up points in row blocks of
#: at most this many coordinates.  On a 200k-point 4-D predict (2-CPU host)
#: one pass over the whole input page-faulted either 0 or 1100-1500 times
#: per call, as the process's allocator state happened to leave its ~6 MB
#: of temporaries, and a process's median predict read 7.6-8.0 or 9.2-10.4
#: ms accordingly; in blocks every call took 0-1 faults and a process's
#: median 6.5-7.6 ms.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Immutable serving artifact extracted from a fitted AdaWave run.

    Attributes
    ----------
    lower, upper:
        Fitted per-dimension quantizer bounds (post edge-expansion, so new
        points quantize onto the identical grid).
    grid_shape:
        Interval counts of the original quantization grid.
    level:
        Wavelet decomposition levels the fit's transform applied; a point's
        transformed cell is its original cell floor-divided by
        ``2 ** level``.
    threshold:
        The adaptive density threshold the run selected (metadata; already
        applied to the cell map).
    cell_coords:
        ``(k, d)`` surviving transformed-cell coordinates in sorted
        (lexicographic) COO order.
    cell_labels:
        ``(k,)`` cluster ids aligned with :attr:`cell_coords`.
    n_clusters:
        Number of clusters in the map.
    index:
        The map as a :class:`~repro.grid.lookup.CellLabelIndex` over codes
        of the transformed grid, built once with the model (derived).
    metadata:
        Free-form scalar metadata (wavelet name, threshold method, training
        sample count, ...) persisted verbatim in the JSON header.
    """

    lower: np.ndarray
    upper: np.ndarray
    grid_shape: Tuple[int, ...]
    level: int
    threshold: float
    cell_coords: np.ndarray
    cell_labels: np.ndarray
    n_clusters: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        coords = np.asarray(self.cell_coords, dtype=np.int64)
        labels = np.asarray(self.cell_labels, dtype=np.int64)
        grid_shape = tuple(int(s) for s in self.grid_shape)
        if coords.ndim != 2:
            raise ValueError(f"cell_coords must be 2-D; got shape {coords.shape}.")
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length.")
        if len(grid_shape) != len(lower) or coords.shape[1] != len(lower):
            raise ValueError(
                "dimension mismatch between bounds, grid_shape and cell_coords: "
                f"{len(lower)} vs {len(grid_shape)} vs {coords.shape[1]}."
            )
        if labels.shape != (len(coords),):
            raise ValueError(
                f"cell_labels must have shape ({len(coords)},); got {labels.shape}."
            )
        level = int(self.level)
        applied = applied_level(grid_shape, level)
        if level > applied:
            raise ValueError(
                f"level {level} is more than a grid of shape {grid_shape} takes: "
                f"the transform stops after {applied}. "
                "The artifact predates the applied-level fix, so its cell map "
                "labels the wrong cells; refit the model and export it again."
            )
        if len(coords):
            # Canonicalise to sorted COO order so saved artifacts are
            # byte-stable regardless of how the map was assembled.  Already-
            # canonical inputs (every saved artifact) are adopted as-is, so a
            # memory-mapped load keeps sharing the file's pages.
            order = np.argsort(CellCodec.bounding(coords).encode(coords), kind="stable")
            if not np.array_equal(order, np.arange(len(order))):
                coords = np.ascontiguousarray(coords[order])
                labels = labels[order]
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "grid_shape", grid_shape)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "cell_coords", coords)
        object.__setattr__(self, "cell_labels", labels)
        object.__setattr__(self, "n_clusters", int(self.n_clusters))
        object.__setattr__(self, "metadata", dict(self.metadata))
        # Derived lookup machinery, built once: predict() afterwards is one
        # fused encode of the points straight to transformed-space cell codes
        # plus one lookup in the index.  Mapped cells beyond the transformed
        # grid the points reach are never hit, so they stay out of the index.
        quantizer = GridQuantizer.from_fitted(lower, upper, grid_shape).coarsen(
            2 ** int(self.level)
        )
        codec = quantizer.codec
        reachable = codec.contains(coords)
        object.__setattr__(self, "_quantizer", quantizer)
        object.__setattr__(
            self,
            "index",
            CellLabelIndex(codec, codec.encode(coords[reachable]), labels[reachable]),
        )

    # -- introspection ---------------------------------------------------------

    @property
    def n_features(self) -> int:
        """Dimensionality of the feature space the model was trained on."""
        return len(self.grid_shape)

    @property
    def n_cells(self) -> int:
        """Number of surviving transformed cells in the map."""
        return len(self.cell_labels)

    def memory_cells(self) -> int:
        """Stored entries -- the artifact's size never scales with ``n_seen``."""
        return self.n_cells

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_estimator(cls, estimator) -> "ClusterModel":
        """Freeze a fitted :class:`~repro.core.adawave.AdaWave` estimator."""
        result = getattr(estimator, "result_", None)
        if result is None:
            raise NotFittedError(
                "cannot export a ClusterModel from an unfitted estimator; "
                "call fit() or partial_fit/finalize first."
            )
        quantization = result.quantization
        wavelet = getattr(estimator, "wavelet_", None)
        if wavelet is None:
            spec = getattr(estimator, "wavelet", None)
            wavelet = getattr(spec, "name", None) or str(spec)
        metadata = {
            "wavelet": wavelet,
            # The denoising level policy the fitted run used (canonical
            # LevelPolicy name, sweep winners resolved); load() rejects
            # unknown values so a typo'd or tampered artifact cannot serve.
            "threshold_method": getattr(estimator, "threshold_method_", None),
            # The elbow-detection rule the estimator was configured with
            # ("auto" / "segments" / "angle" / "distance" / "none").
            "threshold_selector": getattr(estimator, "threshold_method", None),
            # The elbow rule that actually fired on this run's density curve.
            "threshold_rule": result.threshold.method,
            "n_seen": int(getattr(estimator, "n_seen_", 0)),
        }
        stage_seconds = getattr(estimator, "stage_seconds_", None)
        if stage_seconds:
            # Fit-time provenance: how long each grid-side stage of the
            # winning run took, same stage vocabulary the serving plane uses.
            metadata["stage_seconds"] = dict(stage_seconds)
        tune_result = getattr(estimator, "tune_result_", None)
        if tune_result is not None:
            # A tuned model ships the evidence for its own resolution: the
            # chosen scale/level plus the full per-candidate score table
            # (JSON-able, persisted verbatim in the artifact header).
            metadata["tuning"] = tune_result.provenance()
        return cls(
            lower=quantization.lower,
            upper=quantization.upper,
            grid_shape=quantization.grid.shape,
            level=result.level,
            threshold=result.threshold.threshold,
            cell_coords=result.cell_coords,
            cell_labels=result.cell_labels,
            n_clusters=result.n_clusters,
            metadata=metadata,
        )

    # -- serving ---------------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        """Label arbitrary points in one vectorized lookup pass.

        Points are encoded against the frozen bounds straight to the codes of
        their transformed-space cells (original cell ``// 2 ** level``) and
        looked up in the cell map by
        :meth:`~repro.grid.codec.CellCodec.rows`: one gather from a label
        table over the transformed grid, ``O(n)`` for ``n`` points, or a
        binary search over the ``k`` surviving cells, ``O(n log k)``, as the
        codec's lookup size rule picks.  Points in unmapped cells -- or
        outside the fitted bounds entirely -- get
        :data:`~repro.grid.lookup.NOISE_LABEL`.
        Never materialises anything proportional to the training-set size.
        Large inputs go through in row blocks of at most 2**16 coordinates:
        the only array proportional to ``n`` is the returned labels, and the
        blocks' cache-sized temporaries are reused from block to block
        instead of being mapped and page-faulted afresh on every call.  Rows
        are independent, so the labels are bit-identical to one pass.
        """
        X = np.asarray(X)
        rows = max(1, _BLOCK_ELEMENTS // len(self.grid_shape))
        if X.ndim != 2 or len(X) <= rows:
            return self._label_block(X)
        labels = np.empty(len(X), dtype=np.int64)
        for start in range(0, len(X), rows):
            labels[start : start + rows] = self._label_block(X[start : start + rows])
        return labels

    def _label_block(self, X) -> np.ndarray:
        codes, inside = self._quantizer.transform_with_mask(X)
        labels = self.index.lookup(codes)
        labels[~inside] = NOISE_LABEL
        return labels

    # -- persistence -----------------------------------------------------------

    def content_digest(self) -> str:
        """Hex SHA-256 of the artifact's logical content.

        Hashes the canonical JSON header, minus the wall-clock
        ``stage_seconds`` / ``retune_stage_seconds`` metadata, plus the raw
        bytes of every array, so two models with identical contents share a
        digest regardless of how (or whether) they were serialized, or how
        long their fits took -- npz archives embed timestamps, so file bytes
        are *not* stable, but this digest is.  Content-addressed stores
        (:class:`~repro.serve.procpool.ArtifactStore`) key artifacts by it.
        """
        header = self._header()
        header["metadata"] = {
            key: value for key, value in self.metadata.items()
            if key not in _TIMING_KEYS
        }
        digest = hashlib.sha256()
        digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
        for array in (
            self.lower,
            self.upper,
            np.asarray(self.grid_shape, dtype=np.int64),
            self.cell_coords,
            self.cell_labels,
        ):
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def _header(self) -> Dict[str, Any]:
        return {
            "format": FORMAT_MAGIC,
            "version": FORMAT_VERSION,
            "level": self.level,
            "threshold": self.threshold,
            "n_clusters": self.n_clusters,
            "n_features": self.n_features,
            "n_cells": self.n_cells,
            "metadata": self.metadata,
        }

    def save(self, path: Union[str, Path], *, compress: bool = True) -> Path:
        """Serialize the artifact to ``path`` (npz + JSON header); returns it.

        ``compress=False`` stores the arrays uncompressed, which makes the
        artifact memory-mappable: ``load(path, mmap=True)`` then shares the
        file's pages across serving processes instead of copying the arrays
        into each one.
        """
        path = Path(path)
        header = json.dumps(self._header(), sort_keys=True).encode("utf-8")
        writer = np.savez_compressed if compress else np.savez
        with open(path, "wb") as stream:
            writer(
                stream,
                header=np.frombuffer(header, dtype=np.uint8),
                lower=self.lower,
                upper=self.upper,
                grid_shape=np.asarray(self.grid_shape, dtype=np.int64),
                cell_coords=self.cell_coords,
                cell_labels=self.cell_labels,
            )
        return path

    @staticmethod
    def _mmap_npz_member(path: Path, info: "zipfile.ZipInfo") -> Optional[np.ndarray]:
        """Memory-map one stored (uncompressed) ``.npy`` member of an archive.

        The member's array data lives at a fixed offset inside the zip file,
        so ``np.memmap`` can map it read-only straight from disk -- every
        process mapping the same artifact shares those pages.  Returns
        ``None`` when the member cannot be mapped (deflated, object dtype,
        zero-size, exotic npy version); the caller falls back to a copying
        read.
        """
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        with open(path, "rb") as stream:
            stream.seek(info.header_offset)
            local_header = stream.read(30)
            if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
                return None
            name_len, extra_len = struct.unpack("<HH", local_header[26:30])
            stream.seek(info.header_offset + 30 + name_len + extra_len)
            member_start = stream.tell()
            version = np.lib.format.read_magic(stream)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(stream)
            else:
                return None
            data_offset = stream.tell()
        if dtype.hasobject or int(np.prod(shape)) == 0:
            return None
        if data_offset - member_start + int(np.prod(shape)) * dtype.itemsize > info.file_size:
            return None
        return np.memmap(
            path,
            dtype=dtype,
            mode="r",
            offset=data_offset,
            shape=shape,
            order="F" if fortran else "C",
        )

    @classmethod
    def _load_members(cls, path: Path, *, mmap: bool) -> Dict[str, np.ndarray]:
        """All npz members of the artifact, memory-mapped where possible."""
        if not mmap:
            with np.load(path, allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
        members: Dict[str, np.ndarray] = {}
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                name = info.filename[:-4]
                loaded = cls._mmap_npz_member(path, info)
                if loaded is None:
                    with archive.open(info) as stream:
                        loaded = np.lib.format.read_array(stream, allow_pickle=False)
                members[name] = loaded
        return members

    @classmethod
    def load(cls, path: Union[str, Path], *, mmap: bool = False) -> "ClusterModel":
        """Deserialize an artifact, validating magic, version and layout.

        With ``mmap=True`` the arrays of an uncompressed artifact
        (``save(..., compress=False)``) are memory-mapped read-only --
        ``mmap_mode="r"`` semantics for the npz members -- so concurrent
        serving processes loading the same file share its pages instead of
        each copying the cell map.  Compressed members fall back to a normal
        copying read.

        Raises
        ------
        ValueError
            If the file is not a ClusterModel archive, is corrupted, or was
            written with an incompatible format version.
        """
        path = Path(path)
        try:
            members = cls._load_members(path, mmap=mmap)
        except (zipfile.BadZipFile, OSError, EOFError, ValueError, KeyError) as error:
            raise ValueError(
                f"{path} is not a readable ClusterModel artifact: {error}"
            ) from error
        if "header" not in members:
            raise ValueError(
                f"{path} is missing the ClusterModel JSON header; not a "
                "ClusterModel artifact."
            )
        try:
            header = json.loads(bytes(members["header"].astype(np.uint8)).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"{path} has a corrupted ClusterModel header.") from error
        if not isinstance(header, dict) or header.get("format") != FORMAT_MAGIC:
            raise ValueError(
                f"{path} does not declare the {FORMAT_MAGIC!r} format; refusing to load."
            )
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path} uses ClusterModel format version {header.get('version')!r}; "
                f"this build reads version {FORMAT_VERSION}. Re-export the model."
            )
        required = ("lower", "upper", "grid_shape", "cell_coords", "cell_labels")
        missing = [name for name in required if name not in members]
        if missing:
            raise ValueError(f"{path} is missing required arrays: {missing}.")
        try:
            model = cls(
                lower=members["lower"],
                upper=members["upper"],
                grid_shape=tuple(int(s) for s in members["grid_shape"]),
                level=int(header["level"]),
                threshold=float(header["threshold"]),
                cell_coords=members["cell_coords"],
                cell_labels=members["cell_labels"],
                n_clusters=int(header["n_clusters"]),
                metadata=dict(header.get("metadata") or {}),
            )
        except (TypeError, KeyError, ValueError) as error:
            raise ValueError(
                f"{path} holds inconsistent ClusterModel contents: {error}"
            ) from error
        if model.n_cells != int(header.get("n_cells", model.n_cells)):
            raise ValueError(
                f"{path} header declares {header.get('n_cells')} cells but the "
                f"arrays hold {model.n_cells}; artifact is corrupted."
            )
        threshold_method = model.metadata.get("threshold_method")
        if threshold_method is not None:
            from repro.wavelets.thresholding import THRESHOLD_POLICY_NAMES

            if threshold_method not in THRESHOLD_POLICY_NAMES:
                raise ValueError(
                    f"{path} declares unknown threshold_method "
                    f"{threshold_method!r}; this build knows "
                    f"{THRESHOLD_POLICY_NAMES}. The artifact was written by "
                    "an incompatible build or has been tampered with; "
                    "re-export the model."
                )
        return model

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterModel(d={self.n_features}, cells={self.n_cells}, "
            f"clusters={self.n_clusters}, level={self.level})"
        )
