"""Precompiled board-image libraries (Section III-C).

"We assume these additional configurations are precompiled into a set
of board images."  This module materializes that assumption: a
partitioned dataset is compiled once into per-partition ANML files plus
a JSON manifest, and can later be loaded back into a ready-to-search
engine without recompiling — the deployment artifact a production host
would ship.

Layout of an image directory::

    manifest.json      d, k-capacity, layout, partition table
    dataset.npy        the binary codes (host-side ID resolution needs
                       them anyway for result verification / re-ranking)
    partition_0000.anml, partition_0001.anml, ...

``load_image_library`` verifies structural integrity (per-partition
macro counts and report-code ranges) and can cross-check a partition's
ANML against the dataset by probe simulation.

The loader composes with the service-side levers: ``parallel=`` and
``cache=`` forward to the engine, and ``cache_dir=`` attaches a
persistent :class:`~repro.ap.compiler.BoardImageCache` so the compiled
(in-memory) artifacts the engine builds over this library survive
restarts next to the ANML files themselves — a service that exports a
library once and restarts warm-starts with zero recompiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..automata.anml import parse_anml, to_anml
from ..automata.network import AutomataNetwork
from ..ap.compiler import BoardImageCache
from ..util.bitops import as_bits
from .engine import APSimilaritySearch
from .macros import MacroConfig, build_knn_network, collector_tree_depth

__all__ = ["ImageManifest", "export_image_library", "load_image_library",
           "verify_partition"]

_MANIFEST = "manifest.json"
_DATASET = "dataset.npy"


@dataclass
class ImageManifest:
    d: int
    n: int
    board_capacity: int
    collector_depth: int
    max_fan_in: int
    partitions: list[dict]  # {file, start, end}

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "repro-board-images/1",
                "d": self.d,
                "n": self.n,
                "board_capacity": self.board_capacity,
                "collector_depth": self.collector_depth,
                "max_fan_in": self.max_fan_in,
                "partitions": self.partitions,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ImageManifest":
        data = json.loads(text)
        if data.get("format") != "repro-board-images/1":
            raise ValueError(f"unknown image-library format {data.get('format')!r}")
        return cls(
            d=data["d"],
            n=data["n"],
            board_capacity=data["board_capacity"],
            collector_depth=data["collector_depth"],
            max_fan_in=data["max_fan_in"],
            partitions=data["partitions"],
        )


def export_image_library(
    dataset_bits: np.ndarray,
    board_capacity: int,
    directory: str | Path,
    macro_config: MacroConfig = MacroConfig(),
) -> ImageManifest:
    """Compile and write the full set of board images for a dataset."""
    dataset_bits = as_bits(dataset_bits, "dataset")
    if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (n, d) array")
    if board_capacity < 1:
        raise ValueError("board_capacity must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n, d = dataset_bits.shape

    partitions = []
    for pi, start in enumerate(range(0, n, board_capacity)):
        end = min(start + board_capacity, n)
        net, _ = build_knn_network(
            dataset_bits[start:end],
            config=macro_config,
            name=f"partition{pi}",
            report_code_base=start,
        )
        fname = f"partition_{pi:04d}.anml"
        (directory / fname).write_text(to_anml(net) + "\n")
        partitions.append({"file": fname, "start": int(start), "end": int(end)})

    np.save(directory / _DATASET, dataset_bits)
    manifest = ImageManifest(
        d=d,
        n=n,
        board_capacity=int(board_capacity),
        collector_depth=collector_tree_depth(d, macro_config.max_fan_in),
        max_fan_in=macro_config.max_fan_in,
        partitions=partitions,
    )
    (directory / _MANIFEST).write_text(manifest.to_json() + "\n")
    return manifest


def load_image_library(
    directory: str | Path,
    k: int,
    execution: str = "auto",
    verify: bool = False,
    parallel=None,
    cache=None,
    cache_dir: str | Path | None = None,
) -> tuple[APSimilaritySearch, ImageManifest]:
    """Load a library into a ready engine (no recompilation).

    With ``verify=True`` every partition's ANML is parsed and its
    structure checked against the manifest (macro count, report-code
    range); this is the slow integrity path for untrusted media.

    ``parallel`` and ``cache`` forward to
    :class:`~repro.core.engine.APSimilaritySearch`.  ``cache_dir``
    (mutually exclusive with ``cache``) attaches a persistent
    :class:`~repro.ap.compiler.BoardImageCache` rooted there, so the
    compiled artifacts built over this library survive restarts —
    pass the library directory itself to keep a library and its
    compiled cache in one deployable bundle.
    """
    if cache is not None and cache_dir is not None:
        raise ValueError("pass cache= or cache_dir=, not both")
    if cache_dir is not None:
        cache = BoardImageCache(cache_dir=cache_dir)
    directory = Path(directory)
    manifest = ImageManifest.from_json((directory / _MANIFEST).read_text())
    dataset = np.load(directory / _DATASET)
    if dataset.shape != (manifest.n, manifest.d):
        raise ValueError(
            f"dataset shape {dataset.shape} contradicts manifest "
            f"({manifest.n}, {manifest.d})"
        )
    if verify:
        for part in manifest.partitions:
            net = parse_anml((directory / part["file"]).read_text())
            verify_partition(net, part, manifest)
    engine = APSimilaritySearch(
        dataset,
        k=k,
        board_capacity=manifest.board_capacity,
        macro_config=MacroConfig(max_fan_in=manifest.max_fan_in),
        execution=execution,
        parallel=parallel,
        cache=cache,
    )
    return engine, manifest


def verify_partition(
    network: AutomataNetwork, part: dict, manifest: ImageManifest
) -> None:
    """Structural integrity checks for one loaded partition image."""
    expected_macros = part["end"] - part["start"]
    counters = network.counters()
    if len(counters) != expected_macros:
        raise ValueError(
            f"{part['file']}: {len(counters)} macros, expected {expected_macros}"
        )
    codes = sorted(e.report_code for e in network.reporting_elements())
    if codes != list(range(part["start"], part["end"])):
        raise ValueError(f"{part['file']}: report codes {codes[:3]}... do not "
                         f"match range [{part['start']}, {part['end']})")
    for c in counters:
        if c.threshold != manifest.d:
            raise ValueError(
                f"{part['file']}: counter threshold {c.threshold} != d={manifest.d}"
            )
    network.validate()
