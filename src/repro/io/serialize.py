"""Directory-based serialization of a trained :class:`repro.core.Kamel`.

Layout::

    <directory>/
      config.json        KamelConfig fields
      system.json        vocabulary, inferred speed, gap threshold, pyramid
      store.json         tokenized training trajectories
      detokenizer.json   per-cell DBSCAN cluster metadata
      manifest.json      per slot: model file, region, token count, kind, builds
      models/            one file per distinct model
        single_<l>_<i>_<j>.json / .npz       (counting / bert payload)
        neighbor_<...>__<...>.json / .npz
        global.json / .npz                   ("No Part." variant)

A file may serve several slots: slots whose regions enclose the same
training sequences share one fitted model, which is written once, under
the name of the first slot holding it (single slots before pairs), and
every sharing slot's manifest entry names that file. Directories that
give each slot its own file, shared model or not, load too.

Counting models serialize to JSON; BERT models to an ``.npz`` of parameter
arrays plus an embedded JSON header with the architecture.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Callable, Optional, Union

import numpy as np

from repro.core.config import KamelConfig
from repro.core.kamel import Kamel
from repro.core.partitioning import CellKey, PairKey, PyramidIndex, StoredModel
from repro.core.detokenization import CellClusters, DirectionalCluster
from repro.core.tokenization import TokenSequence
from repro.errors import KamelError, NotFittedError
from repro.geo import BoundingBox, Point
from repro.mlm.base import MaskedModel
from repro.mlm.bert import BertConfig, BertMaskedLM, BertModel
from repro.mlm.counting import CountingMaskedLM
from repro.mlm.vocab import Vocabulary

_FORMAT_VERSION = 5


# -- model payloads -----------------------------------------------------------


def _save_model(model: MaskedModel, path: pathlib.Path) -> str:
    """Write one masked model; returns the file name actually used."""
    if isinstance(model, CountingMaskedLM):
        target = path.with_suffix(".json")
        target.write_text(json.dumps(model.to_dict()))
        return target.name
    if isinstance(model, BertMaskedLM):
        if model.model is None:
            raise KamelError("cannot serialize an untrained BERT model")
        target = path.with_suffix(".npz")
        header = {
            "bert_config": dataclasses.asdict(model.model.config),
            "num_training_tokens": model.num_training_tokens,
        }
        state = {f"param/{k}": v for k, v in model.model.state_dict().items()}
        np.savez(target, __header__=json.dumps(header), **state)
        return target.name
    raise KamelError(f"unsupported model type {type(model).__name__}")


def _load_model(path: pathlib.Path) -> MaskedModel:
    if path.suffix == ".json":
        return CountingMaskedLM.from_dict(json.loads(path.read_text()))
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(str(archive["__header__"]))
            state = {
                key[len("param/"):]: archive[key]
                for key in archive.files
                if key.startswith("param/")
            }
        config = BertConfig(**header["bert_config"])
        wrapper = BertMaskedLM(config)
        wrapper.model = BertModel(config)
        wrapper.model.load_state_dict(state)
        wrapper.model.eval()
        wrapper._num_training_tokens = header["num_training_tokens"]
        return wrapper
    raise KamelError(f"unrecognized model file {path.name!r}")


ModelLoader = Callable[[str], MaskedModel]
"""Maps a manifest file name (e.g. ``single_2_1_3.json``) to a model."""


class ModelStore:
    """Read-only, lazily-loading view over a saved system's ``models/`` dir.

    Safe for concurrent use from multiple worker processes on the same
    directory: construction parses ``manifest.json`` once into immutable
    metadata, and every :meth:`load` call opens — and closes — its *own*
    file handle via :func:`_load_model`.  No file handle or mutable parse
    state is ever shared, so N processes (or threads) can materialize the
    same model simultaneously without corruption.  This is the loading
    path behind the sharded serving tier (:mod:`repro.serve`), where each
    worker touches only the slice of the pyramid its partition queries.
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(directory)
        self.models_dir = self.root / "models"
        manifest_path = self.root / "manifest.json"
        if not manifest_path.exists():
            raise KamelError(f"no manifest.json under {self.root}")
        manifest = json.loads(manifest_path.read_text())
        # One entry per file, holding the metadata of the first slot naming it.
        entries: dict[str, dict] = {}
        for key_name, entry in manifest.get("single", {}).items():
            entries.setdefault(entry["file"], {"group": "single", "key": key_name, **entry})
        for pair_name, entry in manifest.get("neighbor", {}).items():
            entries.setdefault(entry["file"], {"group": "neighbor", "key": pair_name, **entry})
        if manifest.get("global"):
            name = manifest["global"]["file"]
            entries[name] = {"group": "global", "key": "global", "file": name}
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, file_name: str) -> bool:
        return file_name in self._entries

    def file_names(self) -> list[str]:
        """All model file names in the manifest, sorted."""
        return sorted(self._entries)

    def entry(self, file_name: str) -> dict:
        """Manifest metadata for one model file (a copy; mutation-safe)."""
        if file_name not in self._entries:
            raise KamelError(f"model file {file_name!r} not in manifest")
        return dict(self._entries[file_name])

    def load(self, file_name: str) -> MaskedModel:
        """Parse one model from disk; a fresh object every call."""
        if file_name not in self._entries:
            raise KamelError(f"model file {file_name!r} not in manifest")
        return _load_model(self.models_dir / file_name)


# -- json helpers --------------------------------------------------------------


def _bbox_to_list(box: BoundingBox) -> list[float]:
    return [box.min_x, box.min_y, box.max_x, box.max_y]


def _bbox_from_list(values: list[float]) -> BoundingBox:
    return BoundingBox(*values)


def _cell_key_name(key: CellKey) -> str:
    return "_".join(str(v) for v in key)


def _cell_key_from_name(name: str) -> CellKey:
    level, i, j = (int(v) for v in name.split("_"))
    return (level, i, j)


# -- top-level save/load ----------------------------------------------------------


def save_kamel(system: Kamel, directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Persist a trained system; returns the directory written."""
    if not system.is_fitted:
        raise NotFittedError("cannot save an unfitted Kamel system")
    assert system.tokenizer is not None and system.store is not None
    assert system.detokenizer is not None
    root = pathlib.Path(directory)
    models_dir = root / "models"
    models_dir.mkdir(parents=True, exist_ok=True)

    root.joinpath("config.json").write_text(
        json.dumps({"version": _FORMAT_VERSION, **dataclasses.asdict(system.config)})
    )

    repo = system.repository
    pyramid = repo.pyramid if repo else None
    system_meta = {
        "vocabulary": system.tokenizer.vocabulary.to_list(),
        "max_speed_mps": system.max_speed_mps,
        "gap_threshold_m": system.gap_threshold_m,
        "pyramid": (
            {
                "root": _bbox_to_list(pyramid.root),
                "height": pyramid.height,
            }
            if pyramid is not None
            else None
        ),
        "token_counts": (
            {_cell_key_name(k): v for k, v in repo._token_counts.items()}
            if repo
            else {}
        ),
    }
    root.joinpath("system.json").write_text(json.dumps(system_meta))

    store_payload = [
        {"id": seq.traj_id, "tokens": list(seq.tokens), "times": list(seq.times)}
        for seq in system.store
    ]
    root.joinpath("store.json").write_text(json.dumps(store_payload))

    detok_payload = {}
    for cell, info in system.detokenizer._cells.items():
        detok_payload[f"{cell[0]}_{cell[1]}"] = {
            "clusters": [
                [c.centroid.x, c.centroid.y, c.direction, c.size]
                for c in info.clusters
            ],
            "data_centroid": (
                [info.data_centroid.x, info.data_centroid.y]
                if info.data_centroid
                else None
            ),
            "num_points": info.num_points,
        }
    root.joinpath("detokenizer.json").write_text(json.dumps(detok_payload))

    manifest: dict = {"single": {}, "neighbor": {}, "global": None}
    written: dict[int, str] = {}  # id(model) -> its file, for shared models

    def save_once(stored: StoredModel, stem: str) -> dict:
        name = written.get(id(stored.model))
        if name is None:
            name = written[id(stored.model)] = _save_model(stored.model, models_dir / stem)
        return _stored_meta(stored, name)

    if repo is not None:
        for key, stored in repo._single.items():
            key_name = _cell_key_name(key)
            manifest["single"][key_name] = save_once(stored, f"single_{key_name}")
        for pair, stored in repo._neighbor.items():
            pair_name = f"{_cell_key_name(pair[0])}__{_cell_key_name(pair[1])}"
            manifest["neighbor"][pair_name] = save_once(stored, f"neighbor_{pair_name}")
    if system._global_model is not None:
        manifest["global"] = {
            "file": _save_model(system._global_model, models_dir / "global")
        }
    root.joinpath("manifest.json").write_text(json.dumps(manifest))
    return root


def _stored_meta(stored: StoredModel, file_name: str) -> dict:
    return {
        "file": file_name,
        "region": _bbox_to_list(stored.region),
        "token_count": stored.token_count,
        "kind": stored.kind,
        "builds": stored.builds,
    }


def load_config(directory: Union[str, pathlib.Path]) -> KamelConfig:
    """The :class:`KamelConfig` a :func:`save_kamel` directory was written
    with; reads ``config.json`` only, no model file.

    Raises :class:`~repro.errors.KamelError` for a directory without a
    readable ``config.json`` or one written in another format version.
    """
    path = pathlib.Path(directory, "config.json")
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise KamelError(f"no saved system at {directory}: {exc}") from exc
    version = payload.pop("version", None)
    if version != _FORMAT_VERSION:
        raise KamelError(
            f"unsupported model directory version {version!r} in {path} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    # JSON turns tuples into lists; KamelConfig fields that are tuples
    # must be coerced back so the dataclass compares equal after a round trip.
    payload["cell_size_candidates"] = tuple(payload["cell_size_candidates"])
    return KamelConfig(**payload)


def load_kamel(
    directory: Union[str, pathlib.Path],
    model_loader: Optional[ModelLoader] = None,
) -> Kamel:
    """Restore a system saved with :func:`save_kamel`, ready to impute.

    ``model_loader`` overrides how each manifest file becomes a
    :class:`~repro.mlm.base.MaskedModel`.  It is called once per distinct
    file name, and every slot naming that file shares the one object, so
    slots that shared a model before the save share it after the load.
    The default parses each distinct file once, eagerly; the serving tier
    passes a loader that returns lazy proxies so a worker only pays for
    the models its partition actually queries.
    """
    root = pathlib.Path(directory)
    config = load_config(root)
    meta = json.loads(root.joinpath("system.json").read_text())
    system = Kamel(config)
    # The store and repository share the tokenizer, and a tokenizer keeps
    # its vocabulary for life: restore the vocabulary first, build around it.
    system._build_components(
        config.cell_edge_m, Vocabulary.from_list(meta["vocabulary"])
    )
    assert system.tokenizer is not None and system.store is not None
    assert system.repository is not None and system.detokenizer is not None

    system.max_speed_mps = meta["max_speed_mps"]
    system._gap_threshold_m = meta["gap_threshold_m"]

    for entry in json.loads(root.joinpath("store.json").read_text()):
        system.store.add(
            TokenSequence(entry["id"], tuple(entry["tokens"]), tuple(entry["times"]))
        )

    repo = system.repository
    if meta["pyramid"] is not None:
        repo.pyramid = PyramidIndex(
            _bbox_from_list(meta["pyramid"]["root"]), meta["pyramid"]["height"]
        )
    repo._token_counts = {
        _cell_key_from_name(k): v for k, v in meta["token_counts"].items()
    }

    manifest = json.loads(root.joinpath("manifest.json").read_text())
    models_dir = root / "models"
    if model_loader is None:
        model_loader = lambda name: _load_model(models_dir / name)  # noqa: E731
    loaded: dict[str, MaskedModel] = {}

    def load_once(name: str) -> MaskedModel:
        if name not in loaded:
            loaded[name] = model_loader(name)
        return loaded[name]

    for key_name, entry in manifest["single"].items():
        repo._single[_cell_key_from_name(key_name)] = _stored_from_meta(
            entry, load_once
        )
    for pair_name, entry in manifest["neighbor"].items():
        a, b = pair_name.split("__")
        pair: PairKey = (_cell_key_from_name(a), _cell_key_from_name(b))
        repo._neighbor[pair] = _stored_from_meta(entry, load_once)
    if manifest["global"] is not None:
        system._global_model = model_loader(manifest["global"]["file"])

    detok_payload = json.loads(root.joinpath("detokenizer.json").read_text())
    cells = {}
    for name, entry in detok_payload.items():
        q, r = (int(v) for v in name.split("_"))
        clusters = tuple(
            DirectionalCluster(Point(x, y), direction, size)
            for x, y, direction, size in entry["clusters"]
        )
        centroid = (
            Point(*entry["data_centroid"]) if entry["data_centroid"] else None
        )
        cells[(q, r)] = CellClusters(clusters, centroid, entry["num_points"])
    system.detokenizer._cells = cells

    if system.max_speed_mps is not None:  # None: no training data was ever ingested
        system._derive_state()

    system._fitted = True
    return system


def _stored_from_meta(entry: dict, model_loader: ModelLoader) -> StoredModel:
    return StoredModel(
        model=model_loader(entry["file"]),
        region=_bbox_from_list(entry["region"]),
        token_count=entry["token_count"],
        kind=entry["kind"],
        builds=entry["builds"],
    )
