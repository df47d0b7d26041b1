"""The out-of-core sharded trajectory store.

:class:`ShardedTrajectoryStore` is a drop-in
:class:`~repro.database.uncertain_db.TrajectoryDatabase` whose
observation payloads live in memory-mapped columnar slabs on disk,
partitioned by **chain × spatial tile**.  Planner, pipeline, streaming
and service tiers run on it unchanged; what changes is *where bytes
live*:

* every observation distribution is a :class:`SlabDistribution` that
  densifies its sparse slab row on access through the process-wide
  :class:`~repro.store.slabs.SlabPool` -- resident bytes are bounded
  by ``REPRO_STORE_RAM_CAP``, not by the dataset;
* shard workers (:func:`repro.exec.dispatch.run_store_shards`, one
  pool task per worker slot, each sweeping its shards as one stack)
  attach the same slab files zero-copy through the OS page cache --
  no pickling, nothing published per query (an in-RAM database
  reaches the same workers by being written once per version with
  :func:`write_generation`);
* mutations after a snapshot go to an in-RAM overlay plus the on-disk
  :class:`~repro.store.journal.StoreJournal`, routed to the owning
  shard, so a restart replays to the exact pre-crash state and
  :meth:`snapshot` folds the journal into a new slab generation.

On-disk layout (all writes atomic via tmp-file + rename)::

    store/
      manifest.json            # schema, chains, shard index, version
      positions.npy            # optional state coordinates
      chains/chain-000.*.npy   # CSR triples per registered chain
      snapshot-000001/
        shard-0000/
          obs_states.npy       # int32 support columns, ragged
          obs_weights.npy      # float64 support weights
          obs_indptr.npy       # int64 (n_obs + 1) row boundaries
          obs_times.npy        # int64 per-observation timestamps
          obj_indptr.npy       # int64 (n_objects + 1) object boundaries
          obj_dbindex.npy      # int64 stable per-object seed positions
          objects.json         # object ids + chain id
      journal.jsonl            # mutations since the snapshot
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.distribution import StateDistribution, SupportBlock
from repro.core.errors import SerializationError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.observation import Observation, ObservationSet
from repro.core.state_space import PointStateSpace, StateSpace
from repro.database.cohort import Cohort
from repro.database.objects import UncertainObject
from repro.database.uncertain_db import TrajectoryDatabase
from repro.store.journal import StoreJournal
from repro.store.slabs import SlabPool, global_pool, write_slab

__all__ = [
    "ShardedTrajectoryStore",
    "SlabDistribution",
    "ShardView",
    "attach_shard",
    "open_store_chain",
    "store_health",
    "sweep_stale_snapshots",
]

_SCHEMA_VERSION = 1
_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"
_SNAPSHOT_PREFIX = "snapshot-"

#: journal records that trigger :meth:`ShardedTrajectoryStore.maybe_autosnapshot`
AUTOSNAPSHOT_ENV = "REPRO_STORE_AUTOSNAPSHOT"
_AUTOSNAPSHOT_DEFAULT = 4096

def snapshot_dir(root: Path, generation: int) -> Path:
    return Path(root) / f"{_SNAPSHOT_PREFIX}{int(generation):06d}"


def _write_json_atomic(path: Path, payload: Dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _load_manifest(root: Path) -> Dict:
    path = Path(root) / _MANIFEST
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise SerializationError(
            f"{root} is not a trajectory store (no {_MANIFEST})"
        ) from None
    except json.JSONDecodeError as error:
        raise SerializationError(
            f"corrupt store manifest {path}: {error}"
        ) from error
    if manifest.get("schema_version") != _SCHEMA_VERSION:
        raise SerializationError(
            f"store schema {manifest.get('schema_version')!r} not "
            f"supported (this build reads {_SCHEMA_VERSION})"
        )
    return manifest


# ----------------------------------------------------------------------
# lazy slab-backed distributions
# ----------------------------------------------------------------------
class SlabDistribution(StateDistribution):
    """A distribution whose weights live in a memory-mapped slab.

    Holds only *paths and offsets* -- cheap, picklable, and never pins
    slab pages: :attr:`_vector` densifies the sparse row on every
    access through the process-wide pool, so evicting the mapping is
    always safe and resident bytes stay under ``REPRO_STORE_RAM_CAP``.
    """

    __slots__ = ("_states_path", "_weights_path", "_lo", "_hi", "_n")

    def __init__(
        self,
        states_path: str,
        weights_path: str,
        lo: int,
        hi: int,
        n_states: int,
    ) -> None:
        self._states_path = str(states_path)
        self._weights_path = str(weights_path)
        self._lo = int(lo)
        self._hi = int(hi)
        self._n = int(n_states)

    @property
    def _vector(self) -> np.ndarray:  # shadows the base-class slot
        pool = global_pool()
        states = pool.map(self._states_path)[self._lo:self._hi]
        weights = pool.map(self._weights_path)[self._lo:self._hi]
        vector = np.zeros(self._n, dtype=float)
        vector[states] = weights
        vector.setflags(write=False)
        return vector

    @property
    def n_states(self) -> int:
        return self._n

    def support(self) -> Tuple[int, ...]:
        states = global_pool().map(self._states_path)[self._lo:self._hi]
        return tuple(int(s) for s in states)

    def sparse(self) -> Tuple[np.ndarray, np.ndarray]:
        pool = global_pool()
        return (
            np.array(
                pool.map(self._states_path)[self._lo:self._hi],
                dtype=np.int64,
            ),
            np.array(pool.map(self._weights_path)[self._lo:self._hi]),
        )

    def support_size(self) -> int:
        return self._hi - self._lo

    def __repr__(self) -> str:
        return (
            f"SlabDistribution(n={self._n}, support={self.support_size()},"
            f" slab={os.path.basename(os.path.dirname(self._states_path))})"
        )


# ----------------------------------------------------------------------
# shard views (parent fallback + worker attachment)
# ----------------------------------------------------------------------
@dataclass
class ShardView:
    """One shard's columns, attached through the slab pool.

    The heavy ragged columns (support states and weights) stay
    memory-mapped and are accessed through :meth:`states` /
    :meth:`weights`; the small index columns are copied into RAM once
    at attach time.
    """

    store_dir: str
    generation: int
    shard_id: str
    chain_id: str
    n_states: int
    object_ids: List[str]
    obs_indptr: np.ndarray
    obs_times: np.ndarray
    obj_indptr: np.ndarray
    obj_dbindex: np.ndarray
    displacement_bound: Optional[float]

    @property
    def slab_dir(self) -> Path:
        return snapshot_dir(Path(self.store_dir), self.generation) / self.shard_id

    def states(self) -> np.ndarray:
        return global_pool().map(self.slab_dir / "obs_states.npy")

    def weights(self) -> np.ndarray:
        return global_pool().map(self.slab_dir / "obs_weights.npy")

    def n_objects(self) -> int:
        return len(self.object_ids)

    # the columns below carry the names of
    # :class:`~repro.database.cohort.Cohort`, so the kernels take
    # either through :func:`repro.core.batch.evaluate_rows`
    @property
    def start_time(self) -> np.ndarray:
        """Per object: timestamp of its first observation."""
        return self.obs_times[self.obj_indptr[:-1]]

    @property
    def last_time(self) -> np.ndarray:
        """Per object: timestamp of its latest observation."""
        return self.obs_times[self.obj_indptr[1:] - 1]

    @property
    def is_multi(self) -> np.ndarray:
        """Per object: later observations exist (Section VI)."""
        return np.diff(self.obj_indptr) > 1

    def block(self, rows: np.ndarray) -> SupportBlock:
        """The first-observation distributions of the objects at
        ``rows``, gathered from the slabs in one pass."""
        first = self.obj_indptr[:-1][rows]
        return SupportBlock.gather(
            self.n_states,
            self.states(),
            self.weights(),
            self.obs_indptr[first],
            self.obs_indptr[first + 1],
        )

    def observation_sets(
        self, rows: np.ndarray
    ) -> List[ObservationSet]:
        """Every observation of the objects at ``rows``."""
        states, weights = self.states(), self.weights()
        return [
            ObservationSet.from_columns(
                self.n_states,
                self.obs_times[lo:hi],
                self.obs_indptr[lo:hi + 1],
                states,
                weights,
            )
            for lo, hi in zip(
                self.obj_indptr[rows], self.obj_indptr[rows + 1]
            )
        ]


_ATTACH_LOCK = threading.Lock()
_SHARD_VIEWS: Dict[Tuple[str, int, str], ShardView] = {}
_MANIFESTS: Dict[Tuple[str, int], Dict] = {}
_CHAINS: Dict[Tuple[str, str], MarkovChain] = {}


def _manifest_for(store_dir: str, generation: int) -> Dict:
    """The manifest of generation ``generation`` of ``store_dir``.

    Cached per process; caching a generation drops the dir's other
    generations -- their manifests, shard views and slab mappings --
    so a long-lived worker never pins the pages of a swept generation.
    """
    key = (str(store_dir), int(generation))
    with _ATTACH_LOCK:
        cached = _MANIFESTS.get(key)
    if cached is not None:
        return cached
    manifest = _load_manifest(Path(store_dir))
    if int(manifest["generation"]) != int(generation):
        raise SerializationError(
            f"store {store_dir} is at generation "
            f"{manifest['generation']}, task expects {generation}"
        )
    with _ATTACH_LOCK:
        _MANIFESTS[key] = manifest
    forget_generations(store_dir, keep=int(generation))
    return manifest


def forget_generations(
    store_dir: Union[str, Path], keep: Optional[int] = None
) -> None:
    """Drop this process's cached manifests, shard views and slab
    mappings of ``store_dir``: of every generation but ``keep``, or of
    the whole store (its chains included) when ``keep`` is None."""
    store_dir = str(store_dir)
    with _ATTACH_LOCK:
        stale = {
            key[1] for key in (*_MANIFESTS, *_SHARD_VIEWS)
            if key[0] == store_dir and key[1] != keep
        }
        for cache in (_MANIFESTS, _SHARD_VIEWS):
            for key in [k for k in cache if k[0] == store_dir
                        and k[1] in stale]:
                del cache[key]
        if keep is None:
            for key in [k for k in _CHAINS if k[0] == store_dir]:
                del _CHAINS[key]
    pool = global_pool()
    if keep is None:
        pool.forget(os.path.join(store_dir, ""))
    for generation in stale:
        pool.forget(os.path.join(snapshot_dir(store_dir, generation), ""))


def attach_shard(
    store_dir: str, generation: int, shard_id: str
) -> Tuple[ShardView, bool]:
    """Attach one shard's slabs; returns ``(view, freshly_attached)``.

    Cached per process: a persistent shard worker attaches each slab
    exactly once per generation and serves every later query from the
    same mapping -- the "no re-publish per query" half of zero-copy
    (the other half is that the mapping shares pages with every other
    process through the OS page cache).
    """
    key = (str(store_dir), int(generation), str(shard_id))
    with _ATTACH_LOCK:
        view = _SHARD_VIEWS.get(key)
    if view is not None:
        return view, False
    manifest = _manifest_for(store_dir, generation)
    entry = next(
        (s for s in manifest["shards"] if s["shard_id"] == shard_id), None
    )
    if entry is None:
        raise SerializationError(
            f"store {store_dir} has no shard {shard_id!r}"
        )
    slab_dir = snapshot_dir(Path(store_dir), generation) / shard_id
    with open(slab_dir / "objects.json", "r", encoding="utf-8") as handle:
        objects = json.load(handle)
    view = ShardView(
        store_dir=str(store_dir),
        generation=int(generation),
        shard_id=str(shard_id),
        chain_id=str(entry["chain_id"]),
        n_states=int(manifest["n_states"]),
        object_ids=list(objects["object_ids"]),
        obs_indptr=np.load(slab_dir / "obs_indptr.npy"),
        obs_times=np.load(slab_dir / "obs_times.npy"),
        obj_indptr=np.load(slab_dir / "obj_indptr.npy"),
        obj_dbindex=np.load(slab_dir / "obj_dbindex.npy"),
        displacement_bound=manifest["chains"]
        .get(str(entry["chain_id"]), {})
        .get("displacement_bound"),
    )
    with _ATTACH_LOCK:
        _SHARD_VIEWS[key] = view
    return view, True


def open_store_chain(
    store_dir: str, chain_id: str, generation: Optional[int] = None
) -> MarkovChain:
    """The chain's CSR, memory-mapped (cached per process); with a
    ``generation``, through that generation's cached manifest."""
    manifest = (_load_manifest(Path(store_dir)) if generation is None
                else _manifest_for(store_dir, generation))
    entry = manifest["chains"][str(chain_id)]
    key = (str(store_dir), str(entry["fingerprint"]))
    with _ATTACH_LOCK:
        chain = _CHAINS.get(key)
    if chain is not None:
        return chain
    chain = _read_chain(Path(store_dir), entry, int(manifest["n_states"]))
    with _ATTACH_LOCK:
        _CHAINS[key] = chain
    return chain


def store_positions(store_dir: str) -> Optional[np.ndarray]:
    """State coordinates, memory-mapped (None without geometry)."""
    path = Path(store_dir) / "positions.npy"
    if not path.exists():
        return None
    return global_pool().map(path)


def _read_chain(
    root: Path, entry: Dict, n_states: int
) -> MarkovChain:
    stem = entry["files"]
    data = np.load(root / "chains" / f"{stem}.data.npy", mmap_mode="r")
    indices = np.load(root / "chains" / f"{stem}.indices.npy", mmap_mode="r")
    indptr = np.load(root / "chains" / f"{stem}.indptr.npy", mmap_mode="r")
    matrix = sp.csr_matrix(
        (data, indices, indptr), shape=(n_states, n_states), copy=False
    )
    chain = MarkovChain(matrix, validate=False)
    fingerprint = entry.get("fingerprint")
    if fingerprint:
        chain._fingerprint_cache = fingerprint
    return chain


def _write_chain(root: Path, stem: str, chain: MarkovChain) -> None:
    directory = root / "chains"
    directory.mkdir(parents=True, exist_ok=True)
    matrix = chain.matrix.tocsr()
    write_slab(directory / f"{stem}.data.npy",
               np.asarray(matrix.data, dtype=np.float64))
    write_slab(directory / f"{stem}.indices.npy",
               np.asarray(matrix.indices, dtype=np.int32))
    write_slab(directory / f"{stem}.indptr.npy",
               np.asarray(matrix.indptr, dtype=np.int32))


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
class ShardedTrajectoryStore(TrajectoryDatabase):
    """A :class:`TrajectoryDatabase` over memory-mapped columnar shards.

    Open an existing store with the constructor, build one from an
    in-RAM database with :meth:`create`.  Everything a
    ``TrajectoryDatabase`` can do works here -- adds, removes, online
    ``append_observation``, chain re-registration, streaming standing
    queries -- with mutations journaled to disk (routed to their
    owning shard) and folded into a new slab generation by
    :meth:`snapshot`.
    """

    #: pipeline marker: queries can scatter-gather over this database's
    #: shards through :func:`repro.exec.dispatch.run_store_shards`
    #: (one task per worker slot)
    supports_shard_scatter = True

    def __init__(
        self,
        path: Union[str, Path],
        state_space: Optional[StateSpace] = None,
    ) -> None:
        self.path = Path(path)
        manifest = _load_manifest(self.path)
        self.store_id = str(manifest["store_id"])
        self.generation = int(manifest["generation"])
        if state_space is None and manifest.get("has_positions"):
            positions = np.array(np.load(self.path / "positions.npy"))
            state_space = PointStateSpace(positions)
        super().__init__(int(manifest["n_states"]), state_space)
        self._manifest = manifest
        self._persist = False  # suppress disk journaling during load
        self._chain_files: Dict[str, str] = {
            cid: entry["files"] for cid, entry in manifest["chains"].items()
        }
        #: object id -> owning shard id (assigned at snapshot or first add)
        self._shard_of: Dict[str, str] = {}
        #: snapshot members whose slab row no longer reflects them
        self._stale: Set[str] = set()
        #: ids present in the current slab generation
        self._snapshot_ids: Set[str] = set()
        self._seed_positions: Dict[str, int] = {}
        self._next_seed = 0
        self._load_chains(manifest)
        self._load_shards(manifest)
        self._version = int(manifest["version"])
        self._journal_dropped = self._version
        self._disk_journal = StoreJournal(
            self.path / _JOURNAL, base_version=self._version
        )
        for record in self._disk_journal.load():
            self._apply(record)
        self._persist = True

    # ------------------------------------------------------------------
    # construction from an in-RAM database
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        database: TrajectoryDatabase,
        shards_per_chain: int = 8,
    ) -> "ShardedTrajectoryStore":
        """Lay ``database`` out as a store at ``path`` and open it.

        Objects are partitioned per chain into ``shards_per_chain``
        spatial tiles (contiguous slices of the first-observation
        centroid ordering, so each tile is compact); a tile's bounding
        box in the manifest routes objects added later to the nearest
        tile.
        """
        root = Path(path)
        if (root / _MANIFEST).exists():
            raise ValidationError(f"store already exists at {root}")
        write_generation(root, database, 1, shards_per_chain)
        return cls(root, state_space=database.state_space)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load_chains(self, manifest: Dict) -> None:
        for chain_id, entry in manifest["chains"].items():
            chain = _read_chain(self.path, entry, self.n_states)
            self._chains[chain_id] = chain
            bound = entry.get("displacement_bound")
            if bound is not None:
                self._displacement_bounds[chain_id] = float(bound)

    def _load_shards(self, manifest: Dict) -> None:
        for entry in manifest["shards"]:
            shard_id = entry["shard_id"]
            slab_dir = snapshot_dir(self.path, self.generation) / shard_id
            try:
                view, _fresh = attach_shard(
                    str(self.path), self.generation, shard_id
                )
            except (OSError, KeyError, ValueError) as error:
                raise SerializationError(
                    f"shard {shard_id} of store {self.path} is "
                    f"unreadable: {error}"
                ) from error
            states_path = str(slab_dir / "obs_states.npy")
            weights_path = str(slab_dir / "obs_weights.npy")
            for index, object_id in enumerate(view.object_ids):
                lo = int(view.obj_indptr[index])
                hi = int(view.obj_indptr[index + 1])
                observations = tuple(
                    Observation(
                        int(view.obs_times[row]),
                        SlabDistribution(
                            states_path,
                            weights_path,
                            int(view.obs_indptr[row]),
                            int(view.obs_indptr[row + 1]),
                            self.n_states,
                        ),
                    )
                    for row in range(lo, hi)
                )
                obj = UncertainObject(
                    object_id=object_id,
                    observations=ObservationSet(observations),
                    chain_id=view.chain_id,
                )
                self._objects[object_id] = obj
                self._shard_of[object_id] = shard_id
                self._snapshot_ids.add(object_id)
                seed = int(view.obj_dbindex[index])
                self._seed_positions[object_id] = seed
                self._next_seed = max(self._next_seed, seed + 1)

    def _load_cohorts(self) -> None:
        """The snapshot population comes straight from the slabs -- a
        shard's columns already are first-observation supports in CSR
        form -- so only overlay objects (added or re-observed since
        the snapshot) go through their records."""
        for entry in self._manifest["shards"]:
            view, _fresh = attach_shard(
                str(self.path), self.generation, entry["shard_id"]
            )
            cohort = self._cohorts.setdefault(
                view.chain_id, Cohort(view.chain_id, self.n_states)
            )
            cohort.extend(
                view.object_ids,
                view.block(np.arange(view.n_objects())),
                view.start_time,
                view.last_time,
            )
        for object_id in self._stale:
            for cohort in self._cohorts.values():
                cohort.discard(object_id)
        self._extend_cohorts(
            [self._objects[i] for i in self.overlay_object_ids()]
        )

    def _apply(self, record: Dict) -> None:
        """Replay one journal record (disk journaling suppressed)."""
        op = record.get("op")
        object_id = record.get("id")
        if op == "chain":
            entry = {"files": record["files"],
                     "fingerprint": record.get("fingerprint")}
            self._chain_files[object_id] = record["files"]
            chain = _read_chain(self.path, entry, self.n_states)
            super().register_chain(object_id, chain)
        elif op == "add":
            observations = tuple(
                StoreJournal.decode_observation(obs, self.n_states)
                for obs in record["observations"]
            )
            self.add(UncertainObject(
                object_id=object_id,
                observations=ObservationSet(observations),
                chain_id=record["chain_id"],
            ))
        elif op == "observe":
            existing = self._objects.get(object_id)
            if existing is None:
                raise SerializationError(
                    f"journal observes unknown object {object_id!r}"
                )
            observations = tuple(
                StoreJournal.decode_observation(obs, self.n_states)
                for obs in record["observations"]
            )
            self._objects[object_id] = replace(
                existing, observations=ObservationSet(observations)
            )
            self._record("observe", object_id)
        elif op == "remove":
            self.remove(object_id)
        else:
            raise SerializationError(
                f"unknown journal op {op!r} in store {self.path}"
            )

    # ------------------------------------------------------------------
    # journaled mutation hooks
    # ------------------------------------------------------------------
    def _record(self, op: str, object_id: str) -> None:
        super()._record(op, object_id)
        record: Dict = {"op": op, "id": object_id, "v": self._version}
        if op == "chain":
            record["files"] = self._chain_files.get(object_id)
            chain = self._chains.get(object_id)
            if chain is not None:
                record["fingerprint"] = chain.fingerprint()
        elif op == "add":
            obj = self._objects[object_id]
            record["shard"] = self._route(obj)
            record["chain_id"] = obj.chain_id
            record["observations"] = [
                StoreJournal.encode_observation(obs)
                for obs in obj.observations
            ]
            self._seed_positions.setdefault(object_id, self._take_seed())
        elif op == "observe":
            obj = self._objects[object_id]
            record["shard"] = self._shard_of.get(object_id)
            record["observations"] = [
                StoreJournal.encode_observation(obs)
                for obs in obj.observations
            ]
            if object_id in self._snapshot_ids:
                self._stale.add(object_id)
        elif op == "remove":
            record["shard"] = self._shard_of.get(object_id)
            if object_id in self._snapshot_ids:
                self._stale.add(object_id)
        if self._persist:
            self._disk_journal.append(record)

    def register_chain(self, chain_id: str, chain: MarkovChain) -> None:
        chain_id = str(chain_id)
        if self._persist:
            stem = self._chain_files.get(
                chain_id, f"chain-{len(self._chain_files):03d}"
            )
            _write_chain(self.path, stem, chain)
            self._chain_files[chain_id] = stem
        super().register_chain(chain_id, chain)

    def _take_seed(self) -> int:
        seed = self._next_seed
        self._next_seed += 1
        return seed

    def _centroid(self, obj: UncertainObject) -> Optional[Tuple[float, float]]:
        positions = self.state_positions()
        support = list(obj.initial.distribution.support())
        if not support:
            return None
        if positions is None:
            return (float(np.mean(support)), 0.0)
        points = np.atleast_2d(positions[support])
        x = float(points[:, 0].mean())
        y = float(points[:, 1].mean()) if points.shape[1] > 1 else 0.0
        return (x, y)

    def _route(self, obj: UncertainObject) -> str:
        """The owning shard of an object (stable once assigned)."""
        existing = self._shard_of.get(obj.object_id)
        if existing is not None:
            return existing
        candidates = [
            entry for entry in self._manifest["shards"]
            if entry["chain_id"] == obj.chain_id and entry.get("mbr")
        ]
        centroid = self._centroid(obj)
        if not candidates or centroid is None:
            any_chain = [
                entry for entry in self._manifest["shards"]
                if entry["chain_id"] == obj.chain_id
            ]
            shard = (any_chain[0]["shard_id"] if any_chain
                     else f"overlay:{obj.chain_id}")
        else:
            def distance(entry: Dict) -> float:
                minx, miny, maxx, maxy = entry["mbr"]
                cx, cy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
                return (cx - centroid[0]) ** 2 + (cy - centroid[1]) ** 2

            containing = [
                entry for entry in candidates
                if entry["mbr"][0] <= centroid[0] <= entry["mbr"][2]
                and entry["mbr"][1] <= centroid[1] <= entry["mbr"][3]
            ]
            pool = containing or candidates
            shard = min(pool, key=distance)["shard_id"]
        self._shard_of[obj.object_id] = shard
        return shard

    # ------------------------------------------------------------------
    # scatter-gather support (pipeline + dispatch)
    # ------------------------------------------------------------------
    def store_shards(
        self, chain_id: Optional[str] = None
    ) -> List[Dict]:
        """Manifest shard entries (optionally one chain's)."""
        return [
            dict(entry) for entry in self._manifest["shards"]
            if chain_id is None or entry["chain_id"] == chain_id
        ]

    def shard_count(self, chain_id: Optional[str] = None) -> int:
        """Number of slab shards (per chain when given) -- the planner
        reads this to size the process pool to the storage layout."""
        return len(self.store_shards(chain_id))

    def overlay_object_ids(self) -> Set[str]:
        """Ids whose current state is *not* served by the slabs.

        These are objects added or mutated since the snapshot; the
        pipeline evaluates them in the parent while shard workers
        cover the (unchanged) snapshot population.
        """
        return {
            object_id for object_id in self._objects
            if object_id not in self._snapshot_ids
            or object_id in self._stale
        }

    def shard_exclusions(self) -> Dict[str, Tuple[str, ...]]:
        """Per-shard ids a worker must skip (removed or superseded)."""
        exclusions: Dict[str, List[str]] = {}
        for object_id in self._stale:
            shard = self._shard_of.get(object_id)
            if shard is not None:
                exclusions.setdefault(shard, []).append(object_id)
        return {
            shard: tuple(sorted(ids))
            for shard, ids in exclusions.items()
        }

    def seed_positions(self) -> Dict[str, int]:
        """Stable per-object seed offsets (MC parity across layouts).

        A store enumerates objects shard-by-shard, so ``object_ids``
        order differs from the source database's insertion order; MC
        seeding uses these positions instead so every object draws the
        same paths in either layout.
        """
        return dict(self._seed_positions)

    @property
    def fusion_token(self) -> str:
        """Version token for service-tier fusion keys.

        Couples the mutation counter to the store identity and slab
        generation, so requests against a re-opened (or re-snapshotted)
        store never fuse with results computed from different slabs.
        """
        return f"{self.store_id}:g{self.generation}:v{self._version}"

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Fold journal + overlay into a new slab generation.

        Rewrites every shard's slabs from the current object set,
        updates the manifest atomically, truncates the journal, and
        re-points the in-RAM records at the new generation.  Returns
        the new generation number.  The previous generation's files
        stay on disk (a reader may still hold them) until
        :func:`sweep_stale_snapshots` removes them.
        """
        generation = self.generation + 1
        positions = self.state_positions()
        chains_meta: Dict[str, Dict] = {}
        for chain_id, chain in self._chains.items():
            stem = self._chain_files.get(chain_id)
            if stem is None:
                stem = f"chain-{len(self._chain_files):03d}"
                _write_chain(self.path, stem, chain)
                self._chain_files[chain_id] = stem
            chains_meta[chain_id] = {
                "files": stem,
                "fingerprint": chain.fingerprint(),
                "displacement_bound":
                    self.chain_displacement_bound(chain_id),
            }
        shards_per_chain = max(
            1,
            round(len(self._manifest["shards"])
                  / max(1, len(self._manifest["chains"]))),
        ) if self._manifest["shards"] else 8
        shards = _write_snapshot_dirs(
            self.path, generation, self.objects_by_chain(), positions,
            self._seed_positions, shards_per_chain,
        )
        manifest = {
            "schema_version": _SCHEMA_VERSION,
            "store_id": self.store_id,
            "n_states": self.n_states,
            "generation": generation,
            "version": self._version,
            "has_positions": positions is not None,
            "chains": chains_meta,
            "shards": shards,
            "shard_journal_offsets": dict(
                self._disk_journal.shard_offsets
            ),
        }
        _write_json_atomic(self.path / _MANIFEST, manifest)
        self._manifest = manifest
        self.generation = generation
        self._disk_journal.truncate(self._version)
        # re-point in-RAM records at the new generation's slabs; the
        # in-RAM mutation journal and version are untouched (a snapshot
        # is not a mutation, streaming consumers stay in sync)
        self._objects.clear()
        self._shard_of.clear()
        self._snapshot_ids.clear()
        self._stale.clear()
        persist = self._persist
        self._persist = False
        self._load_shards(manifest)
        self._persist = persist
        forget_generations(self.path, keep=generation)
        return generation

    def maybe_autosnapshot(self) -> Optional[int]:
        """Snapshot when the journal outgrew ``REPRO_STORE_AUTOSNAPSHOT``.

        Called by the streaming engine after each committed tick so
        long-running monitors fold their appends into slabs without an
        operator in the loop.  Returns the new generation, or ``None``
        when below the threshold (0 disables).
        """
        raw = os.environ.get(AUTOSNAPSHOT_ENV, "").strip()
        try:
            threshold = int(raw) if raw else _AUTOSNAPSHOT_DEFAULT
        except ValueError:
            threshold = _AUTOSNAPSHOT_DEFAULT
        if threshold <= 0 or len(self._disk_journal) < threshold:
            return None
        return self.snapshot()

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Store health for ``repro-bench doctor``."""
        report = store_health(self.path)
        report["overlay_objects"] = len(self.overlay_object_ids())
        report["stale_slab_rows"] = len(self._stale)
        return report

    def __repr__(self) -> str:
        return (
            f"ShardedTrajectoryStore(path={str(self.path)!r}, "
            f"objects={len(self)}, shards={self.shard_count()}, "
            f"generation={self.generation})"
        )


# ----------------------------------------------------------------------
# snapshot writing
# ----------------------------------------------------------------------
def write_generation(
    root: Union[str, Path],
    database: TrajectoryDatabase,
    generation: int,
    shards_per_chain: int,
) -> Dict:
    """Lay ``database`` out as slab generation ``generation`` at ``root``.

    Writes the state positions, every chain's CSR, the generation's
    shard slabs and -- last, atomically -- the manifest naming them;
    returns that manifest.  Earlier generations' slab directories are
    left in place for their readers.  :meth:`ShardedTrajectoryStore.
    create` is this at generation 1 followed by the open; the process
    dispatcher spills in-RAM databases with it.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    positions = database.state_positions()
    if positions is not None:
        write_slab(root / "positions.npy",
                   np.asarray(positions, dtype=float))
    chains_meta: Dict[str, Dict] = {}
    for index, chain_id in enumerate(database.chain_ids):
        stem = f"chain-{index:03d}"
        chain = database.chain(chain_id)
        _write_chain(root, stem, chain)
        chains_meta[chain_id] = {
            "files": stem,
            "fingerprint": chain.fingerprint(),
            "displacement_bound":
                database.chain_displacement_bound(chain_id),
        }
    seed_of = getattr(database, "seed_positions", None)
    seed_of = seed_of() if callable(seed_of) else {
        oid: index for index, oid in enumerate(database.object_ids)
    }
    shards = _write_snapshot_dirs(
        root, generation, database.objects_by_chain(), positions,
        seed_of, shards_per_chain,
    )
    manifest = {
        "schema_version": _SCHEMA_VERSION,
        "store_id": os.urandom(6).hex(),
        "n_states": database.n_states,
        "generation": int(generation),
        "version": database.version,
        "has_positions": positions is not None,
        "chains": chains_meta,
        "shards": shards,
        "shard_journal_offsets": {},
    }
    _write_json_atomic(root / _MANIFEST, manifest)
    return manifest


def _first_support_centroid(
    obj: UncertainObject, positions: Optional[np.ndarray]
) -> float:
    """Mean x of the points of the object's first-observation support
    (state indices on a line without positions); 0 for an empty
    support."""
    support = obj.initial.distribution.sparse()[0]
    if not len(support):
        return 0.0
    if positions is None:
        return float(support.mean())
    return float(np.asarray(positions, dtype=float)[support, 0].mean())


def _write_snapshot_dirs(
    root: Path,
    generation: int,
    objects_by_chain: Dict[str, List[UncertainObject]],
    positions: Optional[np.ndarray],
    seed_of: Dict[str, int],
    shards_per_chain: int,
) -> List[Dict]:
    """Write every shard of one generation; returns manifest entries."""
    snapshot = snapshot_dir(root, generation)
    snapshot.mkdir(parents=True, exist_ok=True)
    entries: List[Dict] = []
    shard_index = 0
    next_seed = max(seed_of.values(), default=-1) + 1
    for chain_id in sorted(objects_by_chain):
        objects = objects_by_chain[chain_id]
        if not objects:
            continue
        centroids = np.array([
            _first_support_centroid(obj, positions) for obj in objects
        ])
        order = np.argsort(centroids, kind="stable")
        tiles = np.array_split(
            order, max(1, min(int(shards_per_chain), len(objects)))
        )
        for tile in tiles:
            if len(tile) == 0:
                continue
            shard_id = f"shard-{shard_index:04d}"
            shard_index += 1
            tile_objects = [objects[i] for i in tile]
            seeds = []
            for obj in tile_objects:
                if obj.object_id not in seed_of:
                    seed_of[obj.object_id] = next_seed
                    next_seed += 1
                seeds.append(seed_of[obj.object_id])
            entries.append(_write_shard(
                snapshot / shard_id, shard_id, chain_id, tile_objects,
                positions, seeds,
            ))
    return entries


def _write_shard(
    slab_dir: Path,
    shard_id: str,
    chain_id: str,
    objects: Sequence[UncertainObject],
    positions: Optional[np.ndarray],
    seeds: Sequence[int],
) -> Dict:
    slab_dir.mkdir(parents=True, exist_ok=True)
    states_parts: List[np.ndarray] = []
    weights_parts: List[np.ndarray] = []
    obs_indptr = [0]
    obs_times: List[int] = []
    obj_indptr = [0]
    object_ids: List[str] = []
    n_multi = 0
    for obj in objects:
        object_ids.append(obj.object_id)
        if len(obj.observations) > 1:
            n_multi += 1
        for observation in obj.observations:
            support, weights = observation.distribution.sparse()
            states_parts.append(support.astype(np.int32))
            weights_parts.append(np.asarray(weights, dtype=np.float64))
            obs_indptr.append(obs_indptr[-1] + len(support))
            obs_times.append(int(observation.time))
        obj_indptr.append(len(obs_times))
    slab_bytes = 0
    slab_bytes += write_slab(
        slab_dir / "obs_states.npy",
        np.concatenate(states_parts) if states_parts
        else np.zeros(0, dtype=np.int32),
    )
    slab_bytes += write_slab(
        slab_dir / "obs_weights.npy",
        np.concatenate(weights_parts) if weights_parts
        else np.zeros(0, dtype=np.float64),
    )
    slab_bytes += write_slab(
        slab_dir / "obs_indptr.npy", np.asarray(obs_indptr, dtype=np.int64)
    )
    slab_bytes += write_slab(
        slab_dir / "obs_times.npy", np.asarray(obs_times, dtype=np.int64)
    )
    slab_bytes += write_slab(
        slab_dir / "obj_indptr.npy", np.asarray(obj_indptr, dtype=np.int64)
    )
    slab_bytes += write_slab(
        slab_dir / "obj_dbindex.npy", np.asarray(seeds, dtype=np.int64)
    )
    _write_json_atomic(slab_dir / "objects.json", {
        "object_ids": object_ids,
        "chain_id": chain_id,
    })
    mbr = None  # routes later additions (ShardedTrajectoryStore._route)
    if positions is not None and objects:
        points = np.asarray(positions, dtype=float)[
            np.concatenate([states_parts[i] for i in obj_indptr[:-1]])
        ]
        x = points[:, 0]
        y = points[:, 1] if points.shape[1] > 1 else np.zeros(len(x))
        mbr = [
            float(x.min()), float(y.min()), float(x.max()), float(y.max())
        ]
    return {
        "shard_id": shard_id,
        "chain_id": chain_id,
        "n_objects": len(objects),
        "n_observations": len(obs_times),
        "n_multi": n_multi,
        "mbr": mbr,
        "slab_bytes": int(slab_bytes),
    }


# ----------------------------------------------------------------------
# health + sweeping (repro-bench doctor)
# ----------------------------------------------------------------------
def tree_bytes(path: Path) -> int:
    total = 0
    for directory, _subdirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def store_health(path: Union[str, Path]) -> Dict[str, object]:
    """Health report of a store directory (no full open needed)."""
    root = Path(path)
    manifest = _load_manifest(root)
    current = snapshot_dir(root, manifest["generation"]).name
    stale_dirs = sorted(
        entry.name for entry in root.iterdir()
        if entry.is_dir() and entry.name.startswith(_SNAPSHOT_PREFIX)
        and entry.name != current
    )
    journal = StoreJournal(root / _JOURNAL)
    pool = global_pool()
    return {
        "path": str(root),
        "store_id": manifest["store_id"],
        "generation": int(manifest["generation"]),
        "shards": len(manifest["shards"]),
        "objects": int(sum(
            entry["n_objects"] for entry in manifest["shards"]
        )),
        "slab_bytes": int(sum(
            entry["slab_bytes"] for entry in manifest["shards"]
        )),
        "journal_records": len(journal),
        "journal_bytes": journal.size_bytes(),
        "shard_journal_offsets": dict(journal.shard_offsets),
        "stale_snapshots": stale_dirs,
        "stale_snapshot_bytes": int(sum(
            tree_bytes(root / name) for name in stale_dirs
        )),
        "pool": pool.stats(),
    }


def sweep_stale_snapshots(path: Union[str, Path]) -> Tuple[int, int]:
    """Remove non-current snapshot generations; ``(dirs, bytes)`` freed.

    The twin of the dispatcher's spill janitor: snapshots keep the
    previous generation on disk so in-flight readers survive, and this
    sweep (wired into ``repro-bench doctor``) reclaims them once no
    query is older than the current generation.
    """
    root = Path(path)
    manifest = _load_manifest(root)
    current = snapshot_dir(root, manifest["generation"]).name
    forget_generations(root, keep=int(manifest["generation"]))
    removed = 0
    freed = 0
    for entry in sorted(root.iterdir()):
        if (not entry.is_dir()
                or not entry.name.startswith(_SNAPSHOT_PREFIX)
                or entry.name == current):
            continue
        freed += tree_bytes(entry)
        global_pool().forget(entry)
        shutil.rmtree(entry, ignore_errors=True)
        removed += 1
    return removed, freed


# re-exported for tests tuning the pool directly
_ = SlabPool
