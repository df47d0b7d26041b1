"""Append-only mutation journal of the sharded store.

Every mutation that reaches a :class:`~repro.store.sharded.ShardedTrajectoryStore`
after it was opened -- adds, removes, appended observations, chain
registrations -- is recorded as one JSON line in ``journal.jsonl``
inside the store directory.  Re-opening the store replays the journal
over the last snapshot, so shards survive restarts with no mutation
lost; :meth:`~repro.store.sharded.ShardedTrajectoryStore.snapshot`
folds the journal into a new slab generation and truncates it.

Records are small and self-contained: observation distributions travel
as sparse ``{state: probability}`` maps (the same encoding
:mod:`repro.database.serialization` uses), and every record names the
*owning shard* its object routes to, which is what keeps per-shard
journal offsets computable without scanning payloads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Union

from repro.core.errors import SerializationError

__all__ = ["StoreJournal"]


class StoreJournal:
    """One store's on-disk mutation journal.

    Args:
        path: the ``journal.jsonl`` file (created on first append).
        base_version: the database version the last snapshot captured;
            replayed records continue from it.
    """

    def __init__(
        self, path: Union[str, Path], base_version: int = 0
    ) -> None:
        self.path = Path(path)
        self.base_version = int(base_version)
        self._count = 0
        #: journal records per owning shard since the last snapshot --
        #: the "journal offset" of each shard, reported by doctor and
        #: persisted into the next snapshot's manifest
        self.shard_offsets: Dict[str, int] = {}
        if self.path.exists():
            for record in self.replay():
                self._count += 1
                shard = record.get("shard")
                if shard is not None:
                    self.shard_offsets[str(shard)] = (
                        self.shard_offsets.get(str(shard), 0) + 1
                    )

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def append(self, record: Dict) -> None:
        """Durably append one mutation record."""
        line = json.dumps(record, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._count += 1
        shard = record.get("shard")
        if shard is not None:
            self.shard_offsets[str(shard)] = (
                self.shard_offsets.get(str(shard), 0) + 1
            )

    def truncate(self, base_version: int) -> None:
        """Reset after a snapshot folded every record into slabs."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        self.base_version = int(base_version)
        self._count = 0
        self.shard_offsets = {}

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def replay(self) -> Iterator[Dict]:
        """Yield every record in append order.

        A truncated trailing line (crash mid-append) is dropped with
        the records after it -- the journal is append-only, so every
        complete prefix is a consistent state.
        """
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    return  # torn tail: stop at the last good record

    def load(self) -> List[Dict]:
        """All records, recomputing the per-shard offsets."""
        records = list(self.replay())
        self._count = len(records)
        self.shard_offsets = {}
        for record in records:
            shard = record.get("shard")
            if shard is not None:
                self.shard_offsets[str(shard)] = (
                    self.shard_offsets.get(str(shard), 0) + 1
                )
        return records

    def __len__(self) -> int:
        return self._count

    def size_bytes(self) -> int:
        """On-disk journal size (0 when absent)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    @staticmethod
    def encode_observation(observation) -> Dict:
        """Sparse JSON encoding of one observation."""
        return {
            "time": int(observation.time),
            "distribution": {
                str(state): float(probability)
                for state, probability in observation.distribution.items()
            },
        }

    @staticmethod
    def decode_observation(record: Dict, n_states: int):
        """Inverse of :meth:`encode_observation`."""
        from repro.core.distribution import StateDistribution
        from repro.core.observation import Observation

        try:
            weights = {
                int(state): float(probability)
                for state, probability in record["distribution"].items()
            }
            return Observation(
                int(record["time"]),
                StateDistribution.from_dict(
                    n_states, weights, normalize=True
                ),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise SerializationError(
                f"corrupt journal observation record: {error}"
            ) from error
