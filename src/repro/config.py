"""Global configuration objects for the repro library.

Two kinds of configuration live here:

* :class:`DeviceModelConfig` — the constants of the analytic timing model that
  converts the work performed by the execution engine (bytes scanned, random
  accesses, dictionary decodes, ...) into simulated time.  The paper measured
  wall-clock time on SAP HANA hardware; we substitute a deterministic device
  model so that experiments are reproducible and independent of the Python
  interpreter (see DESIGN.md, Section 2).

* :class:`AdvisorConfig` — tunable thresholds of the storage advisor
  (partitioning heuristics, enumeration limits, online re-evaluation period).

Both are plain dataclasses with sensible defaults; every experiment can
override individual fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


DEFAULT_SEED = 20120827  # first day of VLDB 2012, used as the default RNG seed


@dataclass(frozen=True)
class DeviceModelConfig:
    """Constants of the simulated device (all costs in nanoseconds).

    The defaults are loosely modelled on a 2.5 GHz in-memory system: sequential
    scans proceed at a few GB/s once predicate evaluation is included, random
    accesses cost on the order of a cache miss, and the column store pays
    per-value dictionary maintenance on writes.  Absolute values are not meant
    to match the paper's hardware; only the *relative* behaviour of the two
    stores matters for the reproduction (see DESIGN.md).
    """

    #: Sequential memory traffic, per byte (covers read + light processing).
    seq_read_ns_per_byte: float = 0.5
    #: A dependent random access (cache/TLB miss dominated).
    random_access_ns: float = 90.0
    #: Decoding one dictionary-compressed value (code -> value lookup).
    dict_decode_ns: float = 2.5
    #: Reconstructing one attribute of one tuple from a column-store column.
    tuple_reconstruct_ns: float = 60.0
    #: Evaluating a predicate against one value (row-at-a-time interpretation).
    predicate_eval_ns: float = 3.0
    #: Comparing one compressed code in a vectorised column-store scan.
    vector_compare_ns: float = 0.5
    #: Updating one aggregate accumulator with one value.
    aggregate_update_ns: float = 4.0
    #: Maintaining the grouping hash table for one row of a GROUP BY.
    group_by_update_ns: float = 10.0
    #: Hashing + inserting one key into a hash table (joins, group-by).
    hash_insert_ns: float = 45.0
    #: Probing a hash table with one key.
    hash_probe_ns: float = 30.0
    #: Appending one byte to the row store (includes page bookkeeping).
    row_append_ns_per_byte: float = 1.0
    #: Writing one value in place in the row store.
    row_update_value_ns: float = 25.0
    #: Inserting one value into a column-store column (dictionary lookup,
    #: possible dictionary growth, appending the code to the delta buffer).
    cs_insert_value_ns: float = 550.0
    #: Updating one cell of a column-store row.  Column stores implement
    #: updates as "invalidate + re-insert the full row version", so the engine
    #: charges this for *every* column of an updated row, not only the
    #: assigned ones.
    cs_update_value_ns: float = 800.0
    #: Converting one cell between memory layouts for a cross-store operation.
    layout_conversion_ns_per_cell: float = 70.0
    #: Fixed per-query overhead (admission, planning), in nanoseconds.
    query_overhead_ns: float = 15_000.0
    #: Fixed per-partition overhead added when a query spans partitions
    #: (union / join assembly bookkeeping).
    partition_overhead_ns: float = 5_000.0
    #: Per-shard scatter/gather overhead (task dispatch, result collection
    #: and merge bookkeeping) priced by the advisor's shard-key what-if.
    #: Execution is serial, so it is never billed to a query's
    #: :class:`~repro.engine.timing.CostBreakdown`.
    shard_dispatch_ns: float = 25_000.0

    def scaled(self, factor: float) -> "DeviceModelConfig":
        """Return a copy with every per-operation cost multiplied by *factor*.

        Used by the ablation benchmarks to check that the advisor's decisions
        are insensitive to a uniform re-scaling of the device constants.
        """
        return replace(
            self,
            **{
                name: getattr(self, name) * factor
                for name in self.__dataclass_fields__
            },
        )


@dataclass(frozen=True)
class AdvisorConfig:
    """Tunable thresholds and limits of the storage advisor."""

    #: Fraction of insert queries in the workload above which a dedicated
    #: row-store partition for newly arriving tuples is recommended
    #: (Section 3.2, "Get fraction of insert queries").
    insert_fraction_threshold: float = 0.05
    #: Fraction of update/point accesses a tuple region must receive to be
    #: classified as "frequently updated as a whole" (hot OLTP rows).
    hot_row_access_threshold: float = 0.5
    #: Fraction of an attribute's accesses that must be OLTP-style (updates,
    #: point selections) for it to be classified as an OLTP attribute for the
    #: vertical split (Section 3.2, "Get OLTP attributes").
    oltp_attribute_threshold: float = 0.6
    #: Minimum number of workload queries before the online monitor will
    #: recompute a recommendation.
    online_reevaluation_interval: int = 200
    #: Maximum number of tables in a join-connected group for which all store
    #: combinations are enumerated exhaustively; larger groups fall back to a
    #: greedy per-table improvement search.
    max_exhaustive_join_group: int = 8
    #: Relative cost improvement a layout change must achieve before the
    #: online monitor reports an adaptation (hysteresis against flapping).
    min_relative_improvement: float = 0.02


@dataclass(frozen=True)
class DurabilityConfig:
    """Durability knobs: write-ahead logging and the delta/main merge.

    Consumed by :func:`repro.api.connect` when a ``wal_path`` is given, and
    by the engine's column-store backends for merge scheduling.
    """

    #: When the WAL flushes to disk: ``"commit"`` after every statement,
    #: ``"batch"`` every :attr:`wal_batch_size` records, ``"off"`` only on
    #: checkpoint/close (fastest, loses the tail on a crash).
    wal_sync_mode: str = "commit"
    #: Records buffered between flushes in ``"batch"`` mode.
    wal_batch_size: int = 32
    #: Delta size (rows) at which a column-store insert triggers a merge.
    delta_merge_threshold: int = 65536


@dataclass(frozen=True)
class IntegrityConfig:
    """Knobs of the data-integrity layer (checksums, scrub, quarantine).

    Consumed by :func:`repro.api.connect` (``integrity=...``) and applied to
    the engine's process-wide defaults, so the last session that passes one
    sets the policy for every session.  Verification is billed zero
    simulated cost either way — only wall clock and the integrity counters
    are affected.
    """

    #: Master switch.  ``False`` disables checksum maintenance and scan-time
    #: verification entirely (quarantine state already recorded keeps
    #: raising — corrupt data is never served).
    enabled: bool = True
    #: Verify a column-store unit's checksum (at most once per zone epoch)
    #: when a scan first reads it.
    verify_on_scan: bool = True


@dataclass
class ReproConfig:
    """Top-level configuration bundle used by examples and benchmarks."""

    device: DeviceModelConfig = field(default_factory=DeviceModelConfig)
    advisor: AdvisorConfig = field(default_factory=AdvisorConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)
    seed: int = DEFAULT_SEED
