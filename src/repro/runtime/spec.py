"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a *grid* of reduction experiments —
hypergraph family × instance size × palette size × oracle × λ ×
replicate — plus one campaign seed.  The spec round-trips through JSON
(the artifact store keeps a copy next to the results) and expands into a
deterministic, ordered list of tasks.

Determinism is the core contract: every task is identified by a stable
``task_key`` string derived only from its grid coordinates, and the RNG
seed used to generate its instance is a pure function of
``(campaign seed, instance key)`` (:func:`task_instance_seed` over
:attr:`TaskSpec.instance_key` — the grid coordinates that actually shape
the instance, i.e. excluding oracle and λ, so every oracle of a campaign
is evaluated on identical instances).  Results are therefore
byte-identical regardless of how many workers execute the campaign or in
which order tasks complete — the property the scheduler's serial executor
differentially checks.

Sharding follows the same discipline: :func:`task_shard_index` assigns
each task key to one of ``n`` shards via sha256 (never Python's
randomized ``hash()``), so a multi-machine campaign can run
``CampaignSpec.shard(i, n)`` per machine and the merged shard stores are
provably the same row set as a monolithic run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import CampaignError
from repro.runtime.tasks import FAMILIES, instance_key, validate_oracle_name

#: Spec fields required in the JSON exchange format.
_REQUIRED_FIELDS = ("name", "seed", "families", "sizes", "ks", "oracles", "lams")

#: Optional spec fields (serialized only when they differ from their
#: defaults, so the content digests of pre-existing specs never change).
_OPTIONAL_FIELDS = ("replicates", "epsilon", "task_timeout_s", "durability")

#: Store durability levels: ``"flush"`` loses at most one row on a
#: process kill; ``"fsync"`` also survives a machine crash (power loss)
#: at the cost of one fsync per row.
DURABILITY_LEVELS = ("flush", "fsync")

def task_instance_seed(campaign_seed: int, key: str) -> int:
    """Derive the instance-generator seed for one instance key, stably.

    The seed is the first eight bytes of ``sha256("<campaign_seed>|<key>")``
    — a pure function of the campaign seed and the task's instance-shaping
    grid coordinates (:attr:`TaskSpec.instance_key`), so a task generates
    the same instance no matter which worker runs it, when, or after how
    many resumes — and tasks differing only in oracle or λ generate the
    *same* instance, which is what makes campaign-level instance caching
    (and apples-to-apples oracle comparisons) possible.
    """
    digest = hashlib.sha256(f"{campaign_seed}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_shard(index: int, n_shards: int) -> None:
    """Raise :class:`CampaignError` unless ``index``/``n_shards`` is a valid shard slot."""
    if not isinstance(n_shards, int) or isinstance(n_shards, bool) or n_shards < 1:
        raise CampaignError(f"shard count must be a positive int, got {n_shards!r}")
    if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < n_shards:
        raise CampaignError(
            f"shard index must lie in [0, {n_shards}), got {index!r}"
        )


def task_shard_index(task_key: str, n_shards: int) -> int:
    """Assign ``task_key`` to one of ``n_shards`` shards, stably.

    The assignment hashes the key with sha256 — *not* Python's per-process
    randomized ``hash()`` — so every machine of a multi-machine campaign
    computes the same partition, and the shard stores merge back into
    exactly the monolithic row set.
    """
    check_shard(0, n_shards)
    digest = hashlib.sha256(task_key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass(frozen=True)
class TaskSpec:
    """One grid point of a campaign: everything needed to run one reduction."""

    family: str
    n: int
    m: int
    k: int
    oracle: str
    lam: float
    replicate: int

    @property
    def task_key(self) -> str:
        """Stable identifier of this grid point (resume and shard-assignment key)."""
        return (
            f"family={self.family} n={self.n} m={self.m} k={self.k} "
            f"oracle={self.oracle} lam={self.lam:g} rep={self.replicate}"
        )

    def instance_key(self, epsilon: float) -> str:
        """Stable identifier of this task's *instance* (RNG derivation key).

        Excludes the oracle and λ (and generator-ignored coordinates), so
        grid points differing only in those axes share one instance —
        see :func:`repro.runtime.tasks.instance_key`.
        """
        return instance_key(
            family=self.family,
            n=self.n,
            m=self.m,
            k=self.k,
            epsilon=epsilon,
            replicate=self.replicate,
        )

    def payload(self, campaign_seed: int, epsilon: float) -> Dict[str, Any]:
        """Return the plain-dict form handed to the (possibly remote) executor."""
        return {
            "task_key": self.task_key,
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "oracle": self.oracle,
            "lam": self.lam,
            "replicate": self.replicate,
            "epsilon": epsilon,
            "instance_seed": task_instance_seed(
                campaign_seed, self.instance_key(epsilon)
            ),
        }


def _check_axis(name: str, values, element_check) -> Tuple:
    """Validate one grid axis: non-empty, duplicate-free, element-wise valid."""
    values = tuple(values)
    if not values:
        raise CampaignError(f"campaign axis {name!r} must not be empty")
    seen = set()
    for value in values:
        element_check(value)
        marker = repr(value)
        if marker in seen:
            raise CampaignError(f"campaign axis {name!r} repeats the entry {value!r}")
        seen.add(marker)
    return values


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid of reduction tasks plus the campaign seed.

    Attributes
    ----------
    name:
        Campaign identifier (recorded in aggregates and the stored spec).
    seed:
        Campaign seed; per-task instance seeds are derived from it and the
        task's *instance key* via :func:`task_instance_seed` (so tasks
        differing only in oracle/λ share an instance).
    families:
        Hypergraph families to sweep (see :data:`repro.runtime.tasks.FAMILIES`).
    sizes:
        ``(n, m)`` pairs — vertices and hyperedges per instance.
    ks:
        Palette sizes.
    oracles:
        MaxIS oracle names: any registry name
        (:func:`repro.maxis.available_approximators`), or ``capped:<name>``
        for the λ-capped variant of a registry oracle (the worst-case
        multi-phase regime; the cap uses the task's λ).
    lams:
        Approximation factors λ assumed by the analysis.
    replicates:
        Number of i.i.d. instances per grid point (distinct task keys,
        hence distinct derived instance seeds).
    epsilon:
        Almost-uniformity slack forwarded to the generators that take one.
    task_timeout_s:
        Optional per-task watchdog deadline in seconds: a task exceeding
        it becomes a terminal ``status="timeout"`` row instead of hanging
        its worker (see :func:`repro.runtime.tasks.execute_task`).
        ``None`` (the default) disables the watchdog.
    durability:
        Store write discipline — ``"flush"`` (default: a kill loses at
        most one row) or ``"fsync"`` (a machine crash loses at most one
        row, at one fsync per row).
    """

    name: str
    seed: int
    families: Tuple[str, ...]
    sizes: Tuple[Tuple[int, int], ...]
    ks: Tuple[int, ...]
    oracles: Tuple[str, ...]
    lams: Tuple[float, ...]
    replicates: int = 1
    epsilon: float = 0.5
    task_timeout_s: Optional[float] = None
    durability: str = "flush"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise CampaignError(f"campaign name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise CampaignError(f"campaign seed must be an int, got {self.seed!r}")

        def check_family(family) -> None:
            if family not in FAMILIES:
                raise CampaignError(
                    f"unknown hypergraph family {family!r}; known: {sorted(FAMILIES)}"
                )

        def check_size(size) -> None:
            if (
                not isinstance(size, tuple)
                or len(size) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in size)
            ):
                raise CampaignError(f"sizes entries must be (n, m) int pairs, got {size!r}")
            n, m = size
            if n <= 0 or m < 0:
                raise CampaignError(f"size (n={n}, m={m}) must have n > 0 and m >= 0")

        def check_k(k) -> None:
            if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
                raise CampaignError(f"palette size k must be a positive int, got {k!r}")

        def check_lam(lam) -> None:
            if not isinstance(lam, (int, float)) or isinstance(lam, bool) or lam < 1:
                raise CampaignError(f"approximation factor lam must be >= 1, got {lam!r}")

        try:
            sizes = tuple(tuple(s) for s in self.sizes)
        except TypeError as exc:
            raise CampaignError(f"sizes entries must be (n, m) pairs: {exc}") from exc
        object.__setattr__(self, "families", _check_axis("families", self.families, check_family))
        object.__setattr__(self, "sizes", _check_axis("sizes", sizes, check_size))
        object.__setattr__(self, "ks", _check_axis("ks", self.ks, check_k))
        object.__setattr__(
            self, "oracles", _check_axis("oracles", self.oracles, validate_oracle_name)
        )
        # Normalize to float *before* the duplicate check: 2 and 2.0 format
        # to the same task key, so they must count as the same axis entry.
        normalized = tuple(
            float(lam)
            if isinstance(lam, (int, float)) and not isinstance(lam, bool)
            else lam
            for lam in self.lams
        )
        object.__setattr__(self, "lams", _check_axis("lams", normalized, check_lam))
        if not isinstance(self.replicates, int) or isinstance(self.replicates, bool) or self.replicates < 1:
            raise CampaignError(f"replicates must be a positive int, got {self.replicates!r}")
        if not 0 < self.epsilon <= 1:
            raise CampaignError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if self.task_timeout_s is not None:
            if (
                not isinstance(self.task_timeout_s, (int, float))
                or isinstance(self.task_timeout_s, bool)
                or self.task_timeout_s <= 0
            ):
                raise CampaignError(
                    f"task_timeout_s must be a positive number or None, "
                    f"got {self.task_timeout_s!r}"
                )
        if self.durability not in DURABILITY_LEVELS:
            raise CampaignError(
                f"durability must be one of {DURABILITY_LEVELS}, got {self.durability!r}"
            )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def num_tasks(self) -> int:
        """Size of the grid: the product of all axis lengths and ``replicates``."""
        return (
            len(self.families)
            * len(self.sizes)
            * len(self.ks)
            * len(self.oracles)
            * len(self.lams)
            * self.replicates
        )

    def expand(self) -> List[TaskSpec]:
        """Expand the grid into its deterministic, ordered task list.

        The order is the nested-loop order of the axes as declared
        (families, sizes, ks, oracles, lams, replicate) — stable across
        processes and Python versions, so task keys never shift.
        """
        tasks: List[TaskSpec] = []
        for family in self.families:
            for n, m in self.sizes:
                for k in self.ks:
                    for oracle in self.oracles:
                        for lam in self.lams:
                            for replicate in range(self.replicates):
                                tasks.append(
                                    TaskSpec(
                                        family=family,
                                        n=n,
                                        m=m,
                                        k=k,
                                        oracle=oracle,
                                        lam=lam,
                                        replicate=replicate,
                                    )
                                )
        return tasks

    def task_payloads(self) -> List[Dict[str, Any]]:
        """Expand into executor payload dicts (with derived instance seeds)."""
        return [task.payload(self.seed, self.epsilon) for task in self.expand()]

    def shard(self, index: int, n_shards: int) -> List[TaskSpec]:
        """The tasks of shard ``index`` of ``n_shards``, in expansion order.

        The partition is by :func:`task_shard_index` over the task key:
        deterministic, process-independent (sha256, no ``hash()``
        randomization), pairwise disjoint, and covering — the union over
        all ``n_shards`` shards is exactly :meth:`expand`.  ``n_shards=1``
        returns the full task list.
        """
        check_shard(index, n_shards)
        return [
            task
            for task in self.expand()
            if task_shard_index(task.task_key, n_shards) == index
        ]

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize to the JSON exchange format.

        The fault-tolerance fields (``task_timeout_s``, ``durability``)
        are emitted only when set to non-default values, so specs written
        before they existed keep their content digest — and therefore
        their store binding — unchanged.
        """
        data = {
            "name": self.name,
            "seed": self.seed,
            "families": list(self.families),
            "sizes": [list(size) for size in self.sizes],
            "ks": list(self.ks),
            "oracles": list(self.oracles),
            "lams": list(self.lams),
            "replicates": self.replicates,
            "epsilon": self.epsilon,
        }
        if self.task_timeout_s is not None:
            data["task_timeout_s"] = self.task_timeout_s
        if self.durability != "flush":
            data["durability"] = self.durability
        return data

    def to_json(self) -> str:
        """Serialize to a JSON string (canonical: sorted keys)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        """Content digest of the spec — the store's campaign-identity check."""
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; raises :class:`CampaignError` on malformed input."""
        if not isinstance(data, dict):
            raise CampaignError(f"campaign spec must be a JSON object, got {type(data).__name__}")
        missing = [key for key in _REQUIRED_FIELDS if key not in data]
        if missing:
            raise CampaignError(f"campaign spec is missing the fields {missing!r}")
        unknown = set(data) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
        if unknown:
            raise CampaignError(f"campaign spec has unknown fields {sorted(unknown)!r}")
        for axis in ("families", "sizes", "ks", "oracles", "lams"):
            if not isinstance(data[axis], (list, tuple)):
                raise CampaignError(f"campaign axis {axis!r} must be a list")
        sizes = []
        for size in data["sizes"]:
            if not isinstance(size, (list, tuple)) or len(size) != 2:
                raise CampaignError(f"sizes entries must be [n, m] pairs, got {size!r}")
            sizes.append(tuple(size))
        return cls(
            name=data["name"],
            seed=data["seed"],
            families=tuple(data["families"]),
            sizes=tuple(sizes),
            ks=tuple(data["ks"]),
            oracles=tuple(data["oracles"]),
            lams=tuple(data["lams"]),
            replicates=data.get("replicates", 1),
            epsilon=data.get("epsilon", 0.5),
            task_timeout_s=data.get("task_timeout_s"),
            durability=data.get("durability", "flush"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CampaignError(f"campaign spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
