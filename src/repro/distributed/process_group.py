"""Lockstep simulated process group.

:class:`SimProcessGroup` plays the role of the NCCL process group in the
production system. All ranks live in one Python process and collectives are
*lockstep*: the caller holds one payload per rank in a list indexed by rank,
and each collective returns the post-communication list. This is equivalent
to an SPMD program synchronised at every collective — which is exactly the
structure of the paper's ring algorithms (one SendRecv per ring step).

Payloads are arbitrary nests of ``list`` / ``tuple`` / ``dict`` containing
NumPy arrays. Byte accounting uses a configurable *logical* element size
(default 2 bytes, bf16) rather than the arrays' in-memory float64, so traced
traffic matches what the paper's wire format would carry.

Delivery is zero-copy. A real network cannot alias a sender's and a
receiver's buffers; instead of copying every payload to model that, the
collectives freeze each payload array (``writeable=False``) and hand the
same buffer to the receiver inside freshly built containers. A write
through a sent or received buffer then raises ``ValueError`` — a stronger
check than a silent copy, which would hide the write.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.distributed.topology import ClusterTopology, single_node_topology
from repro.distributed.tracer import CommTracer


def payload_elements(payload: Any) -> int:
    """Total number of array elements in a nested payload."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (list, tuple)):
        return sum(payload_elements(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_elements(v) for v in payload.values())
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 1
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return sum(
            payload_elements(getattr(payload, f.name)) for f in dataclasses.fields(payload)
        )
    raise TypeError(f"unsupported payload type {type(payload)!r}")


def freeze_payload(payload: Any) -> Any:
    """The payload as delivered: every array frozen read-only (in place,
    so the sender's reference is frozen too) inside fresh containers.

    Scalars and other immutable leaves pass through unchanged.
    """
    if isinstance(payload, np.ndarray):
        payload.flags.writeable = False
        return payload
    if isinstance(payload, list):
        return [freeze_payload(p) for p in payload]
    if isinstance(payload, tuple):
        return tuple(freeze_payload(p) for p in payload)
    if isinstance(payload, dict):
        return {key: freeze_payload(value) for key, value in payload.items()}
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        delivered = copy.copy(payload)
        for f in dataclasses.fields(payload):
            object.__setattr__(delivered, f.name, freeze_payload(getattr(payload, f.name)))
        return delivered
    return payload


class SimProcessGroup:
    """Simulated collective-communication group over ``world_size`` CP ranks.

    Args:
        world_size: number of CP ranks.
        topology: cluster wiring; defaults to a single-node ring, which keeps
            unit tests hardware-agnostic.
        tracer: optional event sink; a fresh private tracer is created when
            omitted.
        wire_bytes_per_element: logical bytes per tensor element on the wire
            (paper notation ``e``; 2 for bf16, 1 for fp8).
    """

    def __init__(
        self,
        world_size: int,
        *,
        topology: ClusterTopology | None = None,
        tracer: CommTracer | None = None,
        wire_bytes_per_element: int = 2,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if topology is not None and topology.world_size != world_size:
            raise ValueError(
                f"topology has {topology.world_size} nodes but world_size={world_size}"
            )
        if wire_bytes_per_element <= 0:
            raise ValueError("wire_bytes_per_element must be positive")
        self.world_size = world_size
        self.topology = topology if topology is not None else single_node_topology().with_nodes(1)
        if topology is None and world_size > 1:
            # Default multi-rank wiring: treat each rank as its own node on
            # a generic high-bandwidth fabric.
            self.topology = ClusterTopology(
                name=f"sim-{world_size}n",
                num_nodes=world_size,
                gpus_per_node=8,
                internode_bandwidth=0.75 * 50e9,
                intranode_bandwidth=450e9,
            )
        self.tracer = tracer if tracer is not None else CommTracer()
        self.wire_bytes_per_element = wire_bytes_per_element

    # ------------------------------------------------------------------ #
    # byte/time model
    # ------------------------------------------------------------------ #

    def payload_nbytes(self, payload: Any) -> int:
        """Logical wire bytes of one payload."""
        return payload_elements(payload) * self.wire_bytes_per_element

    def _xfer_time(self, nbytes: int) -> float:
        """Alpha-beta time for one point-to-point CP-rank message."""
        topo = self.topology
        return topo.cp_link_latency + nbytes / topo.cp_link_bandwidth

    # ------------------------------------------------------------------ #
    # collectives (lockstep: list index == rank)
    # ------------------------------------------------------------------ #

    def _check_world(self, payloads: Sequence[Any]) -> None:
        if len(payloads) != self.world_size:
            raise ValueError(
                f"expected one payload per rank ({self.world_size}), got {len(payloads)}"
            )

    def ring_shift(self, payloads: Sequence[Any], *, step: int = -1, tag: str = "") -> list[Any]:
        """One ring SendRecv: rank ``k`` receives rank ``(k-1) % N``'s payload.

        Every rank sends and receives simultaneously (full-duplex links), so
        the simulated duration of the step is the max single-message time.
        Returns the received payloads, frozen read-only (see module doc).
        """
        self._check_world(payloads)
        if self.world_size == 1:
            return [freeze_payload(payloads[0])]
        max_nbytes = max(self.payload_nbytes(p) for p in payloads)
        self.tracer.record(
            "sendrecv",
            step=step,
            nbytes=max_nbytes,
            duration=self._xfer_time(max_nbytes),
            tag=tag,
        )
        return [freeze_payload(payloads[(k - 1) % self.world_size]) for k in range(self.world_size)]

    def all_to_all(self, matrix: Sequence[Sequence[Any]], *, tag: str = "") -> list[list[Any]]:
        """All-to-all personalised exchange.

        ``matrix[src][dst]`` is the payload rank ``src`` sends to rank
        ``dst``; the return value ``out[dst][src]`` is that payload as
        received. Duration is modelled as the busiest rank's total egress
        over its single NIC, matching the paper's Appendix C formula
        ``(N-1) * (D+1) * T * e / BW``.
        """
        self._check_world(matrix)
        for row in matrix:
            if len(row) != self.world_size:
                raise ValueError("all_to_all matrix must be square in world_size")
        if self.world_size > 1:
            egress = [
                sum(self.payload_nbytes(matrix[src][dst]) for dst in range(self.world_size) if dst != src)
                for src in range(self.world_size)
            ]
            nbytes = max(egress)
            self.tracer.record(
                "all2all",
                nbytes=nbytes,
                duration=self.topology.cp_link_latency * (self.world_size - 1)
                + nbytes / self.topology.cp_link_bandwidth,
                tag=tag,
            )
        return [
            [freeze_payload(matrix[src][dst]) for src in range(self.world_size)]
            for dst in range(self.world_size)
        ]

    def all_gather(self, payloads: Sequence[Any], *, tag: str = "") -> list[list[Any]]:
        """Every rank receives every rank's payload (ring all-gather cost).

        Returns ``out[k][s]`` = rank ``s``'s payload as seen by rank ``k``.
        Cost model: ``(N-1)`` ring steps each moving the largest shard.
        """
        self._check_world(payloads)
        if self.world_size > 1:
            shard = max(self.payload_nbytes(p) for p in payloads)
            nbytes = shard * (self.world_size - 1)
            self.tracer.record(
                "allgather",
                nbytes=nbytes,
                duration=(self.world_size - 1) * self._xfer_time(shard),
                tag=tag,
            )
        return [[freeze_payload(p) for p in payloads] for _ in range(self.world_size)]

    def all_reduce_sum(self, arrays: Sequence[np.ndarray], *, tag: str = "") -> list[np.ndarray]:
        """Sum-reduce an array across ranks (ring AllReduce cost: 2(N-1)/N)."""
        self._check_world(arrays)
        first = np.asarray(arrays[0])
        for a in arrays[1:]:
            if np.asarray(a).shape != first.shape:
                raise ValueError("all_reduce payloads must share a shape")
        total = np.sum([np.asarray(a, dtype=np.float64) for a in arrays], axis=0)
        if self.world_size > 1:
            full = self.payload_nbytes(first)
            nbytes = 2 * (self.world_size - 1) * full // self.world_size
            self.tracer.record(
                "allreduce",
                nbytes=nbytes,
                duration=2 * (self.world_size - 1) * self._xfer_time(full // self.world_size),
                tag=tag,
            )
        return [total.copy() for _ in range(self.world_size)]

    def record_compute(self, *, step: int = -1, duration: float, tag: str = "") -> None:
        """Trace a per-rank compute interval (e.g. one ring-step attention)."""
        self.tracer.record("attn", step=step, duration=duration, tag=tag)
