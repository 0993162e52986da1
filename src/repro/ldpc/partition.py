"""Partitioning of the LDPC Tanner graph onto NoC processing elements.

The NoC LDPC decoder assigns a subset of variable and check nodes to every
processing element (PE).  During each decoding iteration a PE updates its
own nodes (computation) and exchanges messages with the PEs that own
neighbouring Tanner nodes (communication).  The partition therefore fully
determines both the per-PE computation load — which drives power and hence
temperature — and the inter-PE traffic matrix the NoC must carry.

The paper evaluates five chip configurations (A–E) that "differ in the
irregularity of the communication patterns and the amount of computation
mapped to a single PE"; the partition strategies below are how we recreate
that irregularity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .tanner import TannerGraph, TannerNode


@dataclass
class Partition:
    """An assignment of every Tanner node to one of ``num_tasks`` logical tasks.

    A *task* is the unit of migration: the paper's reconfiguration moves the
    whole workload of a PE (its configuration and state) to another PE, so
    tasks and PEs are in one-to-one correspondence through a
    :class:`~repro.placement.mapping.Mapping`.
    """

    graph: TannerGraph
    num_tasks: int
    task_of_node: Dict[TannerNode, int]

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError("a partition needs at least one task")
        missing = [n for n in self.graph.all_nodes() if n not in self.task_of_node]
        if missing:
            raise ValueError(f"{len(missing)} Tanner nodes not assigned to any task")
        bad = {t for t in self.task_of_node.values() if not 0 <= t < self.num_tasks}
        if bad:
            raise ValueError(f"task ids out of range: {sorted(bad)}")

    # ------------------------------------------------------------------
    def task_sizes(self) -> List[int]:
        """Number of Tanner nodes per task."""
        sizes = [0] * self.num_tasks
        for task in self.task_of_node.values():
            sizes[task] += 1
        return sizes

    # ------------------------------------------------------------------
    def computation_weights(self) -> np.ndarray:
        """Per-task computation load for one decoding iteration.

        A node update costs work proportional to its degree (one message in
        and one message out per incident edge), so the load of a task is the
        sum of the degrees of its nodes.
        """
        weights = np.zeros(self.num_tasks, dtype=np.float64)
        for node, task in self.task_of_node.items():
            weights[task] += self.graph.degree(node)
        return weights

    def traffic_matrix(self) -> np.ndarray:
        """Messages per decoding iteration between every ordered task pair.

        Every Tanner edge whose endpoints live on different tasks produces
        two messages per iteration (variable-to-check and check-to-variable),
        one in each direction.  Edges internal to a task cost no NoC traffic.
        """
        matrix = np.zeros((self.num_tasks, self.num_tasks), dtype=np.int64)
        for v_node, c_node in self.graph.edges():
            tv = self.task_of_node[v_node]
            tc = self.task_of_node[c_node]
            if tv == tc:
                continue
            matrix[tv, tc] += 1  # variable-to-check message
            matrix[tc, tv] += 1  # check-to-variable message
        return matrix

    def cut_edges(self) -> int:
        """Number of Tanner edges crossing task boundaries."""
        return int(self.traffic_matrix().sum() // 2)

    def load_imbalance(self) -> float:
        """Max-to-mean ratio of per-task computation weight (1.0 = perfectly balanced)."""
        weights = self.computation_weights()
        mean = weights.mean()
        if mean == 0:
            return 1.0
        return float(weights.max() / mean)


# ----------------------------------------------------------------------
# Partition strategies
# ----------------------------------------------------------------------
def striped_partition(graph: TannerGraph, num_tasks: int) -> Partition:
    """Contiguous blocks of variable nodes and check nodes per task.

    This mirrors the natural hardware mapping where consecutive bit/check
    processors share a PE; it keeps many Tanner edges local for structured
    codes and produces moderate, structured inter-PE traffic.
    """
    assignment: Dict[TannerNode, int] = {}
    _assign_in_blocks(graph.variable_nodes, num_tasks, assignment)
    _assign_in_blocks(graph.check_nodes, num_tasks, assignment)
    return Partition(graph=graph, num_tasks=num_tasks, task_of_node=assignment)


def interleaved_partition(graph: TannerGraph, num_tasks: int) -> Partition:
    """Round-robin assignment of nodes to tasks.

    Scatters neighbouring Tanner nodes across PEs, maximising communication —
    the "irregular, communication heavy" end of the configuration spectrum.
    """
    assignment: Dict[TannerNode, int] = {}
    for idx, node in enumerate(graph.variable_nodes):
        assignment[node] = idx % num_tasks
    for idx, node in enumerate(graph.check_nodes):
        assignment[node] = (idx + num_tasks // 2) % num_tasks
    return Partition(graph=graph, num_tasks=num_tasks, task_of_node=assignment)


def clustered_partition(
    graph: TannerGraph,
    num_tasks: int,
    seed: Optional[int] = None,
) -> Partition:
    """Greedy BFS clustering that keeps connected Tanner regions together.

    Grows ``num_tasks`` clusters breadth-first from spread-out seed nodes so
    each PE receives a locally connected chunk of the graph; communication
    concentrates between adjacent clusters, which produces the uneven
    (hot-row style) traffic the paper observes.
    """
    rng = random.Random(seed)
    all_nodes = graph.all_nodes()
    target_size = len(all_nodes) / num_tasks

    seeds = rng.sample(all_nodes, num_tasks)
    assignment: Dict[TannerNode, int] = {}
    frontiers: List[List[TannerNode]] = [[seed_node] for seed_node in seeds]
    sizes = [0] * num_tasks

    for task, seed_node in enumerate(seeds):
        if seed_node not in assignment:
            assignment[seed_node] = task
            sizes[task] += 1

    progress = True
    while progress:
        progress = False
        for task in range(num_tasks):
            if sizes[task] >= target_size * 1.5:
                continue
            frontier = frontiers[task]
            next_frontier: List[TannerNode] = []
            grabbed = False
            for node in frontier:
                for neighbor in graph.neighbors(node):
                    if neighbor in assignment:
                        continue
                    assignment[neighbor] = task
                    sizes[task] += 1
                    next_frontier.append(neighbor)
                    grabbed = True
                    break
                if grabbed:
                    break
            frontiers[task] = next_frontier + frontier
            progress = progress or grabbed

    # Any disconnected leftovers go to the least-loaded task.
    for node in all_nodes:
        if node not in assignment:
            task = int(np.argmin(sizes))
            assignment[node] = task
            sizes[task] += 1
    return Partition(graph=graph, num_tasks=num_tasks, task_of_node=assignment)


def _assign_in_blocks(
    nodes: Sequence[TannerNode],
    num_tasks: int,
    assignment: Dict[TannerNode, int],
) -> None:
    """Assign ``nodes`` to tasks in contiguous, nearly equal blocks."""
    count = len(nodes)
    base = count // num_tasks
    remainder = count % num_tasks
    index = 0
    for task in range(num_tasks):
        size = base + (1 if task < remainder else 0)
        for node in nodes[index : index + size]:
            assignment[node] = task
        index += size


def make_partition(
    strategy: str,
    graph: TannerGraph,
    num_tasks: int,
    seed: Optional[int] = None,
    **kwargs,
) -> Partition:
    """Factory for partitions by strategy name."""
    if strategy == "striped":
        return striped_partition(graph, num_tasks)
    if strategy == "interleaved":
        return interleaved_partition(graph, num_tasks)
    if strategy == "clustered":
        return clustered_partition(graph, num_tasks, seed=seed)
    raise ValueError(
        f"unknown partition strategy {strategy!r}; choose from "
        "['striped', 'interleaved', 'clustered']"
    )
