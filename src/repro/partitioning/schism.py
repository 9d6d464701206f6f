"""Schism-style graph-based horizontal partitioning (Curino et al., VLDB'10).

This is the horizontal partitioner behind the Row-H, Column-H and
Hierarchical baselines.  Faithful to the paper's description:

* every tuple is a node; two nodes are connected when the same query
  accesses both;
* a sample of tuples is partitioned by optimizing edge cut (we use a
  seeded, capacity-balanced greedy assignment over the dense co-access
  affinity matrix — the ``O(N^2 * Q)`` step whose cost Figure 12 measures);
* the remaining tuples are assigned to the partition whose access-pattern
  centroid they match best.

The sample size defaults far below the paper's 160 K because the whole
reproduction runs at reduced scale; the quadratic shape is what matters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.query import Workload
from ..errors import InvalidPartitioningError
from ..plan.predicates import Conjunction
from ..storage.table_data import ColumnTable

__all__ = ["SchismPartitioner", "SchismStats"]


@dataclass(slots=True)
class SchismStats:
    """Work done by one partitioning run (for Figure 12)."""

    n_sampled: int = 0
    n_partitions: int = 0
    affinity_flops: int = 0
    elapsed_s: float = 0.0


class SchismPartitioner:
    """Workload-driven horizontal partitioner producing tuple-ID groups."""

    def __init__(
        self,
        n_partitions: int,
        sample_size: int = 2000,
        balance_slack: float = 0.10,
        seed: int = 0,
    ):
        if n_partitions < 1:
            raise InvalidPartitioningError("need at least one partition")
        self.n_partitions = n_partitions
        self.sample_size = sample_size
        self.balance_slack = balance_slack
        self.seed = seed
        self.stats = SchismStats()

    # ------------------------------------------------------------ public

    def partition(self, table: ColumnTable, workload: Workload) -> List[np.ndarray]:
        """Return ``n_partitions`` disjoint tuple-ID arrays covering the table."""
        started = time.perf_counter()
        self.stats = SchismStats()
        n = table.n_tuples
        k = min(self.n_partitions, max(1, n))
        if k == 1 or len(workload) == 0:
            groups = [ids for ids in np.array_split(np.arange(n, dtype=np.int64), k)]
            self.stats.n_partitions = len(groups)
            self.stats.elapsed_s = time.perf_counter() - started
            return groups

        rng = np.random.default_rng(self.seed)
        m = min(self.sample_size, n)
        k = min(k, m)  # cannot grow more partitions than sampled tuples
        sample = np.sort(rng.choice(n, size=m, replace=False))

        # Q x m access matrix over the sample: the co-access graph's incidence.
        access = self._access_matrix(table, workload, sample)
        centroids = self._partition_sample(access, k)

        # Assign every tuple to the best-matching partition centroid,
        # spilling to the next best when a partition fills up.
        assignment = self._assign_all(table, workload, centroids, n)
        groups = [np.nonzero(assignment == p)[0].astype(np.int64) for p in range(k)]
        groups = [g for g in groups if len(g)]
        self.stats.n_partitions = len(groups)
        self.stats.elapsed_s = time.perf_counter() - started
        return groups

    # ----------------------------------------------------------- internals

    def _access_matrix(
        self, table: ColumnTable, workload: Workload, tids: np.ndarray
    ) -> np.ndarray:
        rows = []
        for query in workload:
            conjunction = Conjunction.from_query(query)
            columns = {
                p.attribute: table.column(p.attribute)[tids]
                for p in conjunction.predicates
            }
            mask, _count = conjunction.evaluate_available(columns, len(tids))
            rows.append(mask)
        return np.stack(rows).astype(np.float32)

    def _partition_sample(self, access: np.ndarray, k: int) -> np.ndarray:
        """Greedy balanced partitioning of the sampled co-access graph.

        Materializes the m x m affinity matrix (number of queries co-accessing
        each tuple pair) — the quadratic step — then grows ``k`` partitions
        from maximally dissimilar seeds, each step placing the unassigned
        tuple with the highest affinity to some non-full partition.
        Returns the k x Q access-pattern centroids of the final partitions.
        """
        n_queries, m = access.shape
        affinity = access.T @ access  # m x m, O(m^2 * Q)
        self.stats.n_sampled = m
        self.stats.affinity_flops = m * m * n_queries

        # Seeds: start from the most-accessed tuple, then repeatedly take the
        # tuple least similar to all chosen seeds.
        seeds = [int(np.argmax(affinity.diagonal()))]
        for _ in range(k - 1):
            similarity_to_seeds = affinity[:, seeds].sum(axis=1)
            similarity_to_seeds[seeds] = np.inf
            seeds.append(int(np.argmin(similarity_to_seeds)))

        capacity = int(np.ceil(m / k * (1.0 + self.balance_slack)))
        assignment = np.full(m, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.int64)
        # Running sum of affinities from each tuple to each partition.
        gain = np.zeros((m, k), dtype=np.float32)
        for p, seed in enumerate(seeds):
            assignment[seed] = p
            sizes[p] += 1
            gain[:, p] += affinity[:, seed]
        unassigned = assignment == -1
        while np.any(unassigned):
            open_parts = sizes < capacity
            if not np.any(open_parts):
                open_parts[:] = True
            candidate_gain = np.where(open_parts[None, :], gain, -np.inf)
            candidate_gain = np.where(unassigned[:, None], candidate_gain, -np.inf)
            flat = int(np.argmax(candidate_gain))
            tuple_index, p = divmod(flat, k)
            assignment[tuple_index] = p
            sizes[p] += 1
            gain[:, p] += affinity[:, tuple_index]
            unassigned[tuple_index] = False

        centroids = np.zeros((k, access.shape[0]), dtype=np.float32)
        for p in range(k):
            members = assignment == p
            if np.any(members):
                centroids[p] = access[:, members].mean(axis=1)
        return centroids

    def _assign_all(
        self,
        table: ColumnTable,
        workload: Workload,
        centroids: np.ndarray,
        n: int,
        batch: int = 262_144,
    ) -> np.ndarray:
        """Map every tuple to the closest centroid, respecting capacities."""
        k = centroids.shape[0]
        capacity = int(np.ceil(n / k * (1.0 + self.balance_slack)))
        sizes = np.zeros(k, dtype=np.int64)
        assignment = np.empty(n, dtype=np.int64)
        conjunctions = [Conjunction.from_query(q) for q in workload]
        for start in range(0, n, batch):
            stop = min(start + batch, n)
            access = np.stack(
                [
                    conj.evaluate_available(
                        {
                            p.attribute: table.column(p.attribute)[start:stop]
                            for p in conj.predicates
                        },
                        stop - start,
                    )[0]
                    for conj in conjunctions
                ]
            ).astype(np.float32)
            scores = access.T @ centroids.T  # batch x k
            preference = np.argsort(-scores, axis=1)
            best_score = scores[np.arange(stop - start), preference[:, 0]]
            # Confident tuples first (strongest access-pattern match), so a
            # flood of pattern-free tuples cannot exhaust a partition's
            # capacity before the tuples that actually belong there arrive.
            for row in np.argsort(-best_score, kind="stable"):
                tid = start + int(row)
                if best_score[row] > 0.0:
                    for p in preference[row]:
                        if sizes[p] < capacity:
                            assignment[tid] = p
                            sizes[p] += 1
                            break
                    else:
                        p = int(np.argmin(sizes))
                        assignment[tid] = p
                        sizes[p] += 1
                else:
                    p = int(np.argmin(sizes))
                    assignment[tid] = p
                    sizes[p] += 1
        return assignment
