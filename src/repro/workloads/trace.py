"""Block-level episode traces realized from an application model.

A *workload* is the dynamic execution of an application expressed at
basic-block granularity:

* static structure — regions (loops) of a few basic blocks each, laid out
  in a synthetic address space;
* dynamics — a time-ordered list of *episodes*; each episode executes one
  region for some number of iterations (every block in the region runs
  once per iteration).

Episodes capture the two properties the startup study depends on:
**discovery** (a region's first episode position determines when its code
is first touched, and hence when the VM must translate it) and
**recurrence** (later episodes accumulate execution counts toward the hot
threshold).  Region first-use positions are front-loaded with a long tail
(Beta(0.5, 2)), matching the code-discovery behaviour that makes early VM
time translation-bound (the paper's "one fourth of the instructions at
one million cycles" observation).

Everything is generated from a seeded NumPy generator, so workloads are
exactly reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List

from repro.workloads.winstone import AppProfile

#: Synthetic text base for workload block addresses.
TEXT_BASE = 0x0040_0000


@dataclass
class Block:
    """One static basic block."""

    addr: int
    size: int          # architected instructions
    nbytes: int        # encoded architected bytes


@dataclass
class Region:
    """A loop-like group of blocks that execute together."""

    index: int
    blocks: List[Block]
    total_iterations: int

    @property
    def instr_count(self) -> int:
        return sum(block.size for block in self.blocks)

    @property
    def byte_count(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    @property
    def addr(self) -> int:
        return self.blocks[0].addr


@dataclass(frozen=True)
class Episode:
    """One burst of executions of a region."""

    position: float      # ordering key in [0, 1]
    region_index: int
    iterations: int


@dataclass
class Workload:
    """A complete generated workload."""

    app: AppProfile
    dyn_instrs: int
    seed: int
    regions: List[Region] = field(default_factory=list)
    episodes: List[Episode] = field(default_factory=list)

    @property
    def static_instrs(self) -> int:
        return sum(region.instr_count for region in self.regions)

    @property
    def total_dynamic_instrs(self) -> int:
        return sum(region.instr_count * region.total_iterations
                   for region in self.regions)


#: Reference dynamic length the frequency mixture is calibrated at.
REFERENCE_DYN_INSTRS = 100_000_000


def generate_workload(app: AppProfile, dyn_instrs: int = 100_000_000,
                      seed: int = 0,
                      mean_blocks_per_region: float = 6.0) -> Workload:
    """Generate a deterministic workload for ``app``.

    ``dyn_instrs`` is hit exactly (iteration counts are rescaled after
    sampling, preserving the mixture's shape).
    """
    import numpy as np  # here, so a process that only boots VMs never loads it

    # zlib.crc32 is stable across processes (unlike hash(), which is
    # salted); workload generation must be exactly reproducible
    rng = np.random.default_rng(
        (seed * 1_000_003 + zlib.crc32(app.name.encode())) & 0xFFFFFFFF)
    workload = Workload(app=app, dyn_instrs=dyn_instrs, seed=seed)

    n_blocks = max(int(app.static_instrs / app.avg_block_size), 4)
    n_regions = max(int(n_blocks / mean_blocks_per_region), 2)

    # --- static structure ---------------------------------------------------
    blocks_per_region = rng.integers(2, 11, size=n_regions)
    addr = TEXT_BASE
    for region_index in range(n_regions):
        blocks = []
        for _ in range(int(blocks_per_region[region_index])):
            size = int(np.clip(rng.geometric(1.0 / app.avg_block_size),
                               1, 20))
            nbytes = max(int(round(size * app.bytes_per_instr)), size)
            blocks.append(Block(addr=addr, size=size, nbytes=nbytes))
            addr += nbytes
        addr += int(rng.integers(0, 32))  # layout gap between regions
        workload.regions.append(Region(index=region_index, blocks=blocks,
                                       total_iterations=0))

    # --- execution-frequency mixture --------------------------------------------
    is_cold = rng.random(n_regions) < app.cold_fraction
    counts = np.where(
        is_cold,
        rng.lognormal(np.log(app.cold_median), app.cold_sigma, n_regions),
        rng.lognormal(np.log(app.warm_median), app.warm_sigma, n_regions))
    counts *= dyn_instrs / REFERENCE_DYN_INSTRS

    instrs_per_region = np.array([region.instr_count
                                  for region in workload.regions])
    raw_total = float(np.dot(counts, instrs_per_region))
    counts *= dyn_instrs / raw_total
    counts = np.maximum(counts.round().astype(np.int64), 1)
    for region, total in zip(workload.regions, counts):
        region.total_iterations = int(total)

    # --- episode schedule ------------------------------------------------------
    # Discovery is front-loaded with a long tail (Beta(0.5, 2)); once a
    # region is discovered, its activity is *bursty* — concentrated in a
    # program phase — so hot loops accumulate their execution counts
    # quickly after first touch (this burstiness is what lets hardware-
    # assisted VMs break even within tens of millions of cycles).
    start_fracs = rng.beta(app.discovery_alpha, app.discovery_beta,
                           size=n_regions)
    if app.hot_early_pull > 0:
        # dominant loops tend to start early: pull hot regions' first
        # use toward the beginning in proportion to their (log) heat
        log_counts = np.log(counts.astype(float) + 1.0)
        pull = log_counts / max(float(log_counts.max()), 1.0)
        start_fracs = start_fracs * (1.0 - app.hot_early_pull * pull)
    episodes: List[Episode] = []
    for region, start in zip(workload.regions, start_fracs):
        total = region.total_iterations
        n_episodes = int(np.clip(np.log2(total + 1), 1, 12))
        # First touch is a short warm-up (discovery); the bulk burst
        # follows within the region's phase, then smaller echoes.  This
        # makes the first million cycles discovery-bound (the paper's
        # "one fourth of the instructions" point) while still letting
        # hot loops cross the threshold within a few million cycles.
        warmup = min(16, total)
        if total > warmup:
            bursts = max(n_episodes - 1, 1)
            weights = 2.0 ** -np.arange(bursts)
            sizes = np.maximum((weights / weights.sum()
                                * (total - warmup)).astype(np.int64), 1)
            sizes = np.concatenate(([warmup], sizes))
            deficit = int(sizes.sum()) - total
            index = len(sizes) - 1
            while deficit > 0 and index > 0:   # trim echo bursts first
                take = min(int(sizes[index]), deficit)
                sizes[index] -= take
                deficit -= take
                index -= 1
            if deficit < 0:
                sizes[1] += -deficit           # grow the bulk burst
            sizes = sizes[sizes > 0]
        else:
            sizes = np.array([total])
        phase_width = float(rng.uniform(0.02, 0.25)) * (1.0 - start)
        offsets = (np.arange(len(sizes)) / max(len(sizes) - 1, 1)) ** 0.7
        positions = start + phase_width * (0.25 + 0.75 * offsets)
        positions[0] = start
        for position, iterations in zip(positions, sizes):
            if iterations > 0:
                episodes.append(Episode(position=float(position),
                                        region_index=region.index,
                                        iterations=int(iterations)))
    episodes.sort(key=lambda episode: episode.position)
    workload.episodes = episodes
    return workload
