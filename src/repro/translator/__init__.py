"""The dynamic binary translation system (DBT) of the co-designed VM.

Staged translation per the paper: a light-weight basic block translator
(:mod:`~repro.translator.bbt`) for initial emulation, and an optimizing
superblock translator (:mod:`~repro.translator.sbt`) with macro-op fusion
(:mod:`~repro.translator.fusion`) for hotspots, both served micro-op
bytes by instruction shape (:mod:`~repro.translator.templates`).
Translations live in code caches (:mod:`~repro.translator.code_cache`)
and are linked by chaining.
"""

from repro.translator.cracker import CrackError, CrackResult, crack, \
    is_crackable
from repro.translator.code_cache import (
    CodeCache,
    CodeCacheFull,
    ExitStub,
    Translation,
    TranslationDirectory,
)
from repro.translator.bbt import BasicBlockTranslator
from repro.translator.superblock import Superblock, SuperblockBlock, \
    form_superblock
from repro.translator.fusion import FusionStats, fuse_microops
from repro.translator.redundancy import RedundancyStats, \
    eliminate_redundant_loads
from repro.translator.sbt import SuperblockTranslator, \
    eliminate_dead_flags, invert_cond
from repro.translator.templates import Shape, shape_at

__all__ = [
    "BasicBlockTranslator", "CodeCache", "CodeCacheFull", "CrackError",
    "CrackResult", "ExitStub", "FusionStats", "RedundancyStats", "Shape",
    "Superblock", "SuperblockBlock", "SuperblockTranslator",
    "Translation", "TranslationDirectory", "crack", "eliminate_dead_flags",
    "eliminate_redundant_loads", "form_superblock", "fuse_microops",
    "invert_cond", "is_crackable", "shape_at",
]
