"""Memory hierarchy substrate: caches, coherence directory, DRAM."""

from repro.memory.cache import Cache
from repro.memory.coherence import Directory, DirectoryEntry
from repro.memory.dram import SimpleDram, BankedDram, make_dram

__all__ = [
    "BankedDram",
    "Cache",
    "Directory",
    "DirectoryEntry",
    "SimpleDram",
    "make_dram",
]
