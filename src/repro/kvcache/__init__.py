"""Persistent KV cache substrate.

CP distributes KV storage as well as compute: each rank caches only its
shard of every sequence, so adding CP nodes grows aggregate KV capacity
linearly (one of the paper's three motivations for CP, §1). This package
provides the per-rank cache the engine uses across multi-turn prefill and
decode:

- :mod:`repro.kvcache.paged` — a paged block allocator in the style of
  PagedAttention (Kwon et al. 2023), which the paper cites as the standard
  memory-management substrate for long-context serving.
- :mod:`repro.kvcache.cache` — :class:`RankKVCache`, a per-rank KV store
  keeping every layer's K/V and positions in block pools; the paged
  allocator's block tables are its index and its capacity (OOM) authority.
- :mod:`repro.kvcache.prefix_index` — :class:`PrefixIndex`, a radix tree
  over committed token ids that lets requests *share* resident KV
  (SGLang-RadixAttention / Mooncake style): the allocator refcounts shared
  blocks, appends copy-on-write split them, and the serving runtime
  adopts matched prefixes so templated traffic prefills only its
  uncached suffix.
"""

from repro.kvcache.cache import CacheCapacityError, RankKVCache
from repro.kvcache.paged import PagedAllocator
from repro.kvcache.prefix_index import PrefixIndex

__all__ = ["CacheCapacityError", "PagedAllocator", "PrefixIndex", "RankKVCache"]
