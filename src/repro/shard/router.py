"""``ShardRouter``: the historical name of a pool-served alignment service."""

from __future__ import annotations

from repro.serve.service import AlignmentService
from repro.util.checks import ValidationError

__all__ = ["ShardRouter"]


def ShardRouter(num_shards: int | None = None, *, pool, **service_kwargs):
    """``AlignmentService(pool=pool, **service_kwargs)``; checks ``num_shards``."""
    if num_shards is not None and num_shards != pool.num_shards:
        raise ValidationError(
            f"num_shards={num_shards} but the pool has {pool.num_shards} shards"
        )
    return AlignmentService(pool=pool, **service_kwargs)
