"""Every gated document, once, in report order.

``compare`` walks, refreshes and reports the documents in this order and
the CLI builds one sub-command per record.  Imported by ``cli`` and
``compare`` only — ``import repro.bench`` does not pay for it.
"""

from . import baseline, collectivecmd, dtype_cache, faultscmd, scalecmd

__all__ = ["DOCUMENTS"]

DOCUMENTS = (
    baseline.DOCUMENT,
    dtype_cache.DOCUMENT,
    faultscmd.DOCUMENT,
    scalecmd.DOCUMENT,
    collectivecmd.DOCUMENT,
)
