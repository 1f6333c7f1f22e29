"""Every ``results/`` file, once, as one record.

``RECORDS`` is ``repro-bench all``'s order: the paper's tables and
figures, then the gated documents.  ``compare`` walks, refreshes and
reports the gated ones in ``DOCUMENTS`` order, and the CLI builds one
sub-command per record.  Imported by ``cli`` and ``compare`` only —
``import repro.bench`` does not pay for it.
"""

from . import baseline, collectivecmd, dtype_cache, faultscmd, report, scalecmd

__all__ = ["DOCUMENTS", "RECORDS"]

DOCUMENTS = (
    baseline.DOCUMENT,
    dtype_cache.DOCUMENT,
    faultscmd.DOCUMENT,
    scalecmd.DOCUMENT,
    collectivecmd.DOCUMENT,
)

RECORDS = (*report.PAPER, *DOCUMENTS)
