"""Desk-scale lab for pivot-language chain-of-thought training.

A tiny bilingual arithmetic task, a from-scratch numpy transformer with
hand-written gradients, segment-masked training, and analysis probes
(cross-lingual retrieval, checkpoint delta maps).
"""

import contextlib
import os

# One BLAS thread, set before any submodule imports numpy: training runs its
# own two threads (model.forward), and BLAS threads on top would oversubscribe
# the cores and make results depend on the host's thread settings.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

__version__ = "0.1.0"


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Write `path` whole or not at all: the block writes a temporary file in the
    same directory, which replaces `path` only once the block has finished."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
