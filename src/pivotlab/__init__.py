"""Desk-scale lab for pivot-language chain-of-thought training.

A tiny bilingual arithmetic task, a from-scratch numpy transformer with
hand-written gradients, segment-masked training, and analysis probes
(cross-lingual retrieval, checkpoint delta maps).
"""

__version__ = "0.1.0"
