"""Correlation-aware second-order weight pruning.

Selects weights to remove by their true saliency under a block empirical
Fisher approximation of the loss curvature, compensates the survivors in
closed form, and supports one-shot, gradual, and n:m-structured modes.

Importing the package loads none of its modules; import the one you use,
such as ``obsprune.pruners`` or ``obsprune.cli``.
"""

__version__ = "0.1.0"
