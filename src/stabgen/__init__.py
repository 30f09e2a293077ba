"""stabgen: adaptive generation of labeled small-signal-stability datasets.

The engine explores a structured operating space of a converter-penetrated
grid by recursive bisection, adjusts each sampled operating point to a
feasible power-flow solution, labels it by eigenvalue analysis of a
reduced-order linearized model, and steers the exploration with
stability-entropy and random-forest sensitivity.
"""

__version__ = "0.2.0"
