"""spincat: two-step QND measurement simulator for collective-spin
squeezed and cat states, plus an experimental feasibility calculator."""

__version__ = "0.1.0"
