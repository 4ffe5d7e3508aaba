"""Low-rank + structured-sparse compression for photonic tensor-core hardware."""

__version__ = "0.1.0"
