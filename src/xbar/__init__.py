"""1D crosspoint arrays: minimal layouts, enumeration-sort simulation, query circuits."""

__version__ = "0.1.0"
