"""Microcode model: control store map, rows/columns, costs, registry."""
