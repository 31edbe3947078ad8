"""Virtual memory: address decomposition, page tables, translation buffer."""
