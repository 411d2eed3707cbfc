"""Reference implementations the fast paths are pinned against."""
