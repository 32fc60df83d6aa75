"""A parent-list union-find for the test references, kept apart from the
``mst`` code that they check."""


def find(parent: list[int], a: int) -> int:
    """Root of a, halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def union(parent: list[int], a: int, b: int) -> bool:
    """Join the sets of a and b; False if they were one set already."""
    ra, rb = find(parent, a), find(parent, b)
    if ra == rb:
        return False
    parent[rb] = ra
    return True
