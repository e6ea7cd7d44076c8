"""A reference Stallings fold, shared by the tests: the whole wedge of loops
folded at once, with none of the library's incremental shortcuts."""

from collections import deque

from stationarylab.freegroup import inverse_letters


def reference_fold(words):
    """Stallings fold of the whole wedge of loops at once; returns the rank
    E - V + 1 of the folded graph, the size of a free basis of the subgroup
    the words generate, counted by BFS from the base."""
    parent, adj = [], []

    def new_vertex():
        parent.append(len(parent))
        adj.append({})
        return len(parent) - 1

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def inv(c):
        return inverse_letters(bytes((c,)))[0]

    base = new_vertex()
    pending = deque()
    for w in words:
        prev = base
        for j, c in enumerate(w.letters):
            nxt = base if j == len(w) - 1 else new_vertex()
            pending.append((prev, c, nxt))
            prev = nxt
    while pending:
        u, c, v = pending.popleft()
        u, v = find(u), find(v)
        cur = adj[u].get(c)
        if cur is None:
            adj[u][c] = v
            pending.append((v, inv(c), u))
        elif find(cur) != v:
            x, y = find(cur), v
            parent[y] = x
            for lab, t in adj[y].items():
                pending.append((x, lab, t))
            adj[y] = {}

    root = find(base)
    seen = {root}
    queue = deque([root])
    n_edges = 0
    while queue:
        u = queue.popleft()
        n_edges += len(adj[u])
        for v in map(find, adj[u].values()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return n_edges // 2 - len(seen) + 1
