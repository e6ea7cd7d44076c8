"""A reference Stallings fold, shared by the tests: the whole wedge of loops
folded at once, with none of the library's incremental shortcuts."""

from collections import deque

from stationarylab.freegroup import inverse_letters


def reference_fold(words):
    """Stallings fold of the whole wedge of loops at once, read off with a
    spanning tree by BFS in letter order from the base.

    Returns the basis size and the length of each word rewritten over the
    non-tree edges.
    """
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
    tree = {root: None}
    queue = deque([root])
    n_edges = 0
    while queue:
        u = queue.popleft()
        n_edges += len(adj[u])
        for c in sorted(adj[u]):
            v = find(adj[u][c])
            if v not in tree:
                tree[v] = (u, c)
                queue.append(v)
    basis_size = n_edges // 2 - len(tree) + 1

    lengths = []
    for w in words:
        v, out = root, []
        for c in w.letters:
            t = find(adj[v][c])
            if tree[t] != (v, c) and tree[v] != (t, inv(c)):
                # a non-tree edge, named by its orientation-free endpoints
                edge = min((v, c, t), (t, inv(c), v))
                step = (edge, edge == (v, c, t))
                if out and out[-1] == (edge, not step[1]):
                    out.pop()
                else:
                    out.append(step)
            v = t
        lengths.append(len(out))
    return basis_size, lengths
