"""Row reduction by scalar field arithmetic, one entry at a time: the
oracle of `linear._rref`, which reduces whole rows in numpy."""


def rref(field, rows):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return [], []
    n = len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(vi, field.mul(f, vr)) for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots
