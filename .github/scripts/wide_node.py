"""Write a CSV of 6000 cases: a 3-state child `c` of five 4-state parents
`p0`..`p4`, with over 512 of their 1024 configurations observed.

    python .github/scripts/wide_node.py wide_node.csv
"""

import sys

import numpy as np

rng = np.random.default_rng(5)
parents = rng.integers(0, 4, size=(6000, 5))
child = (parents[:, :3].sum(axis=1) + rng.integers(0, 2, 6000)) % 3
rows = np.column_stack([parents, child])
with open(sys.argv[1], "w") as fh:
    fh.write("p0,p1,p2,p3,p4,c\n")
    fh.write("".join(",".join(f"s{x}" for x in row) + "\n" for row in rows))
