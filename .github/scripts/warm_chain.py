"""Write a CSV of n cases of a chain a -> b -> c -> d of 3-state variables,
each a copy of the one before it with probability 0.7, else uniform:

    python .github/scripts/warm_chain.py warm_chain.csv 8000
"""

import sys

import numpy as np

rng = np.random.default_rng(7)
n = int(sys.argv[2])
x = [rng.integers(0, 3, n)]
for _ in range(3):
    x.append(np.where(rng.random(n) < 0.7, x[-1], rng.integers(0, 3, n)))
rows = np.column_stack(x)
with open(sys.argv[1], "w") as fh:
    fh.write("a,b,c,d\n")
    fh.write("".join(",".join(f"s{v}" for v in row) + "\n" for row in rows))
