"""Write a plain ASCII CSV of n cases whose case number `late` (from 0)
holds the label "late", which no other case holds:

    python .github/scripts/late_csv.py late_train.csv 10000 5
"""

import sys

path, n, late = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rows = [f"s{i % 3},t{i % 5},{(i * i) % 3}" for i in range(n)]
rows[late] = "late,t1,2"
with open(path, "w") as fh:
    fh.write("a,b,class\n" + "".join(row + "\n" for row in rows))
