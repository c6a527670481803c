"""Write a CSV of n cases with a UTF-8 BOM and CRLF line ends, whose case
number `late` (from 0) holds the non-ASCII label "naïve":

    python .github/scripts/bom_csv.py bom_train.csv 8000 7990
"""

import sys

path, n, late = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rows = [f"s{i % 7},t{i % 5},{(i * i) % 3}" for i in range(n)]
rows[late] = "naïve,t1,2"
text = "\ufeffa,b,class\r\n" + "".join(row + "\r\n" for row in rows)
with open(path, "w", encoding="utf-8", newline="") as fh:
    fh.write(text)
