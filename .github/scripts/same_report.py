"""Assert that two JSON reports are equal once the named keys are dropped
from each one's config, for instance the input paths:

    python .github/scripts/same_report.py first.json second.json data test
"""

import json
import sys

first, second, *dropped = sys.argv[1:]
a, b = (json.load(open(path)) for path in (first, second))
for report in (a, b):
    for key in dropped:
        report["config"].pop(key)
assert a == b, (a, b)
