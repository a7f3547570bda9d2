"""Reference figures: one timed, checked operation on each input that
ROADMAP.md timed by hand.

    PYTHONPATH=src python3 perfbench/reference.py

6-fold duplication and 7 independent coins go through the blowup operation
(parse, explore, format, cbn and cbv) and its closed-form check; `equiv`
at bound 9 goes through the equiv operation on Figure 1's endpoints. Prints
the wall seconds of each operation. 7 coins takes over a minute.
"""

import time

import workloads
from oracle import blowup_text

CASES = (
    ("6-fold duplication", workloads.blowup_run, workloads.blowup_check,
     (6, 0, blowup_text(6, 0))),
    ("7 independent coins", workloads.blowup_run, workloads.blowup_check,
     (0, 7, blowup_text(0, 7))),
    ("equiv (B->B->B)->B at bound 9", workloads.equiv_run, workloads.equiv_check,
     ("figure1", "{ 1/2: \\x. x 0 0 ; 1/2: \\x. x 1 1 }",
      "{ 1/4: \\x. x 0 0 ; 1/4: \\x. x 0 1 ; 1/4: \\x. x 1 0 ; 1/4: \\x. x 1 1 }", 9)),
)

if __name__ == "__main__":
    for label, run, check, item in CASES:
        start = time.perf_counter()
        out = run(item)
        elapsed = time.perf_counter() - start
        check(item, out)
        print(f"{label}: {elapsed:.2f} s, checked")
