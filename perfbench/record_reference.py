"""Write reference.json: the output digests every later run is checked against.

Run it only on a commit whose outputs are known good (the reference in
this directory was taken at the commit that added the benchmark), from the
root of a checkout:

    python3 perfbench/record_reference.py

It runs each workload's operations once at REFERENCE_SEED. Outputs that do
not depend on the seed are checked on every seed; seeded ones only at
REFERENCE_SEED.
"""

import sys

from worker import import_orbitstat, run_ops

REFERENCE_SEED = 1


def main():
    import_orbitstat()
    from checks import Checker
    from workloads import WORKLOADS

    checker = Checker(REFERENCE_SEED, recording=True)
    for cls in WORKLOADS.values():
        rep = run_ops(cls(REFERENCE_SEED, checker).ops())
        if rep.failures:
            print("\n".join(rep.failures), file=sys.stderr)
            return 1
        print(f"{cls.name}: {rep.attempted} operations in {rep.wall:.1f} s")
    checker.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
