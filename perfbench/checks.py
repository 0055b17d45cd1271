"""Output checks shared by every workload.

Each operation reduces its output to an exact part and a list of real
values. The exact part must match the reference digest byte for byte;
each real value must match its reference within REL_TOL, so that a
correct reordering of a multiprecision sum is not a failure. Outputs that
depend on the workload seed are compared with the reference only at the
seed the reference was taken with; their seed-independent invariants are
checked on every seed by the workloads themselves.
"""

import hashlib
import json
import math
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# mpf values are computed at 144 bits; a reordered sum moves them by far
# less than this, a wrong term by far more.
REL_TOL = 1e-12
ABS_TOL = 1e-15

_DECIMAL = re.compile(r"-?\d+\.\d*(?:e[+-]?\d+)?|-?\d+e[+-]?\d+")


class CheckFailed(Exception):
    """An operation produced an output that is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def split_reals(text):
    """(skeleton, reals): every decimal literal in text replaced by '#'.

    Integers, rationals written p/q and words such as 'inf' stay in the
    skeleton, so they are compared exactly.
    """
    reals = _DECIMAL.findall(text)
    return _DECIMAL.sub("#", text), reals


def real_text(value):
    """A real value as the shortest text that round-trips through float."""
    return repr(float(value))


class Checker:
    """Compares (or, when recording, collects) per-operation digests."""

    def __init__(self, seed, recording=False):
        self.seed = seed
        self.recording = recording
        self.digests = {}
        if recording:
            self.reference = {"seed": seed, "rel_tol": REL_TOL, "ops": {}}
        else:
            self.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))

    def expect(self, key, exact_text, reals=(), seeded=False):
        """Check one operation's output against the reference.

        exact_text is compared through its SHA-256; reals (numbers or
        decimal strings) are compared value by value within REL_TOL.
        """
        reals = [real_text(v) for v in reals]
        digest = sha(exact_text)
        self.digests[key] = {"exact": digest, "reals": sha("\n".join(reals))}
        if self.recording:
            self.reference["ops"][key] = {"exact": digest, "reals": reals, "seeded": seeded}
            return
        if seeded and self.seed != self.reference["seed"]:
            return
        ref = self.reference["ops"].get(key)
        require(ref is not None, f"{key}: no reference digest")
        require(digest == ref["exact"], f"{key}: exact output differs from the reference")
        require(
            len(reals) == len(ref["reals"]),
            f"{key}: {len(reals)} real values, reference has {len(ref['reals'])}",
        )
        for i, (got, want) in enumerate(zip(reals, ref["reals"])):
            a, b = float(got), float(want)
            same = a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            require(same, f"{key}: real value {i} is {got}, reference {want}")

    def save(self):
        REFERENCE_PATH.write_text(
            json.dumps(self.reference, indent=0, sort_keys=True) + "\n", encoding="utf-8"
        )
