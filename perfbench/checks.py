"""Per-op correctness checks.

Zoo ops are compared with the 2^n oracle's values for the same instance:
every value within ABS_TOL, every emptiness flag and argmax pattern
exactly. Reports are first put in one canonical form, whether they come
from a BoundsReport object or from the report JSON the CLI writes.
"""

from __future__ import annotations

import math

EPS_LIST = (0.05, 0.2)
ABS_TOL = 1e-9
OBJECTIVE_TOL = 1e-7


def _bits(sigma):
    return None if sigma is None else [list(layer) for layer in sigma.bits]


def canon_from_report(report) -> dict:
    """Canonical form of a lipbound BoundsReport."""
    return {
        "upper": report.upper,
        "lower": report.lower,
        "lower_empty": bool(report.lower_empty),
        "eps": {
            repr(e): [report.eps_values[e], e in report.eps_empty, _bits(report.eps_argmax.get(e))]
            for e in EPS_LIST
        },
        "curve": [[seg.eps_end, seg.value, bool(seg.empty)] for seg in report.curve],
        "argmax_upper": _bits(report.argmax_upper),
        "argmax_lower": _bits(report.argmax_lower),
    }


def _num(v):
    return math.inf if v == "inf" else v


def canon_from_json(doc: dict) -> dict:
    """Canonical form of the report JSON written by `lipbound bounds --out`."""
    eps = {}
    for e in EPS_LIST:
        key = repr(e)
        eps[key] = [doc["eps_values"][key], key in doc["eps_empty"], doc["argmax_eps"].get(key)]
    return {
        "upper": doc["upper"],
        "lower": doc["lower"],
        "lower_empty": bool(doc["lower_empty"]),
        "eps": eps,
        "curve": [[_num(s["eps"]), s["value"], bool(s.get("empty", False))] for s in doc["curve"]],
        "argmax_upper": doc["argmax_upper"],
        "argmax_lower": doc["argmax_lower"],
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= ABS_TOL


def compare(got: dict, ref: dict) -> list[str]:
    """Every disagreement between two canonical reports; empty when they agree."""
    bad = []
    for key in ("upper", "lower"):
        if not _close(got[key], ref[key]):
            bad.append(f"{key} {got[key]!r} != {ref[key]!r}")
    for key in ("lower_empty", "argmax_upper", "argmax_lower"):
        if got[key] != ref[key]:
            bad.append(f"{key} {got[key]!r} != {ref[key]!r}")
    for key, (value, empty, argmax) in ref["eps"].items():
        g_value, g_empty, g_argmax = got["eps"][key]
        if not _close(g_value, value):
            bad.append(f"eps {key} value {g_value!r} != {value!r}")
        if g_empty != empty:
            bad.append(f"eps {key} empty {g_empty!r} != {empty!r}")
        if g_argmax != argmax:
            bad.append(f"eps {key} argmax {g_argmax!r} != {argmax!r}")
    if len(got["curve"]) != len(ref["curve"]):
        bad.append(f"curve has {len(got['curve'])} segments, reference {len(ref['curve'])}")
    else:
        for j, (g, r) in enumerate(zip(got["curve"], ref["curve"])):
            if not (_close(g[0], r[0]) and _close(g[1], r[1]) and g[2] == r[2]):
                bad.append(f"curve segment {j} {g!r} != {r!r}")
    return bad


def to_jsonable(canon: dict) -> dict:
    """Canonical report with infinities spelled "inf", for the reference file."""
    out = dict(canon)
    out["curve"] = [["inf" if s[0] == math.inf else s[0], s[1], s[2]] for s in canon["curve"]]
    return out


def from_jsonable(doc: dict) -> dict:
    out = dict(doc)
    out["curve"] = [[_num(s[0]), s[1], s[2]] for s in doc["curve"]]
    return out


def check_large(ref: dict, rc: dict, objective: float | None, sample: dict | None) -> list[str]:
    """Checks for one large-net op.

    `check` exits 0; its objective equals the witness pattern's norm (its
    square for p=2) within OBJECTIVE_TOL relative to max(1, norm); both
    sampled estimates stay at or below the product of the layer norms.
    """
    bad = [f"{cmd} exited {code}" for cmd, code in rc.items() if code != 0]
    if objective is None:
        bad.append("check printed no objective")
    else:
        want = ref["pattern_norm"] ** 2 if ref["p"] == 2 else ref["pattern_norm"]
        if abs(objective - want) > OBJECTIVE_TOL * max(1.0, abs(want)):
            bad.append(f"objective {objective!r} != pattern norm value {want!r}")
    if sample is None:
        bad.append("sample wrote no report")
    else:
        cap = ref["norm_product"] * (1.0 + 1e-12)
        for key in ("sampled_lower_bound", "pairwise_quotient"):
            if not sample[key] <= cap:
                bad.append(f"{key} {sample[key]!r} exceeds layer-norm product {cap!r}")
    return bad
