#!/usr/bin/env python3
"""Compares bench_e2e result documents (stdlib only).

A/B of two commits (BASE is the parent, CHANGE the change under test):

    python3 bench/e2e/compare.py BASE CHANGE

Spread of one commit, from two sets of its runs:

    python3 bench/e2e/compare.py --spread SET1 SET2

Each argument is a directory of result documents (the *.json files
bench_e2e writes to its results directory) or a list of such files
joined by commas. Gated documents (`"trace": false`) are compared
metric by metric with the bounds and directions in BENCHMARK.json;
traced documents, if any, get a per-layer table of medians.

Rules:
  * runs pair up by (workload, seed); at least 10 pairs are needed to
    claim a gain;
  * gain: the change wins at least 9/10 of the pairs and the medians
    differ by more than the base's interquartile range;
  * unresolved: the spread (interquartile range over median) of either
    side is wider than the bound, unless every change run reads better
    than every base run;
  * regression: otherwise, the change's median is worse than the base's
    by more than the bound.
Response digests must match for equal seeds: a differing digest means
the served or re-ranked lists changed.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_bounds():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_docs(arg):
    paths = []
    for part in arg.split(","):
        if os.path.isdir(part):
            paths += sorted(glob.glob(os.path.join(part, "*.json")))
        else:
            paths.append(part)
    docs = []
    for p in paths:
        with open(p) as f:
            try:
                doc = json.load(f)
            except ValueError:
                continue
        if isinstance(doc, dict) and "workload" in doc and not doc.get("smoke"):
            docs.append(doc)
    return docs


def by_workload(docs, traced):
    out = {}
    for d in docs:
        if bool(d.get("trace")) == traced:
            out.setdefault(d["workload"], []).append(d)
    return out


def values(docs, section, metric):
    return [d[section][metric]["value"] for d in docs
            if d.get(section) and metric in d[section]]


def spread(vals):
    """Interquartile range over median, as statistics.quantiles gives it."""
    if len(vals) < 2:
        return float("nan")
    q = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q[2] - q[0]) / med if med else float("nan")


def iqr(vals):
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return q[2] - q[0]


def worse_by(base, change, better):
    """How much worse `change` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    d = (change - base) / base
    return d if better == "lower" else -d


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def digest_check(base_docs, change_docs):
    base = {d["seed"]: d.get("digest") for d in base_docs}
    same = differ = 0
    for d in change_docs:
        if d["seed"] in base:
            if base[d["seed"]] == d.get("digest"):
                same += 1
            else:
                differ += 1
    return same, differ


def ab(base_all, change_all, bounds):
    base_w = by_workload(base_all, False)
    change_w = by_workload(change_all, False)
    rows, details = [], []
    for w in sorted(set(base_w) & set(change_w)):
        bdocs, cdocs = base_w[w], change_w[w]
        bseed = {d["seed"]: d for d in bdocs}
        pairs = [(bseed[d["seed"]], d) for d in cdocs if d["seed"] in bseed]
        cells = []
        for name, m in bounds.items():
            bv = values(bdocs, "end_to_end", name)
            cv = values(cdocs, "end_to_end", name)
            if not bv or not cv:
                continue
            bmed, cmed = statistics.median(bv), statistics.median(cv)
            wins = losses = 0
            for b, c in pairs:
                x = b["end_to_end"][name]["value"]
                y = c["end_to_end"][name]["value"]
                wins += is_better(y, x, m["better"])
                losses += is_better(x, y, m["better"])
            all_better = all(is_better(y, x, m["better"]) for x in bv for y in cv)
            wider = max(spread(bv), spread(cv)) > m["bound"]
            delta = worse_by(bmed, cmed, m["better"])
            if wider and not all_better:
                verdict = "unresolved"
            elif delta > m["bound"]:
                verdict = "REGRESSION"
            elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
                  abs(cmed - bmed) > iqr(bv) and is_better(cmed, bmed, m["better"])):
                verdict = "gain"
            else:
                verdict = "within bound"
            cells.append("%s %s %+.1f%%" % (name, verdict, -100 * delta))
            details.append("  %-14s %-17s base %.6g [iqr %.3g] change %.6g [iqr %.3g] "
                           "pairs %d wins %d losses %d bound %.0f%% -> %s"
                           % (w, name, bmed, iqr(bv), cmed, iqr(cv), len(pairs), wins,
                              losses, 100 * m["bound"], verdict))
        same, differ = digest_check(bdocs, cdocs)
        correct = all(d.get("correct") for d in bdocs + cdocs)
        rows.append("%-14s pairs=%-3d %s | digests same=%d differ=%d | %s"
                    % (w, len(pairs), " | ".join(cells), same, differ,
                       "correct" if correct else "INCORRECT RUNS"))
    print("A/B, one row per workload (signed delta: + is better):")
    for r in rows:
        print(r)
    print("\ndetail:")
    for d in details:
        print(d)
    layers(base_all, change_all, "base", "change")


def spread_mode(set1, set2, bounds):
    w1, w2 = by_workload(set1, False), by_workload(set2, False)
    ok = True
    print("spread of one commit, one row per workload "
          "(spread = IQR/median; drift = set 2 median worse than set 1):")
    for w in sorted(set(w1) | set(w2)):
        cells = []
        for name, m in bounds.items():
            a = values(w1.get(w, []), "end_to_end", name)
            b = values(w2.get(w, []), "end_to_end", name)
            if not a or not b:
                continue
            s1, s2 = spread(a), spread(b)
            drift = worse_by(statistics.median(a), statistics.median(b), m["better"])
            spread_ok = name == "setup_s" or max(s1, s2) <= m["bound"]
            good = spread_ok and drift <= m["bound"]
            ok = ok and good
            steady = max(s1, s2) < m["bound"] / 3
            cells.append("%s %.4f/%.4f drift %+.4f bound %.2f %s%s"
                         % (name, s1, s2, drift, m["bound"], "ok" if good else "FAIL",
                            "" if steady else " (spread above bound/3)"))
        same, differ = digest_check(w1.get(w, []), w2.get(w, []))
        print("%-14s runs=%d/%d digests same=%d differ=%d"
              % (w, len(w1.get(w, [])), len(w2.get(w, [])), same, differ))
        for c in cells:
            print("    " + c)
        ok = ok and differ == 0
    layers(set1, set2, "set 1", "set 2")
    return ok


def layers(docs1, docs2, label1, label2):
    t1, t2 = by_workload(docs1, True), by_workload(docs2, True)
    common = sorted(set(t1) & set(t2))
    if not common:
        return
    print("\nper-layer medians (%s -> %s), traced runs:" % (label1, label2))
    for w in common:
        print("  " + w)
        for name in t1[w][0]["per_layer"]:
            a = values(t1[w], "per_layer", name)
            b = values(t2[w], "per_layer", name)
            if a and b and (any(a) or any(b)):
                print("    %-36s %12.6g -> %12.6g %s" % (
                    name, statistics.median(a), statistics.median(b),
                    t1[w][0]["per_layer"][name]["unit"]))


def main(argv):
    bounds = load_bounds()
    if len(argv) == 4 and argv[1] == "--spread":
        return 0 if spread_mode(load_docs(argv[2]), load_docs(argv[3]), bounds) else 1
    if len(argv) == 3:
        ab(load_docs(argv[1]), load_docs(argv[2]), bounds)
        return 0
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
