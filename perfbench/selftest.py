#!/usr/bin/env python3
"""Self-test of the benchmark's output checks (perfbench/checks.py).

    python3 perfbench/selftest.py

Builds a consistent verdict stream by hand, asserts that the replay and
live checks accept it, then tampers with it the ways a broken server
could and asserts that the checks catch every tamper. Exits non-zero
when a tamper goes unnoticed. Needs no build.
"""

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402


def stream():
    """(expected step counts, kinds, records) of a small replay."""
    sessions = [("u1", "s0", "normal", 20), ("u2", "s1", "normal", 3),
                ("u3", "s2", "normal", 17), ("u4", "s3", "normal", 16),
                ("x0", "s4", "misuse", 18), ("z0", "s5", "random", 5)]
    expected, kinds, records = {}, {}, []
    for n, (user, sid, kind, length) in enumerate(sessions):
        key = (user, sid)
        expected[key] = length
        kinds[key] = kind
        likes = []
        for step in range(1, length + 1):
            # The vote settles within the first 15 steps, then stays.
            cluster = (n + step) % 3 if step < checks.VOTE_ACTIONS else n % 3
            like = None
            if step > 1:
                like = (0.30 + 0.01 * ((n + step) % 7)) if kind == "normal" else 0.002 * step
                likes.append(like)
            records.append({"type": "step", "user_id": user, "session_id": sid, "step": step,
                            "cluster": cluster, "likelihood": like})
        records.append({"type": "session_report", "user_id": user, "session_id": sid,
                        "reason": "shutdown", "steps": length, "voted_cluster": n % 3,
                        "avg_likelihood": sum(likes) / len(likes)})
    return expected, kinds, records


def replay_failures(records):
    expected, kinds, _ = stream()
    failures, _ = checks.check_replay(expected, kinds, records)
    return failures


def live_failures(records):
    expected, _, _ = stream()
    conns = {key: i % 2 for i, key in enumerate(expected)}
    replies = [(conns[checks.session_key(r)], r) for r in records if r["type"] == "step"]
    reports = [r for r in records if r["type"] == "session_report"]
    pipe = checks.group_steps(stream()[2])
    return checks.check_live(expected, conns, replies, reports, pipe)


def find(records, sid, step=None):
    for i, r in enumerate(records):
        if r["session_id"] == sid and (r["type"] == "session_report" if step is None
                                       else r.get("step") == step):
            return i
    raise KeyError((sid, step))


def drop_one_verdict(records):
    del records[find(records, "s2", 9)]


def change_one_likelihood(records):
    records[find(records, "s0", 7)]["likelihood"] *= 1.5


def report_steps_off_by_one(records):
    records[find(records, "s3")]["steps"] += 1


def switch_cluster_after_vote(records):
    r = records[find(records, "s0", checks.VOTE_ACTIONS + 2)]
    r["cluster"] = (r["cluster"] + 1) % 3


TAMPERS = [drop_one_verdict, change_one_likelihood, report_steps_off_by_one,
           switch_cluster_after_vote]


def main():
    ok = True
    _, _, clean = stream()
    for name, run in (("replay", replay_failures), ("live", live_failures)):
        failures = run(copy.deepcopy(clean))
        if failures:
            print("FAIL: the %s checks reject an untampered stream: %s" % (name, failures[0]))
            ok = False
        for tamper in TAMPERS:
            records = copy.deepcopy(clean)
            tamper(records)
            failures = run(records)
            if failures:
                print("ok:   %s checks catch %s (%s)" % (name, tamper.__name__, failures[0]))
            else:
                print("FAIL: %s checks miss %s" % (name, tamper.__name__))
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
