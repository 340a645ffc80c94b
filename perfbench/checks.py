"""Output checks of the benchmark's workloads.

Each check takes what the program printed, parsed, plus what run.py
sent, and returns a list of failures (empty when the output is right).
They test properties and independent computations, never a stored copy
of earlier output. perfbench/selftest.py feeds them tampered verdict
streams and asserts that each tamper is caught.
"""

import json

VOTE_ACTIONS = 15          # the paper's vote window (§IV-C)
AVG_TOLERANCE = 1e-8       # verdicts print 10 significant digits
LIVE_TOLERANCE = 1e-6      # TCP node vs pipe path, same archive
MIN_ALARM_AUC = 0.80       # normal sessions over misuse + random ones


def parse_records(lines):
    """Parses NDJSON output lines; a line that is not JSON is an error."""
    records, failures = [], []
    for line in lines:
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            failures.append("unparseable output line: %r" % line[:120])
    return records, failures


def session_key(record):
    return (str(record["user_id"]), str(record["session_id"]))


def auc(positive, negative):
    """Share of (positive, negative) pairs ranked the right way round."""
    if not positive or not negative:
        return 0.0
    wins = 0.0
    for p in positive:
        for n in negative:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(positive) * len(negative))


def check_step_streams(expected_steps, steps_by_session):
    """Every event gets exactly one step record, in per-session order, with
    a likelihood in (0, 1] from step 2 on and a voted cluster that is
    frozen once the vote window has passed."""
    failures = []
    for key, count in expected_steps.items():
        got = steps_by_session.get(key, [])
        numbers = [r.get("step") for r in got]
        if numbers != list(range(1, count + 1)):
            failures.append("session %s: steps %s, expected 1..%d in order"
                            % ("/".join(key), _brief(numbers), count))
            continue
        for r in got:
            like = r.get("likelihood")
            if r["step"] == 1:
                if like is not None:
                    failures.append("session %s: first step has a likelihood" % "/".join(key))
            elif not isinstance(like, (int, float)) or not 0.0 < like <= 1.0:
                failures.append("session %s step %d: likelihood %r outside (0, 1]"
                                % ("/".join(key), r["step"], like))
        if count >= VOTE_ACTIONS:
            frozen = got[VOTE_ACTIONS - 1].get("cluster")
            for r in got[VOTE_ACTIONS:]:
                if r.get("cluster") != frozen:
                    failures.append("session %s: voted cluster moved from %r to %r at step %d"
                                    % ("/".join(key), frozen, r.get("cluster"), r["step"]))
                    break
    for key in steps_by_session:
        if key not in expected_steps:
            failures.append("step records for unknown session %s" % "/".join(key))
    return failures


def check_reports(expected_steps, reports, steps_by_session):
    """Every session gets exactly one report whose step count equals the
    events sent for it and whose avg_likelihood is the mean of its step
    likelihoods, recomputed here."""
    failures = []
    seen = {}
    for r in reports:
        seen.setdefault(session_key(r), []).append(r)
    for key, count in expected_steps.items():
        got = seen.get(key, [])
        if len(got) != 1:
            failures.append("session %s: %d reports, expected 1" % ("/".join(key), len(got)))
            continue
        report = got[0]
        if report.get("steps") != count:
            failures.append("session %s: report steps %r, expected %d"
                            % ("/".join(key), report.get("steps"), count))
        likes = [s["likelihood"] for s in steps_by_session.get(key, [])
                 if isinstance(s.get("likelihood"), (int, float))]
        mean = sum(likes) / len(likes) if likes else 0.0
        avg = report.get("avg_likelihood")
        if not isinstance(avg, (int, float)) or abs(avg - mean) > AVG_TOLERANCE * max(1.0, abs(mean)):
            failures.append("session %s: avg_likelihood %r, mean of its steps %r"
                            % ("/".join(key), avg, mean))
    for key in seen:
        if key not in expected_steps:
            failures.append("report for unknown session %s" % "/".join(key))
    return failures


def group_steps(records):
    steps = {}
    for r in records:
        if r.get("type") == "step":
            steps.setdefault(session_key(r), []).append(r)
    return steps


def check_replay(expected_steps, kinds, records):
    """The replay_pipe checks over one serve run's output. `kinds` maps a
    session to "normal", "misuse" or "random". Returns (failures, auc)."""
    failures = []
    others = [r for r in records if r.get("type") not in ("step", "session_report")]
    if others:
        failures.append("%d records that are neither steps nor reports, first: %r"
                        % (len(others), others[0]))
    steps = group_steps(records)
    reports = [r for r in records if r.get("type") == "session_report"]
    failures += check_step_streams(expected_steps, steps)
    failures += check_reports(expected_steps, reports, steps)
    by_key = {session_key(r): r.get("avg_likelihood", 0.0) for r in reports}
    normal = [by_key[k] for k, kind in kinds.items() if kind == "normal" and k in by_key]
    abnormal = [by_key[k] for k, kind in kinds.items() if kind != "normal" and k in by_key]
    score = auc(normal, abnormal)
    if not score > MIN_ALARM_AUC:
        failures.append("alarm AUC %.4f (normal over misuse + random) not above %.2f"
                        % (score, MIN_ALARM_AUC))
    return failures, score


def check_live(expected_steps, conn_of_session, replies, reports, pipe_steps):
    """The live_tcp checks. `replies` holds (connection, record) pairs as the
    generator received them; `reports` the session reports of every node;
    `pipe_steps` the step records the pipe path gives for the sessions of
    `pipe_steps`' keys (a sample of the sent sessions)."""
    failures = []
    steps = {}
    for conn, r in replies:
        if r.get("type") != "step":
            failures.append("non-step reply on connection %s: %r" % (conn, r))
            continue
        key = session_key(r)
        if conn_of_session.get(key) != conn:
            failures.append("verdict for %s on connection %s, sent on %s"
                            % ("/".join(key), conn, conn_of_session.get(key)))
        steps.setdefault(key, []).append(r)
    failures += check_step_streams(expected_steps, steps)
    failures += check_reports(expected_steps, reports, steps)
    for key, want in pipe_steps.items():
        got = steps.get(key, [])
        if len(got) != len(want):
            continue  # already reported by check_step_streams
        for a, b in zip(got, want):
            la, lb = a.get("likelihood"), b.get("likelihood")
            same_like = (la is None and lb is None) or (
                la is not None and lb is not None and abs(la - lb) <= LIVE_TOLERANCE)
            if a.get("cluster") != b.get("cluster") or not same_like:
                failures.append("session %s step %d: TCP (%r, %r) vs pipe (%r, %r)"
                                % ("/".join(key), a["step"], a.get("cluster"), la,
                                   b.get("cluster"), lb))
                break
    return failures


def _brief(numbers):
    if len(numbers) <= 8:
        return numbers
    return numbers[:4] + ["..."] + numbers[-3:]
