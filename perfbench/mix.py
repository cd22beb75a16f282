"""Seeded request stream for the service-mix workload.

The stream is a sequence of rounds.  Every round has the same make-up and
the client starts a round only when the previous one has ended, so a
round may use any protocol that an earlier round registered.  A round is
a list of *sequences*: the operations of one sequence run in order on one
client session; different sequences of a round may run on either session
and touch different resident contexts, so their interleaving cannot
change a served result.

Per round: 4 registrations (POST /v1/protocols with CEGAR refinement) and
29 jobs:

    known fault   boundness, cover, lint on altbit              (fixed)
                  register FIXED_CREDIT; boundness, cover on it  (fixed)
    new credit    register variant 2r; cover, then lint and boundness
                  in a seeded order                              (misses)
    re-submit     register an earlier variant again (200 "cached") and
                  repeat one of its analyses                     (hit)
    new timer     register variant 2r+1; lint, boundness, cover in a
                  seeded order                                   (misses)
    builtin       one of BUILTINS; lint, boundness, cover in a seeded
                  order at seeded budgets                        (miss or hit)
    simulate x12  1000 messages                                  (never cached)
    fuzz x2       no-violation protocol                          (never cached)

Every round registers two new variants, so resident state grows for the
whole run, as it does under a stream of distinct client submissions.

A served result depends on what ran before it on the same resident
context: on a protocol with several stuck controls, a cover that follows a
boundness job reports another stuck witness than a cold cover.  The
"known fault" sequences run that order every round on inputs the seed
does not choose; the served cover is wrong in the round that computes it
and in every later round that hits its memo, so exactly two operations of
every round fail.  Seeded sequences run that order only on contexts with
no stuck control (the timer variants and BUILTINS), where there is no
witness to choose; on a credit variant the cover comes first.  Otherwise
the number of failed operations would depend on the seed.
"""

import random

SEEDS = 8

BUILTINS = ["stop-and-wait", "stenning", "gbn", "sr"]
BUILTIN_LINT_NODES = [3000, 5000]
BUILTIN_BOUNDNESS_NODES = [1500, 2000]
SIMULATE_SLOTS = [("stenning", "reorder:0.8:0.05"), ("gbn", "lossy:0.1"),
                  ("stop-and-wait", "prob:0.3")]

COUNTER_TEMPLATE = """// Generated credit-window variant {index} (window {window}, dues {dues}).
protocol "bench-credit-{index}" {{
  describe "generated credit-window sender; window {window}"
  packets {{ data  ack }}

  sender {{
    counter pending = 0
    var inflight : bool = false

    on submit when pending < {window} {{ pending += 1 }}
    on ack {{ inflight = false }}

    poll when pending > 0 && !inflight -> send data {{ pending -= 1; inflight = true }}
  }}

  receiver {{
    counter deliver_due = 0
    counter ack_due = 0

    on data when deliver_due < {dues} && ack_due < {dues} {{ deliver_due += 1; ack_due += 1 }}

    poll when deliver_due > 0 -> deliver {{ deliver_due -= 1 }}
    poll when ack_due > 0 -> send ack {{ ack_due -= 1 }}
  }}
}}
"""

TIMER_TEMPLATE = """// Generated stop-and-wait variant {index} (timeout {timeout}).
protocol "bench-timer-{index}" {{
  describe "generated stop-and-wait; timeout {timeout}"
  const timeout = {timeout}
  packets {{ data  ack }}

  sender {{
    counter pending = 0
    var inflight : bool = false
    var timer : 0 .. timeout - 1 = 0

    on submit {{ pending += 1 }}
    on ack when inflight {{ inflight = false }}

    poll when inflight && timer == 0 -> send data {{ timer = timeout - 1 }}
    poll when inflight && timer > 0 {{ timer -= 1 }}
    poll when pending > 0 -> send data {{ pending -= 1; inflight = true; timer = timeout - 1 }}
  }}

  receiver {{
    counter deliver_due = 0 saturate budget + 2
    counter ack_due = 0 saturate 2 * (budget + 1)

    on data {{ deliver_due += 1; ack_due += 1 }}

    poll when deliver_due > 0 -> deliver {{ deliver_due -= 1 }}
    poll when ack_due > 0 -> send ack {{ ack_due -= 1 }}
  }}
}}
"""

# The known-fault PDL input: a credit window of 4 has nine stuck controls.
FIXED_CREDIT = COUNTER_TEMPLATE.format(index="fixed", window=4, dues=2)


def variant(seed, index):
    """Variant [index] of a seed: even indices are credit-window senders,
    odd ones stop-and-wait senders, with parameters drawn from the seed."""
    rng = random.Random(f"variant-{seed}-{index}")
    if index % 2 == 0:
        return COUNTER_TEMPLATE.format(index=index, window=rng.randint(2, 6), dues=rng.randint(1, 3))
    return TIMER_TEMPLATE.format(index=index, timeout=rng.randint(2, 5))


def register(source):
    return {"op": "register", "source": source}


def job(endpoint, body, source=None, known_fault=False):
    return {"op": "job", "endpoint": endpoint, "body": body, "source": source,
            "known_fault": known_fault}


def lint_body(protocol, nodes):
    return {"protocol": protocol, "capacity": 2, "submits": 3, "nodes": nodes,
            "complete": False, "cover_nodes": 200000, "engine_domains": 1,
            "por": False, "stab": False}


def boundness_body(protocol, nodes):
    return {"protocol": protocol, "nodes": nodes, "capacity": 2, "submits": 2,
            "engine_domains": 1, "por": False}


def cover_body(protocol):
    return {"protocol": protocol, "submits": 3, "nodes": 20000}


def variant_jobs(source, handle):
    """The three analyses every variant gets, by kind."""
    return {"lint": job("lint", lint_body(handle, 2000), source),
            "boundness": job("boundness", boundness_body(handle, 1500), source),
            "cover": job("cover", cover_body(handle), source)}


def round_ops(seed, r, handle):
    """The sequences of round r.  [handle] maps a source to its "pdl:"
    handle, which the client computes as the MD5 of the source text (the
    service must answer the same handle)."""
    rng = random.Random(f"round-{seed}-{r}")
    seeds = random.Random(f"seeds-{seed}")
    pool = [seeds.randrange(1 << 30) for _ in range(SEEDS)]

    fixed = handle(FIXED_CREDIT)
    known = [
        [job("boundness", boundness_body("altbit", 2000)),
         job("cover", cover_body("altbit"), known_fault=True),
         job("lint", lint_body("altbit", 2000))],
        [register(FIXED_CREDIT),
         job("boundness", boundness_body(fixed, 1500), FIXED_CREDIT),
         job("cover", cover_body(fixed), FIXED_CREDIT, known_fault=True)],
    ]

    credit = variant(seed, 2 * r)
    jobs = variant_jobs(credit, handle(credit))
    rest = ["lint", "boundness"]
    rng.shuffle(rest)
    # A variant of an earlier round, or in round 0 this round's own.
    old = variant(seed, rng.randrange(2 * r)) if r > 0 else credit
    again = variant_jobs(old, handle(old))[rng.choice(["lint", "boundness", "cover"])]
    new_credit = [register(credit), jobs["cover"], *[jobs[k] for k in rest], register(old), again]

    timer = variant(seed, 2 * r + 1)
    jobs = variant_jobs(timer, handle(timer))
    kinds = ["lint", "boundness", "cover"]
    rng.shuffle(kinds)
    new_timer = [register(timer), *[jobs[k] for k in kinds]]

    builtin = rng.choice(BUILTINS)
    jobs = {"lint": job("lint", lint_body(builtin, rng.choice(BUILTIN_LINT_NODES))),
            "boundness": job("boundness", boundness_body(builtin, rng.choice(BUILTIN_BOUNDNESS_NODES))),
            "cover": job("cover", cover_body(builtin))}
    rng.shuffle(kinds)
    on_builtin = [jobs[k] for k in kinds]

    sequences = known + [new_credit, new_timer, on_builtin]
    for i in range(12):
        protocol, channel = SIMULATE_SLOTS[i % len(SIMULATE_SLOTS)]
        sequences.append([job("simulate", {
            "protocol": protocol, "channel": channel, "messages": 1000, "pace": 3,
            "seed": rng.choice(pool), "max_rounds": 500000})])
    for _ in range(2):
        sequences.append([job("fuzz", {
            "protocol": "stenning", "iterations": 60, "steps": 60, "submits": 4,
            "seed": rng.choice(pool), "shrink": False, "batches": 1})])
    rng.shuffle(sequences)
    return sequences
