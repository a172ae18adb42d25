"""Seeded generators for the benchmark's I-SQL inputs.

Everything the engine under test receives is produced here from the
workload seed: the same seed gives byte-identical SQL. The files written
into a work directory are

  setup.sql     the script that loads the data and builds the world-set
  mix.tsv       analysts: one closed-loop pass, `<class>\\t<statement>`
  requests.tsv  wire: `<rung>\\t<due_us>\\t<class>:<kind>\\t<statement>`
  check.tsv     wire: the final-state queries compared with the replay
"""

import random

# Statement classes. Every workload runs all five, so every end-to-end
# metric is measured on every workload.
CLASSES = ("fast", "agg", "assert", "group", "write")

ANALYST = {
    "keys": 11,          # R: 11 keys x 2 tuples -> 2^11 repairs
    "choice_groups": 2,  # C: choice of G over 2 groups -> x2 = 4 096 worlds
    "ledger_rows": 200,  # L: certain relation filtered by `fast`
    "notes_rows": 4,     # N: the small certain relation `write` edits
}

WIRE = {
    # I: 2^6 repairs x 2 choices = 128 worlds. Every write rewrites the
    # relations it touches (shadow paging), so a larger world-set makes
    # each write cost more disk than a run can afford.
    "keys": 6,
    "choice_groups": 2,
    "ledger_rows": 4_000,      # E: the large certain relation
    "pool_pages": 8,           # 64 KiB buffer pool, several times below the data
    "conns": 4,                # 1 writer + 3 reader connections
    "rates": (50, 100, 200),   # offered requests/s, one rung each
    "rung_share": (0.25, 0.5, 0.25),  # share of the run each rung lasts
    "nominal": 1,              # the rung latencies are read at
    "read_p99_limit_ms": 50.0,
    "write_share": 0.10,
}


def _key_violating(rng, name, keys, lines):
    """R(K, V, W): `keys` key groups of two tuples with distinct V."""
    rows = []
    for k in range(keys):
        v1, v2 = rng.sample(range(100), 2)
        rows.append((k, v1, rng.randint(1, 9)))
        rows.append((k, v2, rng.randint(1, 9)))
    lines.append(f"create table {name} (K integer, V integer, W integer);")
    lines.append(f"insert into {name} values " +
                 ", ".join(f"({k}, {v}, {w})" for k, v, w in rows) + ";")
    lines.append(f"create table I as select K, V from {name} "
                 "repair by key K weight W;")
    return rows


def _choice(rng, groups, lines):
    rows = []
    for g in range(1, groups + 1):
        for c in range(rng.randint(2, 3)):
            rows.append((g, f"c{g}{c}"))
    lines.append("create table S (G integer, C text);")
    lines.append("insert into S values " +
                 ", ".join(f"({g}, '{c}')" for g, c in rows) + ";")
    lines.append("create table C as select G, C from S choice of G;")


def _ledger(rng, name, n, lines):
    lines.append(f"create table {name} (ID integer, X integer, T text);")
    rows = [(i, rng.randint(0, 999), f"t{i % 97}") for i in range(1, n + 1)]
    lines.append(f"insert into {name} values " +
                 ", ".join(f"({i}, {x}, '{t}')" for i, x, t in rows) + ";")
    return rows


def _reads(rng, r_rows, ledger):
    """Read statement makers per class over I, C and the certain ledger.
    Thresholds are fixed, so every seed asks for the same selectivity."""
    lo = min(v for _, v, _ in r_rows) + 3  # `exists V < lo` keeps worlds
    # A value whose key's other tuple differs: `not exists V = d` drops
    # only the worlds that pick it, never all of them.
    d = r_rows[2 * rng.randrange(len(r_rows) // 2)][1]
    return {
        "fast": [
            lambda: "select possible K, V from I where V < 50;",
            lambda: "select certain K from I where V > 20;",
            lambda: "select conf, K, V from I where K < 4;",
            lambda: (f"select certain ID, X from {ledger} "
                     f"where X = {rng.randint(0, 999)};"),
            lambda: f"select certain count(*) from {ledger} where X < 500;",
            lambda: "select possible G, C from C;",
        ],
        "agg": [
            lambda: "select possible sum(V) from I;",
            lambda: "select certain count(*) from I where V > 50;",
        ],
        "assert": [
            lambda: ("select possible K, V from I where V > 50 "
                     f"assert exists (select * from I where V < {lo});"),
            lambda: ("select conf, K from I where V > 50 "
                     f"assert not exists (select * from I where V = {d});"),
        ],
        "group": [
            lambda: ("select possible K from I where V > 90 group worlds by "
                     "(select count(*) from I where V > 50);"),
            lambda: ("select conf, G from C group worlds by "
                     "(select count(*) from I where V < 50);"),
        ],
    }


# One analyst pass: (class, template index) in a fixed interleaving.
# Writes are the net-zero quartet below, in order.
ANALYST_PASS = (
    ("fast", 0), ("agg", 0), ("fast", 1), ("write", 0), ("fast", 2),
    ("assert", 0), ("fast", 3), ("write", 1), ("group", 0), ("fast", 4),
    ("write", 2), ("agg", 1), ("fast", 5), ("assert", 1), ("fast", 0),
    ("write", 3), ("group", 1), ("fast", 1),
)


def analyst(seed):
    """(setup.sql, mix lines) of the two analyst workloads."""
    rng = random.Random(f"analyst:{seed}")
    lines = []
    r_rows = _key_violating(rng, "R", ANALYST["keys"], lines)
    _choice(rng, ANALYST["choice_groups"], lines)
    _ledger(rng, "L", ANALYST["ledger_rows"], lines)
    # The writes edit a small relation of their own (in the explicit
    # engine every world gets its own copy of whatever a write touches)
    # and undo themselves within the pass, so every pass sees the same
    # data and must give every statement the same answer.
    notes = _ledger(rng, "N", ANALYST["notes_rows"], lines)
    i = rng.randrange(len(notes)) + 1
    new_id = len(notes) + 1
    writes = [
        f"update N set X = X + 1 where ID = {i};",
        f"insert into N values ({new_id}, {rng.randint(0, 999)}, 'w');",
        f"delete from N where ID = {new_id};",
        f"update N set X = X - 1 where ID = {i};",
    ]
    reads = _reads(rng, r_rows, "L")
    mix = [(cls, writes[k] if cls == "write" else reads[cls][k]())
           for cls, k in ANALYST_PASS]
    return "\n".join(lines) + "\n", mix


def wire(seed, seconds):
    """(setup.sql, requests, checks) of the wire workload."""
    rng = random.Random(f"wire:{seed}")
    lines = []
    r_rows = _key_violating(rng, "R", WIRE["keys"], lines)
    _choice(rng, WIRE["choice_groups"], lines)
    ledger = _ledger(rng, "E", WIRE["ledger_rows"], lines)
    reads = _reads(rng, r_rows, "E")
    read_classes = ["fast"] * 6 + ["agg", "assert", "group"]

    next_id = len(ledger) + 1
    inserted = []  # ledger ids inserted and not yet deleted
    bumped = []    # I keys whose V is raised by one, not yet lowered
    extra = []     # I keys inserted as certain tuples, not yet deleted

    def write():
        """(operation number, statement) of the next write."""
        nonlocal next_id
        op = rng.randrange(6)
        if op == 0 or (op == 1 and not inserted):
            next_id += 1
            inserted.append(next_id)
            return 0, f"insert into E values ({next_id}, {rng.randint(0, 999)}, 'w');"
        if op == 1:
            return 1, f"delete from E where ID = {inserted.pop(0)};"
        if op == 2:
            return 2, f"update E set X = X + 1 where ID = {rng.randint(1, len(ledger))};"
        if (op == 3 or (op == 4 and not bumped)) and len(bumped) < WIRE["keys"]:
            # Each key is raised by at most one at a time, so the asserts'
            # thresholds keep some worlds.
            k = rng.choice([k for k in range(WIRE["keys"]) if k not in bumped])
            bumped.append(k)
            return 3, f"update I set V = V + 1 where K = {k};"
        if op in (3, 4):
            return 4, f"update I set V = V - 1 where K = {bumped.pop(0)};"
        if extra and rng.random() < 0.5:
            return 5, f"delete from I where K = {extra.pop(0)};"
        k = 100 + next_id
        next_id += 1
        extra.append(k)
        # V above the repaired range: the asserts' worlds stay non-empty.
        return 6, f"insert into I values ({k}, {rng.randint(100, 199)});"

    requests = []
    end = 0.0
    for rung, rate in enumerate(WIRE["rates"]):
        t = end
        end = t + seconds * WIRE["rung_share"][rung]
        while True:
            t += rng.expovariate(rate)  # Poisson arrivals
            if t >= end:
                break
            if rng.random() < WIRE["write_share"]:
                cls = "write"
                kind, sql = write()
            else:
                cls = rng.choice(read_classes)
                kind = rng.randrange(len(reads[cls]))
                sql = reads[cls][kind]()
            # The statement kind rides along (`class:kind`), so latencies
            # can be summarized per kind before they are averaged.
            requests.append((rung, int(t * 1e6), f"{cls}:{kind}", sql))
    checks = [
        ("check", "select certain count(*) from E;"),
        ("check", "select certain sum(X) from E;"),
        ("check", "select certain ID, X from E where T = 'w';"),
        ("check", "select conf, K, V from I;"),
        ("check", "select possible sum(V) from I;"),
    ]
    return "\n".join(lines) + "\n", requests, checks
