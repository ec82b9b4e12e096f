#!/usr/bin/env python3
"""CI smoke for focq_serve: concurrent clients == serial replay, bit for bit.

Starts focq_serve over a small structure, drives several concurrent
`focq_serve --client` processes with mixed batches (checks, counts, terms
and updates — including statements that fail to apply, to parse and to
resolve a symbol), then:

  1. collects every response line `seq S req I <kind>: <text>`,
  2. asserts the admission sequence numbers form a total order,
  3. replays the same statements, sorted by seq, through a serial
     `focq_cli --batch` run over the same structure file, and
  4. requires every response text to match the serial replay exactly —
     errors included.

Repeated for server thread counts {0, 1, 4}. Also scrapes the OpenMetrics
endpoint and validates the exposition with tools/check_openmetrics.py.

With --logreplay the server additionally writes a structured query log and
a chrome://tracing export each round; after shutdown the log is replayed
with focq_logreplay, which must reproduce every result digest bit for bit
(the DESIGN.md section 3g round-trip contract). With --artifacts DIR the
per-round query logs / trace files land in DIR instead of a temp dir, so
CI can upload them on failure.

Usage: serve_smoke.py --serve build/tools/focq_serve --cli build/tools/focq_cli
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import urllib.request

STRUCTURE = """universe 12
relation E 2
0 1
1 2
2 3
3 4
4 5
5 6
6 7
7 8
8 9
9 10
10 11
"""

# Three clients, mixed workloads. Updates are included on purpose — they
# force the snapshot gate's writer side between concurrent reads — and so
# are statements that fail: at apply time (element 50 is out of bounds), at
# parse time, at symbol resolution (there is no relation Q) and on int64
# overflow inside a numerical predicate (a constant sum, a residual check
# and a per-element count, each OUT_OF_RANGE rather than a server abort),
# because error texts are part of the bit-identity contract and the serial
# focq_cli --batch replay must answer them the same way.
CLIENT_BATCHES = [
    [
        "check exists x. @ge1(#(y). (E(x, y)) - 1)",
        "update insert E 0 7",
        "count @ge1(#(y). (E(x, y)))",
        "term #(x, y). (E(x, y))",
        "update delete E 0 7",
        "count @ge1(#(y). (E(x, y)))",
    ],
    [
        "term #(x, y). (E(x, y))",
        "update insert E 2 9",
        "check exists x. E(x, x)",
        "update insert E 2 9",
        "term #(x). (@ge1(#(y). (E(x, y)) - 2))",
    ],
    [
        "count E(x, y)",
        "update insert E 0 50",
        "check (((broken",
        "check @ge1(9223372036854775807 + 1)",
        "update delete E 4 5",
        "count Q(x)",
        "check @ge1(9223372036854775807 * #(y). (exists z. (E(y, z))))",
        "count @ge1(9223372036854775807 * #(y). (E(x, y) | E(y, x)))",
        "count E(x, y)",
    ],
]

RESPONSE_RE = re.compile(r"^seq (\d+) req (\d+) (\w+): (.*)$")


def fail(msg):
    print("serve_smoke: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def run_client(serve_bin, port, batch_path, results, index):
    proc = subprocess.run(
        [serve_bin, "--client", str(port), "--batch", batch_path],
        capture_output=True, text=True, timeout=120)
    results[index] = proc


def one_round(serve_bin, cli_bin, structure_path, threads, workdir,
              logreplay_bin=None):
    qlog_path = os.path.join(workdir, "qlog-t%d.jsonl" % threads)
    trace_path = os.path.join(workdir, "trace-t%d.json" % threads)
    command = [serve_bin, structure_path, "--threads", str(threads),
               "--metrics-port", "0"]
    if logreplay_bin:
        command += ["--query-log", qlog_path, "--trace-json", trace_path]
    server = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        port = metrics_port = None
        while port is None or metrics_port is None:
            line = server.stdout.readline()
            if not line:
                fail("server exited before announcing its ports")
            m = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
            if m:
                port = int(m.group(1))
            m = re.search(r"metrics on 127\.0\.0\.1:(\d+)", line)
            if m:
                metrics_port = int(m.group(1))

        batch_paths = []
        for i, batch in enumerate(CLIENT_BATCHES):
            path = os.path.join(workdir, "client%d.batch" % i)
            with open(path, "w") as f:
                f.write("\n".join(batch) + "\n")
            batch_paths.append(path)

        results = [None] * len(CLIENT_BATCHES)
        workers = [
            threading.Thread(target=run_client,
                             args=(serve_bin, port, batch_paths[i], results, i))
            for i in range(len(CLIENT_BATCHES))
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        # (seq, statement, response_text) from every client.
        observed = []
        for i, proc in enumerate(results):
            if proc is None:
                fail("client %d did not run" % i)
            for line in proc.stdout.splitlines():
                m = RESPONSE_RE.match(line)
                if not m:
                    fail("client %d: unparseable line %r" % (i, line))
                seq, req_id, text = int(m.group(1)), int(m.group(2)), m.group(4)
                observed.append((seq, CLIENT_BATCHES[i][req_id - 1], text))

        total = sum(len(b) for b in CLIENT_BATCHES)
        if len(observed) != total:
            fail("threads=%d: expected %d responses, got %d"
                 % (threads, total, len(observed)))
        observed.sort()
        seqs = [seq for seq, _, _ in observed]
        if len(set(seqs)) != len(seqs):
            fail("threads=%d: duplicate admission seq" % threads)

        # Serial replay of the admission order through one focq_cli session.
        replay_path = os.path.join(workdir, "replay.batch")
        with open(replay_path, "w") as f:
            for _, statement, _ in observed:
                f.write(statement + "\n")
        replay = subprocess.run(
            [cli_bin, structure_path, "--threads", str(threads),
             "--batch", replay_path],
            capture_output=True, text=True, timeout=120)
        replay_lines = [l for l in replay.stdout.splitlines()
                        if l.startswith("line ")]
        if len(replay_lines) != total:
            fail("threads=%d: serial replay produced %d lines, want %d\n%s"
                 % (threads, len(replay_lines), total, replay.stdout))
        for n, ((seq, statement, text), line) in enumerate(
                zip(observed, replay_lines), start=1):
            m = re.match(r"^line (\d+): \w+: (.*)$", line)
            if not m or int(m.group(1)) != n:
                fail("replay line out of order: %r" % line)
            if m.group(2) != text:
                fail("threads=%d seq=%d %r: server said %r, serial replay "
                     "said %r" % (threads, seq, statement, text, m.group(2)))

        # The scrape endpoint must serve a valid exposition, including the
        # request-lifecycle depth added in DESIGN.md section 3g: per-kind
        # latency families, queue/gate wait distributions, live gauges.
        with urllib.request.urlopen(
                "http://127.0.0.1:%d/metrics" % metrics_port, timeout=30) as r:
            body = r.read().decode("utf-8")
        if "focq_serve_requests_total" not in body:
            fail("scrape is missing serve counters")
        for family in ("focq_dist_serve_request_ns_count",
                       "focq_dist_serve_request_ns_update",
                       "focq_dist_serve_queue_wait_ns",
                       "focq_dist_serve_gate_wait_ns",
                       "# TYPE focq_serve_queue_depth gauge",
                       "# TYPE focq_serve_inflight gauge",
                       "# TYPE focq_serve_connections_live gauge"):
            if family not in body:
                fail("scrape is missing %r" % family)
        om_path = os.path.join(workdir, "serve.om.txt")
        with open(om_path, "w") as f:
            f.write(body)
        check = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "check_openmetrics.py")
        subprocess.run([sys.executable, check, om_path], check=True)

        down = subprocess.run([serve_bin, "--client", str(port), "--shutdown"],
                              capture_output=True, text=True, timeout=60)
        if down.returncode != 0:
            fail("shutdown client failed: %s" % down.stdout)
        if server.wait(timeout=60) != 0:
            fail("server exited with %d" % server.returncode)

        if logreplay_bin:
            # The query log must replay to bit-identical digests through
            # focq_logreplay (one record per statement; the shutdown client's
            # frames consume seqs but are never logged).
            with open(qlog_path) as f:
                records = [json.loads(line) for line in f if line.strip()]
            if len(records) != total:
                fail("threads=%d: query log has %d records, want %d"
                     % (threads, len(records), total))
            replayed = subprocess.run(
                [logreplay_bin, structure_path, qlog_path,
                 "--threads", str(threads)],
                capture_output=True, text=True, timeout=120)
            if replayed.returncode != 0:
                fail("threads=%d: focq_logreplay exited %d\n%s%s"
                     % (threads, replayed.returncode, replayed.stdout,
                        replayed.stderr))
            if "0 mismatches" not in replayed.stdout:
                fail("threads=%d: focq_logreplay did not verify cleanly\n%s"
                     % (threads, replayed.stdout))
            trace = json.load(open(trace_path))
            events = trace.get("traceEvents", [])
            if not any(e.get("ph") == "X" and "#" in e.get("name", "")
                       for e in events):
                fail("threads=%d: trace export has no lifecycle spans"
                     % threads)
            print("serve_smoke: threads=%d logreplay verified %d digests"
                  % (threads, total))

        print("serve_smoke: threads=%d OK (%d statements, %d clients)"
              % (threads, total, len(CLIENT_BATCHES)))
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True, help="path to focq_serve")
    ap.add_argument("--cli", required=True, help="path to focq_cli")
    ap.add_argument("--logreplay", default=None,
                    help="path to focq_logreplay; enables the query-log "
                         "round-trip check")
    ap.add_argument("--artifacts", default=None,
                    help="directory for query logs / trace exports "
                         "(default: a temp dir removed on exit)")
    ap.add_argument("--threads", default="0,1,4",
                    help="comma-separated server thread counts")
    args = ap.parse_args()

    def run_all(workdir):
        structure_path = os.path.join(workdir, "smoke.fs")
        with open(structure_path, "w") as f:
            f.write(STRUCTURE)
        for threads in [int(t) for t in args.threads.split(",")]:
            one_round(args.serve, args.cli, structure_path, threads, workdir,
                      logreplay_bin=args.logreplay)

    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        run_all(args.artifacts)
    else:
        with tempfile.TemporaryDirectory(prefix="focq-serve-smoke-") as workdir:
            run_all(workdir)
    print("serve_smoke: OK")


if __name__ == "__main__":
    main()
