"""Reproduces the two-writer defect described in perfbench/NOTES.md.

Two clients append to different series of one model at the same time.
When one writer's ingest compacts and republishes the model while the
other writer's request still holds the previous model, the server replaces
the live streaming session with a fresh one: acknowledged points vanish
from `stream-status` and the next append to an open series gets a 422.

Run from the repository root after `bash perfbench/run.sh` has built the
server (or pass the binary's path):

    python3 perfbench/two_writers.py [path/to/graphserve]

Prints what each writer saw and whether the session was lost; exits 0
when the defect reproduced, 1 when it did not.
"""

import http.client
import json
import math
import os
import subprocess
import sys
import threading

CHUNK = 16
APPENDS = 300


def request(addr, method, path, body=None):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, data


def ingest(addr, series, n):
    points = [math.sin(0.3 * (n * CHUNK + i) + series) for i in range(CHUNK)]
    body = json.dumps({"series": series, "points": points})
    return request(addr, "POST", "/models/demo/ingest", body)[0]


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = sys.argv[1] if len(sys.argv) > 1 else os.path.join(target, "release", "graphserve")
    server = subprocess.Popen(
        [binary, "--addr", "127.0.0.1:0", "--demo", "--workers", "2",
         "--refresh-every", "64", "--compact-every", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        addr = None
        for line in server.stderr:
            if "listening on http://" in line:
                addr = line.split("listening on http://", 1)[1].strip()
                break
        if addr is None:
            print("graphserve exited before listening")
            return 2
        threading.Thread(target=lambda: server.stderr.read(), daemon=True).start()

        # Open series 0 and 1 one after the other, then race.
        acked = [0, 0]
        for s in (0, 1):
            if ingest(addr, s, 0) == 200:
                acked[s] += CHUNK
        statuses = [{}, {}]

        def writer(s):
            for n in range(1, APPENDS):
                code = ingest(addr, s, n)
                statuses[s][code] = statuses[s].get(code, 0) + 1
                if code == 200:
                    acked[s] += CHUNK

        threads = [threading.Thread(target=writer, args=(s,)) for s in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        status = json.loads(request(addr, "GET", "/models/demo/stream-status")[1])
        held = status.get("points_total", 0)
        for s in (0, 1):
            print(f"writer {s}: answers {statuses[s]}, {acked[s]} points acknowledged")
        print(f"stream-status points_total {held}, acknowledged {sum(acked)}, "
              f"compactions {status.get('compactions')}")
        lost = held != sum(acked) or any(422 in st for st in statuses)
        print("session lost: defect reproduced" if lost else "session intact: not reproduced")
        return 0 if lost else 1
    finally:
        server.kill()
        server.wait()


if __name__ == "__main__":
    sys.exit(main())
