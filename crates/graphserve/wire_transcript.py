#!/usr/bin/env python3
"""Drive `graphserve --demo` through a fixed request sequence and write every
answer verbatim (status line, headers, body) to a transcript file.

The sequence covers every route, CSV answers, a batch with a failing row,
both graphoid kinds, SVG and ASCII renders, ingests across compactions with
a durable state directory, a small fit and delete, names that need escaping
and the malformed-body table of tests/malformed_bodies.rs. Run it against
two builds and compare the transcripts to show that their answers are
byte-identical:

    python3 crates/graphserve/wire_transcript.py target/release/graphserve a.txt

The one wall-clock figure in any answer, `graphserve_recovery_duration_ms`,
is masked together with the length of the answer that carries it.
"""
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import time

binary, out_path = sys.argv[1], sys.argv[2]
tmp = tempfile.mkdtemp(prefix="gs-transcript-")
port_file = os.path.join(tmp, "port")
state = os.path.join(tmp, "state")
proc = subprocess.Popen(
    [binary, "--addr", "127.0.0.1:0", "--demo", "--port-file", port_file,
     "--workers", "2", "--refresh-every", "32", "--compact-every", "2",
     "--state-dir", state, "--snapshot-every", "1"],
    stderr=subprocess.DEVNULL)
try:
    for _ in range(600):
        if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
            break
        time.sleep(0.1)
    host, port = open(port_file).read().strip().rsplit(":", 1)
    port = int(port)
    out = open(out_path, "wb")

    def send(method, target, body=b"", headers=()):
        if isinstance(body, str):
            body = body.encode()
        head = f"{method} {target} HTTP/1.1\r\nhost: x\r\ncontent-length: {len(body)}\r\n"
        for k, v in headers:
            head += f"{k}: {v}\r\n"
        raw = head.encode() + b"\r\n" + body
        s = socket.create_connection((host, port))
        s.sendall(raw)
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
        s.close()
        resp = b"".join(chunks)
        if b"graphserve_recovery_duration_ms" in resp:
            resp = re.sub(rb"(graphserve_recovery_duration_ms) \d+", rb"\1 <ms>", resp)
            resp = re.sub(rb"content-length: \d+", rb"content-length: <n>", resp)
        out.write(f"=== {method} {target} ({len(body)} B)\n".encode())
        out.write(resp)
        out.write(b"\n")
        return resp

    def arr(xs):
        return "[" + ",".join(repr(float(x)) for x in xs) + "]"

    wave = [math.sin(i * 0.3) for i in range(128)]
    spike = [math.sin(i * 0.3) + (3.0 if 60 <= i < 70 else 0.0) for i in range(128)]
    csv = ",".join(repr(x) for x in wave)

    for path in ["/health", "/healthz", "/models", "/models/demo", "/models/nope"]:
        send("GET", path)
    send("POST", "/models/demo/score?context=5", arr(wave))
    send("POST", "/models/demo/score", arr(spike))
    send("POST", "/models/demo/score?context=3", '{"series":' + arr(spike) + "}")
    send("POST", "/models/demo/score", csv, [("accept", "text/csv")])
    send("POST", "/models/demo/score?context=1", arr(spike), [("accept", "text/csv")])
    send("POST", "/models/demo/score?context=x", arr(wave))
    send("POST", "/models/demo/features", arr(wave))
    send("POST", "/models/demo/features", csv, [("accept", "text/csv")])
    send("POST", "/models/demo/predict", arr(wave))
    send("POST", "/models/demo/predict", arr(spike), [("content-type", "application/json")])
    send("POST", "/models/demo/predict", "[1,2,3]")
    batch = "[" + ",".join([arr(wave), "[1,2,3]", arr(spike)]) + "]"
    for op in ["score", "features", "predict"]:
        send("POST", f"/models/demo/batch?op={op}&context=3", batch)
    send("POST", "/models/demo/batch", '{"series":' + batch + "}")
    send("POST", "/models/demo/batch?op=predict", csv + "\n" + ",".join(repr(x) for x in spike))
    send("POST", "/models/demo/batch?op=nope", batch)
    for q in ["cluster=0", "cluster=1&kind=gamma&threshold=0.3", "cluster=2&kind=lambda",
              "cluster=0&kind=lambda&threshold=0.05", "cluster=1&kind=lambda&threshold=1e-3",
              "cluster=9", "kind=delta", "threshold=abc", "cluster=-1"]:
        send("GET", f"/models/demo/graphoid?{q}")
    for q in ["format=svg", "", "detail=glyph", "detail=aggregated&layout=circular",
              "detail=full&layout=exact", "budget=50", "layout=bh", "format=ascii",
              "format=png", "detail=bogus", "layout=bogus", "budget=x"]:
        send("GET", f"/models/demo/render?{q}")
    send("GET", "/models/demo/stream-status")
    for i in range(6):
        send("POST", "/models/demo/ingest", '{"series":0,"points":' + arr(wave[i * 20:(i + 1) * 20]) + "}")
        send("POST", "/models/demo/ingest?series=1", arr(spike[i * 20:(i + 1) * 20]))
        send("GET", "/models/demo/stream-status")
    send("POST", "/models/demo/ingest", ",".join(repr(x) for x in wave[:40]), [])
    send("POST", "/models/demo/ingest?series=7", "[1,2,3]")
    send("POST", "/models/demo/ingest", '{"series":2,"points":[1,2,3]}')
    send("GET", "/models/demo/stream-status")
    send("GET", "/models/demo")
    send("POST", "/models/demo/score", arr(spike))
    fit = "\n".join(",".join(repr(math.sin((i + p) * 0.4)) for i in range(40)) for p in range(6))
    send("PUT", "/models/small?k=2&seed=7", fit)
    send("GET", "/models")
    send("GET", "/models/small")
    send("POST", "/models/small/predict", arr(wave[:40]))
    send("PUT", "/models/small?k=0", fit)
    send("PUT", "/models/small?k=9", fit)
    send("PUT", "/models/small?k=x", fit)
    send("PUT", "/models/tiny", "1,2\n3,4")
    send("PUT", '/models/a:b?k=2', fit)
    send("PUT", '/models/q"u\\o?k=2', fit)
    send("GET", "/healthz")
    send("POST", "/models/a:b/ingest", arr(wave[:40]))
    send("GET", "/models/a:b/stream-status")
    send("DELETE", "/models/small")
    send("DELETE", "/models/small")
    send("DELETE", '/models/q"u\\o')
    send("DELETE", "/models/a:b")
    send("GET", "/healthz")
    send("GET", "/debug/sleep?ms=1")
    send("GET", "/debug/panic")
    send("PATCH", "/models/demo")
    send("POST", "/health")
    send("GET", "/nope")

    # The bodies of tests/malformed_bodies.rs, to each of its six routes.
    rows_4097 = "[" + "[1]," * 4096 + "[1]]"
    bodies = [
        (b"[1,\xff,3]", None), (b"1,2,\xfe", None), (b"[1,2,", None),
        (b'{"series" [1]}', None), (b"[1,2] x", None), (b"1,2,3", "application/json"),
        (b'[1,"x",3]', None), (b'[[1,2],[1,"x",3]]', None), (b'{"series":[1,null]}', None),
        (b"[]", None), (b"", None), (b"  \n \r\n", None), (b'{"series":[]}', None),
        (b'{"series":0,"points":[]}', None), (b"[[]]", None), (b"1,2,x", None),
        (b"1,2,3\n4,five,6", None), (b"1,NaN,3", None), (b"1,2,inf", None), (b"-inf,2", None),
        (b"[1,1e999]", None), (b"[1,2,1e308]", None), (b"[[1,2],[3,-1e308]]", None),
        (b"1,2\n3,1e101", None), (rows_4097.encode(), None),
        (b'{"series":-1,"points":[1,2]}', None), (b'{"series":1.5,"points":[1,2]}', None),
        (b'{"series":"0","points":[1,2]}', None), (b'{"series":-1}', None),
        (b'{"values":[1,2]}', None), (b'{"series":5}', None),
    ]
    routes = [("POST", "/models/demo/score"), ("POST", "/models/demo/features"),
              ("POST", "/models/demo/predict"), ("POST", "/models/demo/batch"),
              ("PUT", "/models/fresh"), ("POST", "/models/demo/ingest")]
    for body, ct in bodies:
        for method, path in routes:
            send(method, path, body, [("content-type", ct)] if ct else [])
    for method, path in routes[3:5]:
        send(method, path, "1\n" * 4097)
    send("GET", "/models/demo/stream-status")
    send("GET", "/metrics")
    out.close()
finally:
    proc.kill()
    proc.wait()
    shutil.rmtree(tmp, ignore_errors=True)
