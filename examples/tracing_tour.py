#!/usr/bin/env python3
"""One traced toolchain pass: parse → preselect → translate → run,
with a registry round trip, exported as a Chrome trace.

A single :class:`repro.Session` carries the tracer through every layer:

1. registry round trip — publish + fetch the Figure-5 GPU descriptor
   over real HTTP; the ``X-Repro-Trace-Id`` header stitches the client
   and server spans into one trace,
2. translate          — the Cascabel phases (lex/parse/select/lower/
   codegen) under one ``cascabel.translate`` span,
3. run                — the simulated tiled DGEMM; the runtime bridges
   its simulated-time ``TraceLog`` into sim-clock spans next to the
   wall-clock toolchain spans (built when first read),
4. export             — Chrome trace-event JSON to ``figure5_trace.json``
   (open it at https://ui.perfetto.dev or in ``chrome://tracing``),
   checked to hold one sim event per task, transfer and fault, then the
   text tree to stdout.

Run:  python examples/tracing_tour.py
"""

import json

import repro
from repro.experiments import submit_tiled_dgemm
from repro.pdl import write_pdl
from repro.service import RegistryClient, ServerThread

PROGRAM = """\
#pragma cascabel task : x86 : Idgemm : dgemm_cpu : (C: readwrite, A: read, B: read)
void matmul(double *C, double *A, double *B) { }

#pragma cascabel task : cuda,opencl : Idgemm : dgemm_gpu : (C: readwrite, A: read, B: read)
void matmul_gpu(double *C, double *A, double *B) { }

int main(void) {
    double *C, *A, *B;
    #pragma cascabel execute Idgemm : executionset01 (C:BLOCK:N, A:BLOCK:N, B:BLOCK:N)
    matmul(C, A, B);
    return 0;
}
"""

TRACE_PATH = "figure5_trace.json"


def main():
    session = repro.Session(trace=True)

    # ---- 1. registry round trip (client + server share one trace) -------
    with session, ServerThread() as url:
        client = RegistryClient(url)
        client.publish("fig5-gpubox", write_pdl(repro.load_platform("xeon_x5550_2gpu")))
        session.use(client.platform("fig5-gpubox"))

    # ---- 2 + 3. translate, then run the Figure-5 workload ----------------
    result = session.translate(PROGRAM, filename="dgemm.c")
    print(f"translated via backend {result.backend_name!r};"
          f" selected {list(result.selection.selected)}")

    run = session.run(lambda engine: submit_tiled_dgemm(engine, 4096, 1024))
    print(f"simulated makespan: {run.makespan * 1e3:.2f} ms"
          f" over {run.task_count} tasks\n")

    # ---- 4. export --------------------------------------------------------
    # the Chrome trace is the first read of the tracer, so it alone must
    # build the run's deferred sim spans
    session.write_chrome_trace(TRACE_PATH)
    with open(TRACE_PATH, "r", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]

    print("== span tree ==")
    print(session.render_trace(attributes=False))

    spans = [sp for sp in session.tracer.finished()]
    client_span = next(s for s in spans if s.name == "registry.client.request")
    server_span = next(s for s in spans if s.name == "registry.server.request")
    assert client_span.trace_id == server_span.trace_id

    # one sim-clock event per task, transfer and fault the run recorded
    sim_events = sum(1 for e in events if e.get("cat") == "sim")
    expected = run.task_count + run.transfer_count + len(run.trace.faults)
    assert sim_events == expected, (
        f"{TRACE_PATH} holds {sim_events} sim events, the run recorded {expected}"
    )

    print(f"\nwrote {TRACE_PATH}: {len(events)} trace events"
          f" (open in chrome://tracing or https://ui.perfetto.dev)")
    print(f"registry round trip trace id: {client_span.trace_id}"
          f" (client span {client_span.span_id},"
          f" server span {server_span.span_id})")


if __name__ == "__main__":
    main()
