/**
 * @file
 * membw_served wire protocol: newline-delimited JSON over a Unix
 * domain socket.
 *
 * Requests are single-line JSON objects with an "op" field:
 *
 *   {"op":"ping"}
 *   {"op":"stats"}
 *   {"op":"shutdown"}
 *   {"op":"sweep","workload":"Compress","scale":0.05,"seed":42,
 *    "sizes":"1K,4K,64K","blocks":"32","mtc":true,"stable":true}
 *   {"op":"decompose","workload":"Swm","experiment":"F",
 *    "scale":0.1,"stable":true}
 *
 * Responses are single-line JSON envelopes:
 *
 *   {"status":"ok","op":"sweep","cached":true,"exit":0,
 *    "body":"<full stats-JSON document, escaped>"}
 *   {"status":"busy","op":"sweep","queued":8,"capacity":8}
 *   {"status":"error","op":"sweep","error":"<message>"}
 *
 * The body string is the byte-exact document the equivalent CLI run
 * writes with --stats-json; jsonEscape()/parseJson round-trip it
 * losslessly, so `membw_client --out` + `cmp` is the end-to-end
 * equality test.  "exit" carries the exit-code-contract value the
 * CLI run would have returned (0 ok, 5 degraded).
 *
 * Full sweep-request schema (defaults match the membw_sim flags):
 *   workload (required), scale, seed, sizes (required, "1K,64K"),
 *   blocks ("32,64"), mtc, stable, no_collapse, watchdog, size,
 *   assoc, block, sector, repl ("lru|fifo|random"), write
 *   ("wb|wt"), alloc ("wa|wna|wv"), prefetch, stream_buffers,
 *   stream_depth.
 * Full decompose-request schema:
 *   workload (required), experiment ("A".."F"), spec95, scale, seed,
 *   stable, watchdog, mshrs, window, issue_width, no_prefetch,
 *   l1l2_bus, mem_bus, dram.
 */

#ifndef MEMBW_SERVE_PROTOCOL_HH
#define MEMBW_SERVE_PROTOCOL_HH

#include <string>
#include <string_view>

#include "serve/decompose_service.hh"
#include "serve/sweep_service.hh"

namespace membw {

enum class ServeOp
{
    Ping,
    Stats,
    Shutdown,
    Sweep,
    Decompose,
};

/** Stable lowercase op name for envelopes and logs. */
const char *serveOpName(ServeOp op);

/** A parsed request (the member matching op is meaningful). */
struct ServeRequest
{
    ServeOp op = ServeOp::Ping;
    SweepRequest sweep;
    DecomposeRequest decompose;
};

/** Parse one request line; throws FatalError (with a client-worthy
 * message) on malformed JSON, unknown ops, or bad field values. */
ServeRequest parseServeRequest(std::string_view line);

/** Canonical cache key for a compute request (sweep/decompose). */
std::string serveRequestKey(const ServeRequest &req);

// --- single-line response envelopes ---------------------------------

std::string okEnvelope(ServeOp op, bool cached, int exitCode,
                       std::string_view body);
std::string busyEnvelope(ServeOp op, std::size_t queued,
                         std::size_t capacity);
std::string errorEnvelope(ServeOp op, std::string_view message);
/** For failures before an op is known (parse errors). */
std::string errorEnvelope(std::string_view opName,
                          std::string_view message);

} // namespace membw

#endif // MEMBW_SERVE_PROTOCOL_HH
