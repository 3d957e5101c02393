#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "common/log.hh"
#include "common/parse.hh"
#include "obs/json.hh"

namespace membw {

namespace {

/** Reject typo'd field names instead of silently ignoring them — a
 * client asking for "no_colapse" must not get a collapsed sweep. */
void
checkKnownFields(const JsonValue &doc,
                 std::initializer_list<const char *> allowed)
{
    for (const auto &[key, value] : doc.object) {
        (void)value;
        const bool known =
            std::any_of(allowed.begin(), allowed.end(),
                        [&](const char *a) { return key == a; });
        if (!known)
            fatal("unknown request field '" + key + "'");
    }
}

std::string
stringField(const JsonValue &doc, const char *key,
            const std::string &def)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return def;
    if (!v->isString())
        fatal(std::string("request field '") + key +
              "' must be a string");
    return v->string;
}

bool
boolField(const JsonValue &doc, const char *key, bool def)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return def;
    if (v->kind != JsonValue::Kind::Bool)
        fatal(std::string("request field '") + key +
              "' must be a boolean");
    return v->boolean;
}

double
doubleField(const JsonValue &doc, const char *key, double def)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return def;
    if (!v->isNumber() || !std::isfinite(v->number))
        fatal(std::string("request field '") + key +
              "' must be a finite number");
    return v->number;
}

double
scaleField(const JsonValue &doc, double def)
{
    Result<double> v = tryParseScale(doubleField(doc, "scale", def));
    if (!v.ok())
        fatal("request field 'scale': " + v.error().message);
    return v.value();
}

std::uint64_t
u64Field(const JsonValue &doc, const char *key, std::uint64_t def)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return def;
    if (!v->isNumber() || v->number < 0 ||
        v->number != std::floor(v->number))
        fatal(std::string("request field '") + key +
              "' must be a non-negative integer");
    return static_cast<std::uint64_t>(v->number);
}

int
intField(const JsonValue &doc, const char *key, int def)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return def;
    if (!v->isNumber() || v->number != std::floor(v->number))
        fatal(std::string("request field '") + key +
              "' must be an integer");
    return static_cast<int>(v->number);
}

/** Byte sizes accept either a number (bytes) or a suffixed string
 * ("64K"), matching the CLI flags. */
Bytes
sizeField(const JsonValue &doc, const char *key, Bytes def)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return def;
    if (v->isNumber()) {
        if (v->number <= 0 || v->number != std::floor(v->number))
            fatal(std::string("request field '") + key +
                  "' must be a positive byte count");
        return static_cast<Bytes>(v->number);
    }
    if (v->isString()) {
        Result<Bytes> parsed = tryParseSize(v->string);
        if (!parsed.ok())
            fatal(std::string("request field '") + key + "': " +
                  parsed.error().describe());
        return parsed.value();
    }
    fatal(std::string("request field '") + key +
          "' must be a byte size (number or \"64K\" string)");
}

std::vector<Bytes>
sizeListField(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return {};
    if (!v->isString())
        fatal(std::string("request field '") + key +
              "' must be a comma-separated size string");
    Result<std::vector<Bytes>> parsed = tryParseSizeList(v->string);
    if (!parsed.ok())
        fatal(std::string("request field '") + key + "': " +
              parsed.error().describe());
    return std::move(parsed.value());
}

SweepRequest
parseSweepFields(const JsonValue &doc)
{
    checkKnownFields(
        doc, {"op", "workload", "label", "scale", "seed", "sizes",
              "blocks", "mtc", "stable", "no_collapse", "watchdog",
              "size", "assoc", "block", "sector", "repl", "write",
              "alloc", "prefetch", "stream_buffers", "stream_depth"});
    SweepRequest req;
    req.workload = stringField(doc, "workload", "");
    if (req.workload.empty())
        fatal("sweep request requires a 'workload' field");
    req.label = stringField(doc, "label", "");
    req.scale = scaleField(doc, req.scale);
    req.seed = u64Field(doc, "seed", req.seed);
    req.sizes = sizeListField(doc, "sizes");
    if (req.sizes.empty())
        fatal("sweep request requires a 'sizes' field (\"1K,64K\")");
    req.blocks = sizeListField(doc, "blocks");
    req.runMtc = boolField(doc, "mtc", false);
    req.stableJson = boolField(doc, "stable", false);
    req.noCollapse = boolField(doc, "no_collapse", false);
    req.eventBudget = u64Field(doc, "watchdog", req.eventBudget);

    req.l1.size = sizeField(doc, "size", req.l1.size);
    req.l1.assoc = static_cast<unsigned>(
        u64Field(doc, "assoc", req.l1.assoc));
    req.l1.blockBytes = sizeField(doc, "block", req.l1.blockBytes);
    req.l1.sectorBytes = sizeField(doc, "sector", req.l1.sectorBytes);
    if (const std::string v = stringField(doc, "repl", "");
        !v.empty()) {
        req.l1.repl = v == "lru"    ? ReplPolicy::LRU
                      : v == "fifo" ? ReplPolicy::FIFO
                      : v == "random"
                          ? ReplPolicy::Random
                          : (fatal("bad 'repl' value '" + v +
                                   "': expected lru, fifo, or random"),
                             ReplPolicy::LRU);
    }
    if (const std::string v = stringField(doc, "write", "");
        !v.empty()) {
        req.l1.write = v == "wb"   ? WritePolicy::WriteBack
                       : v == "wt" ? WritePolicy::WriteThrough
                                   : (fatal("bad 'write' value '" + v +
                                            "': expected wb or wt"),
                                      WritePolicy::WriteBack);
    }
    if (const std::string v = stringField(doc, "alloc", "");
        !v.empty()) {
        req.l1.alloc = v == "wa"    ? AllocPolicy::WriteAllocate
                       : v == "wna" ? AllocPolicy::WriteNoAllocate
                       : v == "wv"
                           ? AllocPolicy::WriteValidate
                           : (fatal("bad 'alloc' value '" + v +
                                    "': expected wa, wna, or wv"),
                              AllocPolicy::WriteAllocate);
    }
    req.l1.taggedPrefetch = boolField(doc, "prefetch", false);
    req.l1.streamBuffers = static_cast<unsigned>(
        u64Field(doc, "stream_buffers", req.l1.streamBuffers));
    req.l1.streamDepth = static_cast<unsigned>(
        u64Field(doc, "stream_depth", req.l1.streamDepth));
    return req;
}

DecomposeRequest
parseDecomposeFields(const JsonValue &doc)
{
    checkKnownFields(doc, {"op", "workload", "experiment", "spec95",
                           "scale", "seed", "stable", "watchdog",
                           "mshrs", "window", "issue_width",
                           "no_prefetch", "l1l2_bus", "mem_bus",
                           "dram"});
    DecomposeRequest req;
    req.workload = stringField(doc, "workload", "");
    if (req.workload.empty())
        fatal("decompose request requires a 'workload' field");
    const std::string letter =
        stringField(doc, "experiment", std::string(1, req.letter));
    const Result<char> parsed = tryParseExperiment(letter);
    if (!parsed.ok())
        fatal("bad 'experiment' value '" + letter +
              "': expected a letter A-F");
    req.letter = parsed.value();
    req.spec95 = boolField(doc, "spec95", false);
    req.scale = scaleField(doc, req.scale);
    req.seed = u64Field(doc, "seed", req.seed);
    req.stableJson = boolField(doc, "stable", false);
    req.watchdogCycles = u64Field(doc, "watchdog", req.watchdogCycles);
    req.overrides.mshrs = intField(doc, "mshrs", -1);
    req.overrides.window = intField(doc, "window", -1);
    req.overrides.width = intField(doc, "issue_width", -1);
    req.overrides.noPrefetch = boolField(doc, "no_prefetch", false);
    req.overrides.l1l2 = intField(doc, "l1l2_bus", -1);
    req.overrides.membus = intField(doc, "mem_bus", -1);
    if (const std::string v = stringField(doc, "dram", "");
        !v.empty()) {
        if (v != "fpm" && v != "edo" && v != "sdram" && v != "rdram")
            fatal("bad 'dram' value '" + v +
                  "': expected fpm, edo, sdram, or rdram");
        req.overrides.dram = v;
    }
    return req;
}

} // namespace

const char *
serveOpName(ServeOp op)
{
    switch (op) {
      case ServeOp::Ping: return "ping";
      case ServeOp::Stats: return "stats";
      case ServeOp::Shutdown: return "shutdown";
      case ServeOp::Sweep: return "sweep";
      case ServeOp::Decompose: return "decompose";
    }
    return "unknown";
}

ServeRequest
parseServeRequest(std::string_view line)
{
    const JsonValue doc = parseJson(line);
    if (!doc.isObject())
        fatal("request must be a JSON object");
    const JsonValue *opField = doc.find("op");
    if (!opField || !opField->isString())
        fatal("request requires a string 'op' field");
    const std::string &op = opField->string;

    ServeRequest req;
    if (op == "ping" || op == "stats" || op == "shutdown") {
        checkKnownFields(doc, {"op"});
        req.op = op == "ping"    ? ServeOp::Ping
                 : op == "stats" ? ServeOp::Stats
                                 : ServeOp::Shutdown;
    } else if (op == "sweep") {
        req.op = ServeOp::Sweep;
        req.sweep = parseSweepFields(doc);
    } else if (op == "decompose") {
        req.op = ServeOp::Decompose;
        req.decompose = parseDecomposeFields(doc);
    } else {
        fatal("unknown op '" + op +
              "': expected ping, stats, shutdown, sweep, or "
              "decompose");
    }
    return req;
}

std::string
serveRequestKey(const ServeRequest &req)
{
    switch (req.op) {
      case ServeOp::Sweep:
        return sweepRequestKey(req.sweep); // self-prefixed "sweep|"
      case ServeOp::Decompose:
        return decomposeRequestKey(req.decompose);
      default:
        return serveOpName(req.op);
    }
}

std::string
okEnvelope(ServeOp op, bool cached, int exitCode,
           std::string_view body)
{
    std::string out = "{\"status\":\"ok\",\"op\":\"";
    out += serveOpName(op);
    out += "\",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"exit\":";
    out += std::to_string(exitCode);
    out += ",\"body\":";
    out += jsonEscape(body);
    out += "}";
    return out;
}

std::string
busyEnvelope(ServeOp op, std::size_t queued, std::size_t capacity)
{
    std::string out = "{\"status\":\"busy\",\"op\":\"";
    out += serveOpName(op);
    out += "\",\"queued\":";
    out += std::to_string(queued);
    out += ",\"capacity\":";
    out += std::to_string(capacity);
    out += "}";
    return out;
}

std::string
errorEnvelope(ServeOp op, std::string_view message)
{
    return errorEnvelope(std::string_view(serveOpName(op)), message);
}

std::string
errorEnvelope(std::string_view opName, std::string_view message)
{
    std::string out = "{\"status\":\"error\",\"op\":\"";
    out += opName;
    out += "\",\"error\":";
    out += jsonEscape(message);
    out += "}";
    return out;
}

} // namespace membw
