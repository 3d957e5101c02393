#include "obs/export.hh"

#include <cstdio>

#include "common/log.hh"
#include "common/table.hh"
#include "resilience/guarded_io.hh"

namespace membw {

std::string
exportText(const StatsRegistry &registry)
{
    TextTable t;
    t.header({"stat", "value", "unit", "description"});
    for (const auto &stat : registry.stats())
        t.row({stat->name(), stat->valueString(), stat->unit(),
               stat->desc()});
    return t.render();
}

void
writeStatsArray(const StatsRegistry &registry, JsonWriter &w)
{
    w.beginArray();
    for (const auto &stat : registry.stats()) {
        w.beginObject();
        w.field("name", stat->name());
        w.field("kind", toString(stat->kind()));
        stat->jsonFields(w);
        if (!stat->unit().empty())
            w.field("unit", stat->unit());
        w.field("desc", stat->desc());
        w.endObject();
    }
    w.endArray();
}

std::string
exportJson(const StatsRegistry &registry)
{
    JsonWriter w;
    w.beginObject();
    w.key("stats");
    writeStatsArray(registry, w);
    w.endObject();
    return w.str();
}

namespace {

/** CSV-quote when a cell contains a delimiter or quote. */
std::string
csvCell(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

std::string
exportCsv(const StatsRegistry &registry)
{
    std::string out = "name,kind,value,unit,description\n";
    for (const auto &stat : registry.stats()) {
        out += csvCell(stat->name());
        out += ',';
        out += toString(stat->kind());
        out += ',';
        out += csvCell(stat->valueString());
        out += ',';
        out += csvCell(stat->unit());
        out += ',';
        out += csvCell(stat->desc());
        out += '\n';
    }
    return out;
}

void
writeFileOrDie(const std::string &path, const std::string &contents)
{
    // Atomic tmp+rename with retry: every artifact funnelled through
    // here (--stats-json, --trace-out, --profile-out, bench --json)
    // is either the complete new file or untouched, never a prefix.
    (void)GuardedFile::writeAtomic(path, contents).orDie();
}

std::string
readFileOrDie(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open '" + path + "' for reading");
    std::string out;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool bad = std::ferror(f);
    std::fclose(f);
    if (bad)
        fatal("cannot read '" + path + "'");
    return out;
}

} // namespace membw
