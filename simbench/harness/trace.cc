#include "trace.hh"

#include <cstdio>

#include "isolate.hh"

namespace simbench
{

int
Trace::add(std::string name, std::int64_t start, std::int64_t end,
           int parent, std::string tags)
{
    spans_.push_back(
        Span{std::move(name), std::move(tags), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // anonymous namespace

bool
Trace::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"tags\": \"%s\", "
                     "\"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"parent\": %d}%s\n",
                     i, jsonEscape(s.name).c_str(),
                     jsonEscape(s.tags).c_str(),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Trace &trace, std::string name, int parent,
                       std::string tags)
    : trace_(trace), name_(std::move(name)), tags_(std::move(tags)),
      parent_(parent), start_(nowNs())
{}

ScopedSpan::~ScopedSpan()
{
    trace_.add(std::move(name_), start_, nowNs(), parent_,
               std::move(tags_));
}

} // namespace simbench
