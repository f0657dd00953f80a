/**
 * @file
 * In-memory span recorder for the traced pass. Spans are recorded in
 * the benchmark's own code around calls into each layer (name, start,
 * end, parent, free-form tags) and written out as JSON when the
 * benchmark ends; nothing is recorded inside the program.
 */

#ifndef SIMBENCH_TRACE_HH
#define SIMBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace simbench
{

struct Span
{
    std::string name;
    std::string tags;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;

    double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

class Trace
{
  public:
    /** Record a finished span; returns its id (for children). */
    int add(std::string name, std::int64_t start, std::int64_t end,
            int parent = -1, std::string tags = "");

    /** Set the end of a span opened before its children. */
    void finish(int id, std::int64_t end) { spans_.at(id).endNs = end; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a JSON array; false when the file fails. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Times one call into a layer and records it when it goes out of
 *  scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Trace &trace, std::string name, int parent = -1,
               std::string tags = "");
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Trace &trace_;
    std::string name_;
    std::string tags_;
    int parent_;
    std::int64_t start_;
};

} // namespace simbench

#endif // SIMBENCH_TRACE_HH
