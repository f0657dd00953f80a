#include "isolate.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <type_traits>

#include "src/core/grid.hh"

namespace simbench
{

using match::core::ExperimentConfig;
using match::core::ExperimentResult;
using match::ft::Breakdown;

static_assert(std::is_trivially_copyable_v<Breakdown>,
              "breakdowns cross the pipe as raw bytes");

std::int64_t
nowNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

namespace
{

/** Write all of `bytes` (worker side: it exits on a broken pipe). */
void
writeAll(int fd, const void *data, std::size_t bytes)
{
    const char *p = static_cast<const char *>(data);
    while (bytes > 0) {
        const ssize_t n = ::write(fd, p, bytes);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            ::_exit(3);
        p += n;
        bytes -= static_cast<std::size_t>(n);
    }
}

/** Read exactly `bytes`; false on EOF or error before the end. */
bool
readAll(int fd, void *data, std::size_t bytes)
{
    char *p = static_cast<char *>(data);
    while (bytes > 0) {
        const ssize_t n = ::read(fd, p, bytes);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        bytes -= static_cast<std::size_t>(n);
    }
    return true;
}

template <typename T>
void
put(int fd, const T &value)
{
    writeAll(fd, &value, sizeof(T));
}

template <typename T>
bool
get(int fd, T &value)
{
    return readAll(fd, &value, sizeof(T));
}

void
putString(int fd, const std::string &s)
{
    put(fd, static_cast<std::uint64_t>(s.size()));
    writeAll(fd, s.data(), s.size());
}

bool
getString(int fd, std::string &s)
{
    std::uint64_t n = 0;
    if (!get(fd, n) || n > (std::uint64_t{1} << 30))
        return false;
    s.resize(n);
    return readAll(fd, s.data(), n);
}

/** A forked child wired to a pipe the parent reads. */
struct Child
{
    pid_t pid = -1;
    int fd = -1;
};

/** Fork a child that runs `body(writeFd)` then exits 0. */
template <typename Body>
Child
spawn(Body &&body)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("simbench: pipe");
        std::exit(2);
    }
    std::fflush(nullptr); // the child must not replay buffered output
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("simbench: fork");
        std::exit(2);
    }
    if (pid == 0) {
        ::close(fds[0]);
        body(fds[1]);
        ::close(fds[1]);
        ::_exit(0);
    }
    ::close(fds[1]);
    return Child{pid, fds[0]};
}

/** Reap `child`; empty string on a clean exit, else what ended it. */
std::string
reap(Child &child)
{
    ::close(child.fd);
    int status = 0;
    while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        return "";
    if (WIFSIGNALED(status))
        return std::string("worker killed by signal ") +
               std::to_string(WTERMSIG(status)) + " (" +
               ::strsignal(WTERMSIG(status)) + ")";
    return "worker exited with status " +
           std::to_string(WEXITSTATUS(status));
}

double
childrenCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

enum Tag : std::int32_t
{
    kBegin = 1,
    kDone = 2,
    kQuarantined = 3,
    kPassEnd = 4,
};

/**
 * Worker body: run passes over the cells, starting at (pass, first),
 * one GridRunner::run per cell. After each pass it waits for the
 * parent's verdict on `control`: another pass, or stop.
 */
void
workerLoop(const std::vector<ExperimentConfig> &cells, std::size_t first,
           int fd, int control)
{
    // The one-worker runner executes the cell on this thread, so the
    // warmed thread-local pools inherited from the parent are used,
    // and reused from pass to pass.
    const match::core::GridRunner runner(1);
    std::int64_t cell_start = 0;
    match::core::setCellHookForTesting(
        [&cell_start](const ExperimentConfig &) { cell_start = nowNs(); });
    for (;;) {
        for (std::size_t i = first; i < cells.size(); ++i) {
            put(fd, kBegin);
            put(fd, static_cast<std::uint64_t>(i));
            match::core::GridTiming timing;
            const std::int64_t grid_start = nowNs();
            std::vector<ExperimentResult> results =
                runner.run({cells[i]}, &timing);
            const std::int64_t grid_end = nowNs();
            if (!timing.failures.empty()) {
                put(fd, kQuarantined);
                putString(fd, timing.failures.front().lastError);
                continue;
            }
            const std::int64_t cell_end =
                cell_start +
                static_cast<std::int64_t>(timing.cellSeconds.at(0) * 1e9);
            put(fd, kDone);
            put(fd, grid_start);
            put(fd, grid_end);
            put(fd, cell_start);
            put(fd, cell_end);
            const ExperimentResult &r = results.front();
            put(fd, r.mean);
            put(fd, static_cast<std::uint64_t>(r.perRun.size()));
            for (const Breakdown &bd : r.perRun)
                put(fd, bd);
        }
        put(fd, kPassEnd);
        char verdict = 's';
        if (!readAll(control, &verdict, 1) || verdict != 'c')
            return;
        first = 0;
    }
}

/** Read one kDone record's payload into `rec`. */
bool
readDone(int fd, CellRecord &rec)
{
    std::uint64_t runs = 0;
    bool ok = get(fd, rec.gridStartNs) && get(fd, rec.gridEndNs) &&
              get(fd, rec.cellStartNs) && get(fd, rec.cellEndNs) &&
              get(fd, rec.result.mean) && get(fd, runs) && runs <= 1000;
    rec.result.perRun.resize(ok ? runs : 0);
    for (Breakdown &bd : rec.result.perRun)
        ok = ok && get(fd, bd);
    rec.completed = ok;
    return ok;
}

} // anonymous namespace

RunRecord
runPasses(const std::vector<ExperimentConfig> &cells, int passes)
{
    RunRecord run;
    const double cpu_before = childrenCpuSeconds();
    std::int64_t pass_start = nowNs();
    run.passes.emplace_back();
    run.passes.back().cells.resize(cells.size());
    std::size_t first = 0;
    bool done = false;
    while (!done) {
        int control[2];
        if (::pipe(control) != 0) {
            std::perror("simbench: pipe");
            std::exit(2);
        }
        Child child = spawn([&](int fd) {
            ::close(control[1]);
            workerLoop(cells, first, fd, control[0]);
        });
        ::close(control[0]);
        ++run.workers;
        std::size_t current = cells.size();
        for (;;) {
            std::int32_t tag = 0;
            if (!get(child.fd, tag))
                break;
            PassRecord &pass = run.passes.back();
            if (tag == kBegin) {
                std::uint64_t i = 0;
                if (!get(child.fd, i) || i >= cells.size())
                    break;
                current = static_cast<std::size_t>(i);
            } else if (tag == kQuarantined) {
                getString(child.fd, pass.cells.at(current).error);
                current = cells.size();
            } else if (tag == kDone) {
                if (!readDone(child.fd, pass.cells.at(current)))
                    break;
                current = cells.size();
            } else if (tag == kPassEnd) {
                const std::int64_t now = nowNs();
                pass.wallSeconds =
                    static_cast<double>(now - pass_start) * 1e-9;
                pass_start = now;
                const bool more =
                    static_cast<int>(run.passes.size()) < passes;
                // A worker that cannot read this is reaped below.
                const char verdict = more ? 'c' : 's';
                (void)!::write(control[1], &verdict, 1);
                if (!more) {
                    done = true;
                    break;
                }
                run.passes.emplace_back();
                run.passes.back().cells.resize(cells.size());
            } else {
                break;
            }
        }
        ::close(control[1]);
        const std::string ended = reap(child);
        if (done) {
            if (!ended.empty()) {
                std::fprintf(stderr, "simbench: grid worker: %s\n",
                             ended.c_str());
                std::exit(2);
            }
            break;
        }
        if (current >= cells.size()) {
            std::fprintf(stderr, "simbench: grid worker stopped between "
                                 "cells: %s\n",
                         ended.c_str());
            std::exit(2);
        }
        // The worker died inside this cell: count it and go on with
        // the next cell in a fresh worker.
        run.passes.back().cells[current].error =
            ended.empty() ? "worker stopped mid-cell" : ended;
        first = current + 1;
        if (first == cells.size()) {
            // The pass ended with the failed cell; close it here.
            const std::int64_t now = nowNs();
            run.passes.back().wallSeconds =
                static_cast<double>(now - pass_start) * 1e-9;
            pass_start = now;
            if (static_cast<int>(run.passes.size()) >= passes)
                break;
            run.passes.emplace_back();
            run.passes.back().cells.resize(cells.size());
            first = 0;
        }
    }
    run.cpuSeconds = childrenCpuSeconds() - cpu_before;
    return run;
}

bool
inChild(const std::function<std::string()> &fn, std::string &out,
        std::string &error)
{
    Child child = spawn([&](int fd) { putString(fd, fn()); });
    const bool got = getString(child.fd, out);
    error = reap(child);
    if (error.empty() && !got)
        error = "child sent no result";
    return error.empty();
}

double
childrenPeakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace simbench
