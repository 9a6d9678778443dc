/**
 * @file
 * Tiny reporting helpers shared by the per-figure benchmark
 * binaries: aligned table printing plus the paper-vs-measured
 * footer every bench emits.
 */

#ifndef DPU_BENCH_REPORT_HH
#define DPU_BENCH_REPORT_HH

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>

#include "sim/trace.hh"

namespace bench {

/** True when @p name appears verbatim on the command line. */
inline bool
flag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return true;
    return false;
}

/**
 * True when the bench was invoked with --smoke (CI mode): run the
 * same code paths with tiny parameters so the binary finishes in
 * seconds and bit-rot is caught, without pretending the numbers
 * mean anything.
 */
inline bool
smokeRun(int argc, char **argv)
{
    return flag(argc, argv, "--smoke");
}

/** Value of `--flag <v>` / `--flag=<v>`, or @p fallback. */
inline const char *
argValue(int argc, char **argv, const char *flag,
         const char *fallback)
{
    const std::size_t len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return argv[i + 1];
        if (std::strncmp(argv[i], flag, len) == 0 &&
            argv[i][len] == '=')
            return argv[i] + len + 1;
    }
    return fallback;
}

/**
 * Minimal JSON object writer for bench reports. Flat or one level
 * of nesting (obj()/arr()), numbers and strings only — enough for
 * machine-readable bench output without a JSON dependency.
 */
class Json
{
  public:
    /** @p out defaults to stdout; pass a file to tee elsewhere. */
    explicit Json(std::FILE *out = stdout) : f(out)
    {
        std::fputc('{', f);
        open.push_back('}');
    }

    ~Json()
    {
        while (!open.empty())
            end();
        std::fputc('\n', f);
        std::fflush(f);
    }

    Json &
    field(const char *key, double v)
    {
        prefix(key);
        std::fprintf(f, "%.6g", v);
        return *this;
    }

    Json &
    field(const char *key, std::uint64_t v)
    {
        prefix(key);
        std::fprintf(f, "%llu", (unsigned long long)v);
        return *this;
    }

    Json &
    field(const char *key, const char *v)
    {
        prefix(key);
        quote(v);
        return *this;
    }

    Json &
    field(const char *key, const std::string &v)
    {
        return field(key, v.c_str());
    }

    /** Open a nested object; close with end(). */
    Json &
    obj(const char *key)
    {
        prefix(key);
        std::fputc('{', f);
        open.push_back('}');
        first = true;
        return *this;
    }

    /** Open a nested array; close with end(). */
    Json &
    arr(const char *key)
    {
        prefix(key);
        std::fputc('[', f);
        open.push_back(']');
        first = true;
        return *this;
    }

    /** Anonymous object as an array element; close with end(). */
    Json &
    elem()
    {
        if (!first)
            std::fputc(',', f);
        std::fputc('{', f);
        open.push_back('}');
        first = true;
        return *this;
    }

    /** Close the innermost obj()/arr()/elem(). */
    Json &
    end()
    {
        std::fputc(open.back(), f);
        open.pop_back();
        first = false;
        return *this;
    }

  private:
    void
    prefix(const char *key)
    {
        if (!first)
            std::fputc(',', f);
        first = false;
        quote(key);
        std::fputc(':', f);
    }

    void
    quote(const char *s)
    {
        std::fputc('"', f);
        for (; *s; ++s) {
            if (*s == '"' || *s == '\\')
                std::fputc('\\', f);
            std::fputc(*s, f);
        }
        std::fputc('"', f);
    }

    std::FILE *f;
    std::string open;
    bool first = true;
};

inline void
header(const char *fig, const char *title)
{
    std::printf("\n=== %s — %s ===\n", fig, title);
}

inline void
row(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
}

/** One "paper says X, we measured Y" comparison line. */
inline void
compare(const char *what, double paper, double measured,
        const char *unit)
{
    std::printf("  %-44s paper %8.2f  measured %8.2f  %s\n", what,
                paper, measured, unit);
}

/**
 * Write the event trace to the DPU_TRACE file now, mid-process.
 * Benches call this after their interesting phase so a user tracing
 * with DPU_TRACE=out.json gets the file even if the bench keeps
 * running (the atexit flush would also write it, but only with
 * whatever still fits in the ring by then). No-op unless armed.
 */
inline void
flushTrace()
{
    dpu::sim::tracer().flushToFileIfArmed();
}

} // namespace bench

#endif // DPU_BENCH_REPORT_HH
