#include "apps/json.hh"

#include "apps/entry.hh"

#include <bit>
#include <charconv>
#include <cstring>
#include <string_view>
#include <vector>

#include "rt/dms_ctl.hh"
#include "sim/rng.hh"

namespace dpu::apps {

namespace jsondetail {

/** Newline-delimited lineitem-shaped records (Section 5.5). */
Records
makeRecords(const JsonConfig &cfg)
{
    static constexpr std::string_view words[] = {
        "quick",   "silent",   "ironic",   "final",       "pending",
        "express", "deposits", "accounts", "theodolites", "platelets"};
    // The longest record: 86 bytes of keys, punctuation and
    // two-digit fields, a 10-digit orderkey, 6-digit partkey,
    // 2-digit quantity, 5-digit dollars, and five 11-byte words
    // with four spaces between them.
    constexpr std::size_t maxRecordBytes =
        86 + 10 + 6 + 2 + 5 + 5 * 11 + 4;
    sim::Rng rng{cfg.seed};
    Records out;
    std::string &text = out.text;
    text.resize(std::size_t(cfg.nRecords) * maxRecordBytes);
    char *w = text.data();
    char *const end = w + text.size();
    const auto put = [&w](std::string_view sv) {
        std::memcpy(w, sv.data(), sv.size());
        w += sv.size();
    };
    const auto number = [&w, end](std::uint64_t v) {
        w = std::to_chars(w, end, v).ptr;
    };
    const auto twoDigits = [&w](std::uint64_t v) {
        w[0] = char('0' + v / 10);
        w[1] = char('0' + v % 10);
        w += 2;
    };
    for (std::uint32_t r = 0; r < cfg.nRecords; ++r) {
        // The draw order is part of the input: cents before
        // dollars, and the ship date's day, month, then year.
        const std::uint64_t orderkey = r + 1;
        const std::uint64_t partkey = rng.below(200000) + 1;
        const std::uint64_t quantity = rng.below(50) + 1;
        const std::uint64_t cents = rng.below(100);
        const std::uint64_t dollars = rng.below(90000) + 1000;
        const std::uint64_t day = rng.below(28) + 1;
        const std::uint64_t month = rng.below(12) + 1;
        const std::uint64_t year = 92 + rng.below(7);

        put("{\"orderkey\":");
        number(orderkey);
        put(",\"partkey\":");
        number(partkey);
        put(",\"quantity\":");
        number(quantity);
        put(",\"price\":");
        number(dollars);
        *w++ = '.';
        twoDigits(cents);
        put(",\"shipdate\":\"19");
        twoDigits(year);
        *w++ = '-';
        twoDigits(month);
        *w++ = '-';
        twoDigits(day);
        put("\",\"comment\":\"");
        unsigned n = 2 + unsigned(rng.below(4));
        for (unsigned k = 0; k < n; ++k) {
            if (k)
                *w++ = ' ';
            put(words[rng.below(10)]);
        }
        put("\"}\n");
        out.tally.intSum += orderkey + partkey + quantity + dollars;
    }
    text.resize(std::size_t(w - text.data()));
    out.tally.records = cfg.nRecords;
    out.tally.fields = 6 * std::uint64_t(cfg.nRecords);
    return out;
}

namespace {

/**
 * Index of the first '"' or '\\' in [p + i, p + len), or len (i when
 * i > len). Eight bytes at a time: each byte xor the target is zero
 * only at a match, and the zero-byte test below flags no byte under
 * the lowest zero (a borrow starts only at a zero byte), so the
 * lowest flag is the first match. Little-endian hosts take its
 * index from the flag's bit position; others search the word a
 * byte at a time.
 */
std::uint64_t
stringStop(const char *p, std::uint64_t i, std::uint64_t len)
{
    constexpr std::uint64_t ones = 0x0101010101010101ull;
    constexpr std::uint64_t highs = 0x8080808080808080ull;
    constexpr std::uint64_t quotes = ones * '"';
    constexpr std::uint64_t slashes = ones * '\\';
    const auto zeroBytes = [](std::uint64_t x) {
        return (x - ones) & ~x & highs;
    };
    for (; i + 8 <= len; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, p + i, 8);
        const std::uint64_t hits =
            zeroBytes(word ^ quotes) | zeroBytes(word ^ slashes);
        if (hits) {
            if constexpr (std::endian::native == std::endian::little)
                return i + unsigned(std::countr_zero(hits)) / 8;
            break;
        }
    }
    while (i < len && p[i] != '"' && p[i] != '\\')
        ++i;
    return i;
}

bool
isDigit(char ch)
{
    return unsigned(ch - '0') < 10;
}

} // namespace

/**
 * The table-driven FSM both implementations share functionally: a
 * flat scan counting records (depth-0 newlines), fields (colons at
 * depth 1 outside strings), and summing integer-part values. Also
 * reports the number of "action" events (fields) for the DPU's
 * cost model. A string body is skipped to its closing quote in
 * stringStop() steps, a backslash escaping the byte after it; an
 * integer is read in one loop and is not added if it runs into the
 * span's end.
 */
JsonTally
parseSpan(const char *p, std::uint64_t len)
{
    JsonTally t;
    int depth = 0;
    std::uint64_t i = 0;
    while (i < len) {
        switch (p[i++]) {
          case '"':
            for (;;) {
                i = stringStop(p, i, len);
                if (i >= len)
                    return t;
                if (p[i++] == '"')
                    break;
                ++i; // the escaped byte
            }
            break;
          case '{': ++depth; break;
          case '}': --depth; break;
          case ':':
            if (depth == 1) {
                ++t.fields;
                if (i < len && isDigit(p[i])) {
                    std::uint64_t cur = 0;
                    for (; i < len && isDigit(p[i]); ++i)
                        cur = cur * 10 + std::uint64_t(p[i] - '0');
                    if (i == len)
                        return t;
                    // The terminator is scanned next, as any byte.
                    t.intSum += cur;
                }
            }
            break;
          case '\n':
            if (depth == 0)
                ++t.records;
            break;
          default:
            break;
        }
    }
    return t;
}

} // namespace jsondetail

using jsondetail::makeRecords;
using jsondetail::parseSpan;

namespace {

constexpr std::uint32_t padBytes = 1024; // Section 5.5's padding

} // namespace

JsonResult
dpuJson(const soc::SocParams &params, const JsonConfig &cfg)
{
    const std::string text = makeRecords(cfg).text;
    const std::uint64_t bytes = text.size();
    soc::Soc s(params);
    s.memory().store().write(0, text.data(), bytes);

    const std::uint64_t chunk =
        alignUp((bytes + cfg.nCores - 1) / cfg.nCores, 4);

    std::vector<JsonTally> tallies(cfg.nCores);
    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            // Cores other than the first also read the byte just
            // before their chunk: a record is theirs to skip only
            // when it STRADDLES the boundary, i.e. when that byte
            // is not a newline.
            std::uint64_t begin = std::uint64_t(id) * chunk;
            if (begin >= bytes)
                return;
            unsigned lead = id > 0 ? 1 : 0;
            begin -= lead;
            // Read the chunk plus padding; the extra bytes cover a
            // record straddling the boundary (Section 5.5).
            std::uint64_t want =
                std::min<std::uint64_t>(chunk + lead + padBytes,
                                        bytes - begin);

            // Triple-buffered 8 KB tiles, exactly as the paper.
            std::vector<char> local;
            local.reserve(want);
            rt::StreamReader in(ctl, begin, want, 0, 8192, 3, 0, 0);
            in.forEach([&](std::uint32_t off, std::uint32_t blen) {
                std::size_t at = local.size();
                local.resize(at + blen);
                c.dmem().read(off, local.data() + at, blen);
            });

            // Skip into the first whole record; parse through the
            // chunk end until the straddling record closes.
            std::uint64_t from = 0;
            if (id > 0) {
                while (from < local.size() && local[from] != '\n')
                    ++from;
                ++from; // one past the newline
            }
            std::uint64_t to = std::min<std::uint64_t>(
                chunk + lead, local.size());
            while (to < local.size() && local[to - 1] != '\n')
                ++to;
            if (from >= to)
                return;

            std::uint64_t span = to - from;
            JsonTally t = parseSpan(local.data() + from, span);
            tallies[id] = t;

            // Cost model: the jump-table parser runs the dispatch
            // loop at ~6 cycles/byte plus ~30 cycles of value
            // materialization per field. The branchy SAJSON port
            // pays 13.2 cycles/byte in the pipeline (Section 5.5)
            // plus front-end stalls — its "large number of
            // instructions" thrashes the 8 KB I-cache — which is
            // what pins the whole chip at ~645 MB/s.
            if (cfg.branchyParser)
                c.cycles(sim::Cycles(span * 33));
            else
                c.cycles(sim::Cycles(span * 6));
            c.cycles(t.fields * 30);
        });
    }
    sim::Tick t = s.run();
    sim_assert(s.allFinished(), "JSON kernels deadlocked");

    JsonResult r;
    r.seconds = double(t) * 1e-12;
    r.bytes = bytes;
    for (const JsonTally &pt : tallies) {
        r.tally.records += pt.records;
        r.tally.fields += pt.fields;
        r.tally.intSum += pt.intSum;
    }
    return r;
}

JsonResult
xeonJson(const JsonConfig &cfg)
{
    const std::string text = makeRecords(cfg).text;
    JsonResult r;
    r.bytes = text.size();
    r.tally = parseSpan(text.data(), text.size());

    // Anchored on the paper's measurement: SAJSON parses this record
    // mix at 5.2 GB/s on the 36-core box at IPC 3.05 (Section 5.5),
    // i.e. ~48 uops per byte.
    xeon::XeonModel m;
    m.scalarOps(double(r.bytes) * 48.0);
    m.streamBytes(double(r.bytes));
    m.endPhase();
    r.seconds = m.seconds();
    return r;
}

AppResult
jsonApp(const JsonConfig &cfg)
{
    JsonResult d = dpuJson(soc::dpu40nm(), cfg);
    JsonResult x = xeonJson(cfg);
    AppResult r;
    r.name = cfg.branchyParser ? "JSON (branchy)" : "JSON parsing";
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits = double(d.bytes);
    r.unitName = "bytes";
    r.matched = d.tally == x.tally;
    return r;
}

} // namespace dpu::apps
